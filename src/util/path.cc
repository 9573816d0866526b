#include "src/util/path.h"

#include <cstring>

namespace seer {

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') {
      ++i;
    }
    size_t start = i;
    while (i < path.size() && path[i] != '/') {
      ++i;
    }
    if (i > start) {
      parts.emplace_back(path.substr(start, i - start));
    }
  }
  return parts;
}

std::string NormalizePath(std::string_view path) {
  // One pass over a copy of the input, compacting it in place: each kept
  // component moves down to the write position `len`, "." and empty
  // components are skipped, and ".." truncates back to the previous
  // separator. Writes never pass the read position, and in a canonical
  // path every component is already where it belongs, so that costs one
  // copy and no per-component strings.
  std::string out(path);
  char* const buf = out.data();
  const bool absolute = !path.empty() && path.front() == '/';
  const size_t root = absolute ? 1 : 0;  // ".." never truncates below this
  size_t len = root;
  size_t start = 0;
  while (start < path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) {
      end = path.size();
    }
    const std::string_view part = path.substr(start, end - start);
    const size_t from = start;
    start = end + 1;
    if (part.empty() || part == ".") {
      continue;
    }
    if (part == "..") {
      const std::string_view kept(buf, len);
      const size_t sep = kept.rfind('/');
      const size_t last = sep == std::string_view::npos ? 0 : sep + 1;
      if (len > root && kept.substr(last) != "..") {
        len = last > root ? last - 1 : root;
        continue;
      }
      if (absolute) {
        continue;  // ".." at the root of an absolute path is dropped.
      }
    }
    if (len > root) {
      buf[len++] = '/';
    }
    if (len != from) {
      std::memcpy(buf + len, part.data(), part.size());
    }
    len += part.size();
  }
  out.resize(len);
  if (out.empty()) {
    out.push_back('.');
  }
  return out;
}

std::string JoinPath(std::string_view base, std::string_view rel) {
  if (!rel.empty() && rel.front() == '/') {
    return NormalizePath(rel);
  }
  std::string combined(base);
  if (!combined.empty() && combined.back() != '/') {
    combined += '/';
  }
  combined += rel;
  return NormalizePath(combined);
}

std::string AbsolutePath(std::string_view cwd, std::string_view path) {
  if (!path.empty() && path.front() == '/') {
    return NormalizePath(path);
  }
  return JoinPath(cwd, path);
}

std::string Dirname(std::string_view path) {
  const size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos) {
    return ".";
  }
  if (pos == 0) {
    return "/";
  }
  return std::string(path.substr(0, pos));
}

std::string Basename(std::string_view path) {
  const size_t pos = path.find_last_of('/');
  if (pos == std::string_view::npos) {
    return std::string(path);
  }
  return std::string(path.substr(pos + 1));
}

bool IsDotFile(std::string_view path) {
  const std::string base = Basename(path);
  return base.size() > 1 && base.front() == '.' && base != ".." && base != ".";
}

bool IsUnder(std::string_view path, std::string_view dir) {
  const std::string p = NormalizePath(path);
  std::string d = NormalizePath(dir);
  if (d == "/") {
    return !p.empty() && p.front() == '/';
  }
  if (p == d) {
    return true;
  }
  d += '/';
  return p.size() > d.size() && p.compare(0, d.size(), d) == 0;
}

int DirectoryDistance(std::string_view path_a, std::string_view path_b) {
  const auto a = SplitPath(Dirname(NormalizePath(path_a)));
  const auto b = SplitPath(Dirname(NormalizePath(path_b)));
  size_t common = 0;
  while (common < a.size() && common < b.size() && a[common] == b[common]) {
    ++common;
  }
  return static_cast<int>((a.size() - common) + (b.size() - common));
}

std::string Extension(std::string_view path) {
  const std::string base = Basename(path);
  const size_t pos = base.find_last_of('.');
  if (pos == std::string::npos || pos == 0 || pos + 1 == base.size()) {
    return "";
  }
  return base.substr(pos + 1);
}

}  // namespace seer
