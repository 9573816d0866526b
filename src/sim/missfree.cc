#include "src/sim/missfree.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

namespace seer {

MissFreeResult ComputeMissFree(const std::vector<std::string>& order,
                               const std::set<std::string>& referenced,
                               const SizeOfFn& size_of) {
  MissFreeResult result;
  if (referenced.empty()) {
    return result;
  }
  std::unordered_set<std::string> remaining(referenced.begin(), referenced.end());
  uint64_t cumulative = 0;
  std::unordered_set<std::string> seen;
  for (const auto& path : order) {
    if (!seen.insert(path).second) {
      continue;  // duplicate entry in the order
    }
    cumulative += size_of(path);
    if (remaining.erase(path) != 0 && remaining.empty()) {
      result.bytes = cumulative;
      result.deepest = path;
      return result;
    }
  }
  // Some referenced files are not in the order at all.
  result.bytes = cumulative;
  result.uncovered = remaining.size();
  return result;
}

uint64_t WorkingSetBytes(const std::set<std::string>& referenced, const SizeOfFn& size_of) {
  uint64_t total = 0;
  for (const auto& path : referenced) {
    total += size_of(path);
  }
  return total;
}

std::vector<std::string> SeerCoverageOrder(const Correlator& correlator,
                                           const ClusterSet& clusters,
                                           const std::set<PathId>& always_hoard) {
  // The interner is canonical (one PathId per spelling), so deduplicating
  // by id is exact and copies no path until it is emitted.
  std::vector<std::string> order;
  std::vector<uint8_t> emitted;  // by PathId
  auto seen = [&](PathId path) { return path < emitted.size() && emitted[path] != 0; };
  auto emit = [&](PathId path) {
    if (path == kInvalidPathId || seen(path)) {
      return;
    }
    const std::string_view spelling = GlobalPaths().PathOf(path);
    if (spelling.empty()) {
      return;
    }
    if (path >= emitted.size()) {
      emitted.resize(static_cast<size_t>(path) + 1, 0);
    }
    emitted[path] = 1;
    order.emplace_back(spelling);
  };

  for (const PathId path : always_hoard) {
    emit(path);
  }

  const FileTable& files = correlator.files();
  struct Ranked {
    uint64_t priority;
    uint32_t index;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(clusters.clusters.size());
  for (uint32_t i = 0; i < clusters.clusters.size(); ++i) {
    uint64_t priority = 0;
    for (const FileId id : clusters.clusters[i].members) {
      priority = std::max(priority, files.Get(id).last_ref_seq);
    }
    ranked.push_back({priority, i});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) { return a.priority > b.priority; });

  for (const Ranked& r : ranked) {
    for (const FileId id : clusters.clusters[r.index].members) {
      if (!files.Get(id).deleted) {
        emit(files.Get(id).path);
      }
    }
  }

  // Anything known to the correlator but not clustered (excluded files are
  // in always_hoard already; this catches stragglers), newest first.
  std::vector<std::pair<uint64_t, FileId>> rest;
  for (const FileId id : files.LiveIds()) {
    if (!seen(files.Get(id).path)) {
      rest.emplace_back(files.Get(id).last_ref_seq, id);
    }
  }
  std::sort(rest.begin(), rest.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [seq, id] : rest) {
    emit(files.Get(id).path);
  }
  return order;
}

std::vector<std::string> WithTail(std::vector<std::string> order,
                                  const std::vector<std::string>& universe) {
  std::unordered_set<std::string> present(order.begin(), order.end());
  for (const auto& path : universe) {
    if (present.count(path) == 0) {
      order.push_back(path);
    }
  }
  return order;
}

}  // namespace seer
