#include "src/core/params_io.h"

#include <charconv>
#include <sstream>

namespace seer {

namespace {

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) {
    ++b;
  }
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) {
    --e;
  }
  return s.substr(b, e - b);
}

// Strips a trailing "# comment".
std::string_view StripComment(std::string_view s) {
  const size_t pos = s.find('#');
  return pos == std::string_view::npos ? s : Trim(s.substr(0, pos));
}

template <typename T>
bool ParseNum(std::string_view value, T* out) {
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), *out);
  return ec == std::errc() && ptr == value.data() + value.size();
}

Status Fail(int line_number, const std::string& message) {
  std::ostringstream out;
  out << "line " << line_number << ": " << message;
  return Status::InvalidArgument(out.str());
}

}  // namespace

StatusOr<SeerParams> ParseSeerParams(std::string_view text, const SeerParams& base) {
  SeerParams params = base;
  std::istringstream in{std::string(text)};
  std::string raw;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    const std::string_view line = StripComment(Trim(raw));
    if (line.empty()) {
      continue;
    }
    const size_t pos = line.find_first_of(" \t");
    const std::string_view key = pos == std::string_view::npos ? line : line.substr(0, pos);
    const std::string_view value =
        pos == std::string_view::npos ? std::string_view() : Trim(line.substr(pos + 1));

    bool ok = true;
    if (key == "n") {
      ok = ParseNum(value, &params.max_neighbors) && params.max_neighbors > 0;
      if (ok && params.max_neighbors > kMaxNeighbors) {
        std::ostringstream message;
        message << "n " << params.max_neighbors << " exceeds the limit of " << kMaxNeighbors;
        return Fail(line_number, message.str());
      }
    } else if (key == "M") {
      ok = ParseNum(value, &params.distance_horizon) && params.distance_horizon > 0;
    } else if (key == "kn") {
      ok = ParseNum(value, &params.cluster_near) && params.cluster_near > 0;
    } else if (key == "kf") {
      ok = ParseNum(value, &params.cluster_far) && params.cluster_far > 0;
    } else if (key == "distance") {
      if (value == "lifetime") {
        params.distance_kind = DistanceKind::kLifetime;
      } else if (value == "sequence") {
        params.distance_kind = DistanceKind::kSequence;
      } else if (value == "temporal") {
        params.distance_kind = DistanceKind::kTemporal;
      } else {
        ok = false;
      }
    } else if (key == "mean") {
      if (value == "geometric") {
        params.mean_kind = MeanKind::kGeometric;
      } else if (value == "arithmetic") {
        params.mean_kind = MeanKind::kArithmetic;
      } else {
        ok = false;
      }
    } else if (key == "per-process") {
      if (value == "on" || value == "true") {
        params.per_process_streams = true;
      } else if (value == "off" || value == "false") {
        params.per_process_streams = false;
      } else {
        ok = false;
      }
    } else if (key == "aging-updates") {
      ok = ParseNum(value, &params.aging_updates);
    } else if (key == "delete-delay") {
      ok = ParseNum(value, &params.delete_delay);
    } else if (key == "dir-weight") {
      ok = ParseNum(value, &params.dir_distance_weight) && params.dir_distance_weight >= 0.0;
    } else if (key == "investigator-weight") {
      ok = ParseNum(value, &params.investigator_weight) && params.investigator_weight >= 0.0;
    } else if (key == "temporal-horizon") {
      ok = ParseNum(value, &params.temporal_horizon_seconds) &&
           params.temporal_horizon_seconds > 0.0;
    } else {
      return Fail(line_number, "unknown parameter '" + std::string(key) + "'");
    }
    if (!ok) {
      return Fail(line_number,
                  "bad value '" + std::string(value) + "' for '" + std::string(key) + "'");
    }
  }
  if (params.cluster_far >= params.cluster_near) {
    return Fail(line_number, "kf must be smaller than kn (smaller thresholds are more lenient)");
  }
  return params;
}

std::string FormatSeerParams(const SeerParams& params) {
  std::ostringstream out;
  out << "# SEER correlator parameters\n";
  out << "n " << params.max_neighbors << '\n';
  out << "M " << params.distance_horizon << '\n';
  out << "kn " << params.cluster_near << '\n';
  out << "kf " << params.cluster_far << '\n';
  out << "distance "
      << (params.distance_kind == DistanceKind::kLifetime
              ? "lifetime"
              : params.distance_kind == DistanceKind::kSequence ? "sequence" : "temporal")
      << '\n';
  out << "mean " << (params.mean_kind == MeanKind::kGeometric ? "geometric" : "arithmetic")
      << '\n';
  out << "per-process " << (params.per_process_streams ? "on" : "off") << '\n';
  out << "aging-updates " << params.aging_updates << '\n';
  out << "delete-delay " << params.delete_delay << '\n';
  out << "dir-weight " << params.dir_distance_weight << '\n';
  out << "investigator-weight " << params.investigator_weight << '\n';
  out << "temporal-horizon " << params.temporal_horizon_seconds << '\n';
  return out.str();
}

}  // namespace seer
