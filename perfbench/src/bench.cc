#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "span_trace.h"

namespace seerbench {

void Result::Set(const std::string& name, double value, const std::string& unit,
                 uint64_t samples) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit, samples});
}

void Result::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void ReportTrace(const SpanTrace& trace, double traced_wall_s, double untraced_wall_s,
                 const Options& options, Result* result) {
  const double self_sum_s = static_cast<double>(trace.total_self_ns()) / 1e9;
  if (!trace.balanced() || std::abs(self_sum_s - traced_wall_s) > 0.01 * traced_wall_s) {
    result->Fail(options.workload + ": traced self times do not add up to the traced wall time");
  }
  char line[192];
  std::snprintf(line, sizeof(line),
                "trace: %zu spans; self times sum to %.4f s of %.4f s traced wall "
                "(untraced %.4f s)",
                trace.spans().size(), self_sum_s, traced_wall_s, untraced_wall_s);
  result->notes.push_back(line);
  for (const auto& [layer, ns] : trace.SelfNsByLayer()) {
    std::snprintf(line, sizeof(line), "self %-12s %10.3f ms  %5.1f%%", layer.c_str(),
                  static_cast<double>(ns) / 1e6,
                  100.0 * static_cast<double>(ns) / 1e9 / traced_wall_s);
    result->notes.push_back(line);
  }
  result->Set("trace.overhead_ratio", traced_wall_s / untraced_wall_s, "ratio", 1);
  const std::string path = options.out_dir + "/spans-" + options.workload + ".bin";
  if (!trace.WriteTo(path)) {
    result->Fail(options.workload + ": could not write " + path);
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

uint64_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Quantile(values, q);
  return static_cast<uint64_t>(
      std::count_if(values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

uint64_t Fnv1a(const std::string& text, uint64_t hash) {
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return hash;
}

}  // namespace seerbench
