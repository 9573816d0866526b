// Shared types of the benchmark's workloads: options, the result a
// workload reports, and small statistics helpers.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace seerbench {

// Untraced runs set up this many times and report the median as setup_s,
// so that work moved into set-up shows.
constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // minimum measured time of an untraced run
  bool trace = false;
  std::string out_dir = ".bench_build";  // span files and the server socket
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // why `correct` is false
  std::vector<std::string> notes;   // human-readable lines printed before the JSON

  void Set(const std::string& name, double value, const std::string& unit, uint64_t samples);
  void Fail(const std::string& why);
};

Result RunPaperSim(const Options& options);
// `churn` selects fleet-churn; otherwise fleet-stream.
Result RunFleet(const Options& options, bool churn);

// --- helpers ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanTrace;

// The common end of a traced run: checks that the self times add up to
// the traced wall time, notes the self time of each layer, reports
// trace.overhead_ratio, and writes the spans to
// <out_dir>/spans-<workload>.bin.
void ReportTrace(const SpanTrace& trace, double traced_wall_s, double untraced_wall_s,
                 const Options& options, Result* result);

// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
// Samples strictly above the q-quantile: a tail percentile is reported
// only with at least ten of them.
uint64_t SamplesBeyond(const std::vector<double>& values, double q);
// Peak resident set of this process so far, MiB.
double PeakRssMb();
// 64-bit FNV-1a, for output digests.
uint64_t Fnv1a(const std::string& text, uint64_t hash = 1469598103934665603ULL);

}  // namespace seerbench

#endif  // PERFBENCH_SRC_BENCH_H_
