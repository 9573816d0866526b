// Shared helpers for the reproduction benches.
//
// Every bench regenerates one table or figure from the paper. Absolute
// numbers come from our simulated substrate, so they are not expected to
// match the paper's testbed; each bench prints the paper's published values
// alongside ours so the *shape* (who wins, by what factor, where the
// crossovers fall) can be compared directly.
//
// Set SEER_BENCH_FULL=1 to run at the paper's full scale (all measured
// days, more seeds); the default "fast" scale finishes in seconds per
// machine.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/util/thread_count.h"

namespace seer {
namespace bench {

inline bool FullScale() {
  const char* v = std::getenv("SEER_BENCH_FULL");
  return v != nullptr && std::strcmp(v, "0") != 0;
}

// Days to simulate for a machine measured for `paper_days` days.
inline int ScaledDays(int paper_days) {
  if (FullScale()) {
    return paper_days;
  }
  return paper_days < 56 ? paper_days : 56;
}

// Disconnection count for the live-usage benches.
inline int ScaledDisconnections(int paper_count) {
  if (FullScale()) {
    return paper_count;
  }
  return paper_count < 48 ? paper_count : 48;
}

inline int SeedCount() { return FullScale() ? 5 : 2; }

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("scale: %s (set SEER_BENCH_FULL=1 for the paper's full scale)\n",
              FullScale() ? "FULL" : "fast");
  std::printf("================================================================\n");
}

inline void PrintRule() {
  std::printf("----------------------------------------------------------------\n");
}

// Physical CPUs of the machine running the bench (never 0; a JSON consumer
// comparing runs needs the real denominator).
inline int HostCpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// The default I/O shard count of the hoard service: a validated
// SEER_THREADS override, else hardware concurrency. An invalid SEER_THREADS
// aborts the bench — silently benchmarking at the wrong width poisons every
// number downstream.
inline int EffectiveSeerThreads() {
  const StatusOr<int> env = SeerThreadsFromEnv();
  if (!env.ok()) {
    std::fprintf(stderr, "bench: %s\n", env.status().message().c_str());
    std::exit(2);
  }
  return *env > 0 ? *env : DefaultThreadCount();
}

// Machine metadata common to every BENCH_*.json, so results from different
// hosts/configs are never conflated. Call right after the opening brace.
inline void WriteJsonMachineMeta(std::FILE* out) {
  std::fprintf(out, "  \"host_cpus\": %d,\n", HostCpus());
  std::fprintf(out, "  \"seer_threads\": %d,\n", EffectiveSeerThreads());
}

// A thread sweep only demonstrates *scaling* when the host actually has the
// cores being swept; on a narrower machine the same numbers measure
// oversubscription overhead instead. Benches that sweep thread counts must
// record which regime they ran in so downstream consumers (tools/
// bench_compare.py, CI perf gates) never misread a 1-cpu run as a
// parallelism regression.
inline bool ScalingValid(int max_threads_swept) {
  return HostCpus() >= max_threads_swept;
}

// Emits the "scaling_valid" JSON flag. Call alongside WriteJsonMachineMeta
// in any bench whose JSON carries a thread sweep.
inline void WriteJsonScalingValid(std::FILE* out, int max_threads_swept) {
  std::fprintf(out, "  \"scaling_valid\": %s,\n",
               ScalingValid(max_threads_swept) ? "true" : "false");
}

// Loud stderr warning for humans reading the console output of an invalid
// sweep. Returns the validity so callers can branch on it.
inline bool WarnIfScalingInvalid(const char* bench_name, int max_threads_swept) {
  if (ScalingValid(max_threads_swept)) {
    return true;
  }
  std::fprintf(stderr,
               "\n*** %s: host has %d cpu%s but the sweep goes to %d threads.\n"
               "*** Multi-thread numbers measure OVERSUBSCRIPTION OVERHEAD, not\n"
               "*** speedup; \"scaling_valid\": false is recorded in the JSON and\n"
               "*** scaling gates must be skipped on this host.\n\n",
               bench_name, HostCpus(), HostCpus() == 1 ? "" : "s", max_threads_swept);
  return false;
}

}  // namespace bench
}  // namespace seer

#endif  // BENCH_BENCH_UTIL_H_
