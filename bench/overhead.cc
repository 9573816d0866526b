// Section 5.3 — Implementation cost microbenchmarks.
//
// The paper reports: ~35 us of CPU per traced system call on a 133 MHz
// Pentium (tracing must be much cheaper than the open itself), about two
// minutes of CPU to form clusters (rare, deferrable), and roughly 1 KB of
// memory per tracked file. These google-benchmark microbenchmarks measure
// the same three costs in our implementation; the expectation is the
// *relationship* (tracing nanoseconds-to-microseconds per call, clustering
// seconds-scale at tens of thousands of files, memory ~hundreds of bytes
// to ~1KB per file), not the absolute 1997 numbers.
//
// After the tables the binary runs two timing self-checks at 16k files and
// exits 1 if either fails:
//   * the checkpoint seal (all ingest waits for) is at least 10x cheaper
//     than a serial snapshot encode (what a synchronous checkpoint would
//     stall ingest for);
//   * a warm hoard fill after touching 1% of the files takes at most 0.25x
//     a scratch fill.
// The host-independent properties (zero steady-state allocations, the
// hoard selection's reference oracle, delta snapshot size) are ctest
// suites, not part of this bench.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "src/core/correlator.h"
#include "src/core/hoard.h"
#include "src/core/snapshot_codec.h"
#include "src/observer/observer.h"
#include "src/process/syscall_tracer.h"
#include "src/workload/environment.h"
#include "src/workload/user_model.h"

namespace seer {
namespace {

// Full per-syscall pipeline cost: tracer -> observer -> correlator.
void BM_TracedOpenClose(benchmark::State& state) {
  SimFilesystem fs;
  fs.MkdirAll("/home/u/proj");
  for (int i = 0; i < 64; ++i) {
    fs.CreateFile("/home/u/proj/f" + std::to_string(i), 1000);
  }
  ProcessTable procs;
  SimClock clock;
  SyscallTracer tracer(&fs, &procs, &clock);
  Observer observer(ObserverConfig{}, &fs);
  Correlator correlator;
  observer.set_sink(&correlator);
  tracer.AddSink(&observer);
  const Pid pid = procs.SpawnInit(1000, "/home/u/proj");
  int i = 0;
  for (auto _ : state) {
    const auto r = tracer.Open(pid, std::string("f").append(std::to_string(i++ % 64)), false);
    tracer.Close(pid, r.fd);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TracedOpenClose);

// Tracer alone (no SEER attached) — the baseline syscall cost.
void BM_UntracedOpenClose(benchmark::State& state) {
  SimFilesystem fs;
  fs.MkdirAll("/home/u");
  fs.CreateFile("/home/u/f", 1000);
  ProcessTable procs;
  SimClock clock;
  SyscallTracer tracer(&fs, &procs, &clock);
  const Pid pid = procs.SpawnInit(1000, "/home/u");
  for (auto _ : state) {
    const auto r = tracer.Open(pid, "f", false);
    tracer.Close(pid, r.fd);
  }
}
BENCHMARK(BM_UntracedOpenClose);

// Builds a correlator loaded with `n_files` interrelated files.
std::unique_ptr<Correlator> LoadedCorrelator(int n_files) {
  auto correlator = std::make_unique<Correlator>();
  // 16-file "projects": realistic cluster granularity.
  Time t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    // Two passes so every pair inside a project has observations; each
    // project runs in its own process stream.
    for (int f = 0; f < n_files; ++f) {
      const int project = f / 16;
      FileReference ref;
      ref.pid = 1 + project;
      ref.kind = RefKind::kPoint;
      ref.path =
          GlobalPaths().Intern("/p" + std::to_string(project) + "/f" + std::to_string(f % 16));
      ref.time = (t += 1000);
      correlator->OnReference(ref);
    }
  }
  return correlator;
}

// Clustering cost as a function of file count (the paper: ~2 CPU minutes
// for ~20,000 files on 1997 hardware; ours should be far faster and scale
// linearly, Section 3.3.2 — the O(N) fit is printed as BM_BuildClusters_BigO).
// Every iteration is a full rebuild: with incremental clustering on, all
// but the first would time a no-change warm rescore.
void BM_BuildClusters(benchmark::State& state) {
  const int n_files = static_cast<int>(state.range(0));
  auto correlator = LoadedCorrelator(n_files);
  correlator->SetIncrementalClustering(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(correlator->BuildClusters());
  }
  state.SetComplexityN(n_files);
}
BENCHMARK(BM_BuildClusters)->Range(1 << 8, 1 << 14)->Complexity(benchmark::oN);

// Hoard selection on top of clustering. Every iteration is a scratch
// fill: the epoch cache would turn all but the first into a no-change
// warm fill (the warm path is the incremental-fill self-check below).
void BM_ChooseHoard(benchmark::State& state) {
  auto correlator = LoadedCorrelator(4096);
  const ClusterSet clusters = correlator->BuildClusters();
  HoardManager manager(64ull << 20);
  manager.set_incremental_fill(false);
  const std::set<PathId> always;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        manager.ChooseHoard(*correlator, clusters, always, [](PathId) { return 14'000ull; }));
  }
}
BENCHMARK(BM_ChooseHoard);

// Memory per tracked file (paper: ~1 KB/file, deliberately unoptimised).
void BM_MemoryPerFile(benchmark::State& state) {
  const int n_files = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto correlator = LoadedCorrelator(n_files);
    benchmark::DoNotOptimize(correlator->MemoryBytes());
  }
  auto correlator = LoadedCorrelator(n_files);
  state.counters["bytes_per_file"] =
      static_cast<double>(correlator->MemoryBytes()) / static_cast<double>(n_files);
}
BENCHMARK(BM_MemoryPerFile)->Arg(1 << 12)->Iterations(1);

// End-to-end workload generation rate (events/second of simulator time).
void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SimFilesystem fs;
    Rng rng(7);
    const UserEnvironment env = BuildEnvironment(&fs, EnvironmentConfig{}, &rng);
    ProcessTable procs;
    SimClock clock;
    SyscallTracer tracer(&fs, &procs, &clock);
    Observer observer(ObserverConfig{}, &fs);
    Correlator correlator;
    observer.set_sink(&correlator);
    tracer.AddSink(&observer);
    UserModel user(&tracer, &env, UserModelConfig{}, 7);
    state.ResumeTiming();
    user.RunActiveHours(0.2);
    state.counters["events"] = static_cast<double>(tracer.events_emitted());
  }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMillisecond);

// --- timing self-checks --------------------------------------------------------

constexpr int kCheckFiles = 16384;
constexpr int kCheckReps = 3;   // best-of: the achievable floor, not CI noise
constexpr int kFillReps = 10;

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - start)
      .count();
}

// Best-of-`reps` wall time of `fn()` in microseconds.
template <typename Fn>
double BestMicros(int reps, const Fn& fn) {
  double best = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, MicrosSince(start));
  }
  return best;
}

// What ingest stalls for under the async checkpoint plane (the seal, an
// owning copy of the state) against what a synchronous checkpoint stalls
// for (the whole encode).
bool CheckSealStall() {
  auto correlator = LoadedCorrelator(kCheckFiles);
  SealedSnapshot seal;
  const double seal_us = BestMicros(kCheckReps, [&] { seal = correlator->SealSnapshot(); });
  std::string encoded;
  const double encode_us =
      BestMicros(kCheckReps, [&] { encoded = EncodeSealedSnapshot(seal); });
  benchmark::DoNotOptimize(encoded);
  const double reduction = seal_us > 0 ? encode_us / seal_us : 0.0;
  const bool pass = reduction >= 10.0;
  std::printf("%s seal stall: %.0f us vs serial encode %.0f us at %d files (%.1fx smaller, "
              "check >= 10x)\n",
              pass ? "PASS" : "FAIL", seal_us, encode_us, kCheckFiles, reduction);
  return pass;
}

// A warm (epoch-cached) hoard fill after a 1% touch against a scratch
// fill of the same state. Sizes come from a string-keyed stat table, the
// way the simulator's filesystem answers them.
bool CheckIncrementalFill() {
  auto correlator = LoadedCorrelator(kCheckFiles);
  const ClusterSet clusters = correlator->BuildClusters();
  std::unordered_map<std::string, uint64_t> stat_table;
  uint64_t total_bytes = 0;
  for (FileId id = 0; id < correlator->files().size(); ++id) {
    const PathId path = correlator->files().Get(id).path;
    const uint64_t bytes = 64 + (static_cast<uint64_t>(path) * 2654435761ull) % 512;
    stat_table.emplace(std::string(GlobalPaths().PathOf(path)), bytes);
    total_bytes += bytes;
  }
  const auto size_of = [&stat_table](PathId p) -> uint64_t {
    const auto it = stat_table.find(std::string(GlobalPaths().PathOf(p)));
    return it != stat_table.end() ? it->second : 64;
  };
  // A quarter of the bytes: the greedy fill both takes and skips projects.
  const uint64_t budget = total_bytes / 4;
  const std::set<PathId> always;

  HoardManager scratch(budget);
  scratch.set_incremental_fill(false);
  scratch.ChooseHoard(*correlator, clusters, always, size_of);  // size the scratch vectors
  const double scratch_us = BestMicros(kFillReps, [&] {
    benchmark::DoNotOptimize(scratch.ChooseHoard(*correlator, clusters, always, size_of));
  });

  HoardManager warm(budget);
  warm.ChooseHoard(*correlator, clusters, always, size_of);  // prime the cache
  Time t = 1'000'000'000;
  double warm_us = 1e18;
  for (int rep = 0; rep < kFillReps; ++rep) {
    // The touch is ingest work: it stays outside the timed fill.
    for (int f = rep; f < kCheckFiles; f += 100) {
      FileReference ref;
      ref.pid = 1'000'000 + rep;
      ref.kind = RefKind::kPoint;
      ref.path = GlobalPaths().Intern("/p" + std::to_string(f / 16) + "/f" +
                                      std::to_string(f % 16));
      ref.time = (t += 1000);
      correlator->OnReference(ref);
    }
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(warm.ChooseHoard(*correlator, clusters, always, size_of));
    warm_us = std::min(warm_us, MicrosSince(start));
  }
  const double ratio = scratch_us > 0 ? warm_us / scratch_us : 1.0;
  const bool pass = warm.last_fill_stats().incremental && ratio <= 0.25;
  std::printf("%s incremental fill: %.0f us after a 1%% touch vs scratch %.0f us over %zu "
              "clusters (%.3fx, check <= 0.25x)\n",
              pass ? "PASS" : "FAIL", warm_us, scratch_us, clusters.clusters.size(), ratio);
  return pass;
}

}  // namespace
}  // namespace seer

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\nself-checks (%d files):\n", seer::kCheckFiles);
  const bool seal_ok = seer::CheckSealStall();
  const bool fill_ok = seer::CheckIncrementalFill();
  return seal_ok && fill_ok ? 0 : 1;
}
