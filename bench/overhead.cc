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
// In addition to the interactive tables, the binary always writes
// BENCH_overhead.json: ns/reference and allocations/reference for the old
// string-identity data plane (emulated) versus the interned-PathId plane,
// plus the async queue's high-water mark, so future changes have a
// machine-readable perf trajectory to compare against.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <unordered_map>

#include <filesystem>

#include "bench/bench_util.h"
#include "src/core/async_pipeline.h"
#include "src/core/correlator.h"
#include "src/core/hoard.h"
#include "src/core/snapshot_codec.h"
#include "src/core/snapshot_store.h"
#include "src/core/wal.h"
#include "src/util/fs.h"
#include "src/observer/observer.h"
#include "src/observer/sink_chain.h"
#include "src/process/syscall_tracer.h"
#include "src/workload/environment.h"
#include "src/workload/user_model.h"

// --- allocation counting -----------------------------------------------------
//
// Per-thread counter bumped by the replaced global operator new. Thread-local
// so the producer side of the async pipeline can be measured in isolation:
// the consumer thread's table updates are allowed to allocate, the enqueue
// path is not.
namespace {
std::atomic<bool> g_count_allocations{false};
thread_local uint64_t t_allocation_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    ++t_allocation_count;
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    ++t_allocation_count;
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
// linearly — see also bench/clustering_scale).
void BM_BuildClusters(benchmark::State& state) {
  const int n_files = static_cast<int>(state.range(0));
  auto correlator = LoadedCorrelator(n_files);
  for (auto _ : state) {
    benchmark::DoNotOptimize(correlator->BuildClusters());
  }
  state.SetComplexityN(n_files);
}
BENCHMARK(BM_BuildClusters)->Range(1 << 8, 1 << 14)->Complexity(benchmark::oN);

// Hoard selection on top of clustering.
void BM_ChooseHoard(benchmark::State& state) {
  auto correlator = LoadedCorrelator(4096);
  const ClusterSet clusters = correlator->BuildClusters();
  HoardManager manager(64ull << 20);
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

// --- BENCH_overhead.json -----------------------------------------------------

constexpr int kJsonFiles = 1024;       // distinct paths in the working set
constexpr int kJsonPasses = 64;        // measured references = files * passes

// Realistic-length absolute paths: long enough that the string plane's
// per-reference copy cannot hide in the small-string optimisation.
std::string JsonPath(int f) {
  return "/home/user/projects/project" + std::to_string(f / 16) + "/src/module/file" +
         std::to_string(f % 16) + "_" + std::to_string(f) + ".c";
}

struct PlaneCost {
  double ns_per_reference = 0.0;
  double allocations_per_reference = 0.0;
};

// Emulates the pre-refactor data plane: every reference carries its path as
// a std::string across the sink boundary, and the consumer resolves file
// identity with a string-keyed hash map. The measured loop is the producer
// side: build the message (string copy), queue it (mutex + deque of
// string-bearing messages), resolve identity by string hash.
PlaneCost MeasureStringPlane() {
  struct StringMessage {
    Pid pid = 0;
    std::string path;
    Time time = 0;
  };
  std::unordered_map<std::string, uint32_t> identity;
  std::mutex queue_mutex;
  std::deque<StringMessage> queue;
  uint32_t next_id = 0;

  // Warm-up pass: identity map fully populated, as in steady state.
  for (int f = 0; f < kJsonFiles; ++f) {
    identity.emplace(JsonPath(f), next_id++);
  }

  const auto start = std::chrono::steady_clock::now();
  t_allocation_count = 0;
  g_count_allocations.store(true, std::memory_order_relaxed);
  uint64_t sink = 0;
  for (int pass = 0; pass < kJsonPasses; ++pass) {
    for (int f = 0; f < kJsonFiles; ++f) {
      StringMessage m;
      m.pid = 1;
      m.path = JsonPath(f);  // the per-reference string copy of the old plane
      m.time = static_cast<Time>(pass) * kJsonFiles + f;
      sink += identity.find(m.path)->second;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        queue.push_back(std::move(m));
        if (queue.size() > 64) {
          queue.pop_front();
        }
      }
    }
  }
  g_count_allocations.store(false, std::memory_order_relaxed);
  const uint64_t allocations = t_allocation_count;
  const auto stop = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);

  const double refs = static_cast<double>(kJsonFiles) * kJsonPasses;
  PlaneCost cost;
  cost.ns_per_reference =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
      refs;
  cost.allocations_per_reference = static_cast<double>(allocations) / refs;
  return cost;
}

// The interned plane as actually shipped: references carry PathIds through
// an instrumented sink chain into the async correlator's ring buffer. The
// measured loop is the producer side only — exactly the cost added to a
// traced syscall; the worker thread's table updates happen concurrently.
// Returns the cost plus the queue high-water mark over the run.
PlaneCost MeasureIdPlane(size_t* high_water, size_t* queue_capacity) {
  // Queue sized above the measured reference count: the producer is never
  // blocked by backpressure, so the measurement is the enqueue cost itself
  // and the high-water mark shows how far the worker actually lagged.
  AsyncCorrelator correlator(SeerParams{}, 0x5ee8,
                             /*queue_capacity=*/size_t{kJsonFiles} * (kJsonPasses + 1));
  SinkChain chain(&correlator);
  chain.Instrument("observer", /*measure_latency=*/false);
  ReferenceSink* sink = chain.head();

  std::vector<PathId> ids;
  ids.reserve(kJsonFiles);
  for (int f = 0; f < kJsonFiles; ++f) {
    ids.push_back(GlobalPaths().Intern(JsonPath(f)));
  }

  // Warm-up pass: file table, relation lists and per-process stream reach
  // steady state, then the queue drains fully.
  for (int f = 0; f < kJsonFiles; ++f) {
    FileReference ref;
    ref.pid = 1;
    ref.kind = RefKind::kPoint;
    ref.path = ids[f];
    ref.time = f + 1;
    sink->OnReference(ref);
  }
  correlator.Drain();

  const auto start = std::chrono::steady_clock::now();
  t_allocation_count = 0;
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (int pass = 0; pass < kJsonPasses; ++pass) {
    for (int f = 0; f < kJsonFiles; ++f) {
      FileReference ref;
      ref.pid = 1;
      ref.kind = RefKind::kPoint;
      ref.path = ids[f];
      ref.time = static_cast<Time>(kJsonFiles) * (pass + 1) + f;
      sink->OnReference(ref);
    }
  }
  g_count_allocations.store(false, std::memory_order_relaxed);
  const uint64_t allocations = t_allocation_count;
  const auto stop = std::chrono::steady_clock::now();
  correlator.Drain();

  *high_water = correlator.high_watermark();
  *queue_capacity = correlator.queue_capacity();

  const double refs = static_cast<double>(kJsonFiles) * kJsonPasses;
  PlaneCost cost;
  cost.ns_per_reference =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
      refs;
  cost.allocations_per_reference = static_cast<double>(allocations) / refs;
  return cost;
}

// Durability cost: what a checkpoint (snapshot encode + atomic write +
// fsync + WAL rotation), a WAL append, and crash replay actually cost, so
// the recovery subsystem's overhead is tracked alongside the data plane's.
struct DurabilityCost {
  double checkpoint_ms = 0.0;
  double snapshot_bytes = 0.0;
  double wal_append_ns_per_record = 0.0;
  double wal_replay_ns_per_record = 0.0;
};

DurabilityCost MeasureDurability() {
  DurabilityCost cost;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "seer_bench_overhead_store").string();
  std::filesystem::remove_all(dir);
  RealFs fs;
  SnapshotStore store(&fs, dir);
  if (!store.Open().ok()) {
    return cost;
  }
  auto correlator = LoadedCorrelator(4096);
  cost.snapshot_bytes = static_cast<double>(correlator->EncodeSnapshot().size());

  // Checkpoint: averaged over a few rounds (each snapshots, rotates the
  // WAL, and prunes — the full periodic-checkpoint path).
  constexpr int kCheckpoints = 5;
  const auto cp_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kCheckpoints; ++i) {
    const auto result = store.Checkpoint(*correlator);
    if (!result.ok()) {
      return cost;
    }
  }
  const auto cp_stop = std::chrono::steady_clock::now();
  cost.checkpoint_ms =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(cp_stop - cp_start).count()) /
      1000.0 / kCheckpoints;

  // WAL append throughput, through the real filesystem (buffered appends +
  // one fsync at the end, as the daemon does between checkpoints).
  constexpr int kWalRecords = 50'000;
  WalWriter writer(&fs, dir + "/bench-wal", 1);
  if (!writer.Create().ok()) {
    return cost;
  }
  std::vector<PathId> ids;
  ids.reserve(kJsonFiles);
  for (int f = 0; f < kJsonFiles; ++f) {
    ids.push_back(GlobalPaths().Intern(JsonPath(f)));
  }
  const auto wal_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kWalRecords; ++i) {
    FileReference ref;
    ref.pid = 1;
    ref.kind = RefKind::kPoint;
    ref.path = ids[i % kJsonFiles];
    ref.time = i + 1;
    (void)writer.AppendReference(ref);
  }
  (void)writer.Sync();
  const auto wal_stop = std::chrono::steady_clock::now();
  cost.wal_append_ns_per_record =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wal_stop - wal_start).count()) /
      kWalRecords;

  // Replay: the recovery path's cost per logged record.
  const auto bytes = fs.ReadFile(dir + "/bench-wal");
  if (bytes.ok()) {
    Correlator replayed;
    const auto replay_start = std::chrono::steady_clock::now();
    const auto stats = ReplayWal(*bytes, &replayed);
    const auto replay_stop = std::chrono::steady_clock::now();
    if (stats.ok() && stats->records_applied > 0) {
      cost.wal_replay_ns_per_record =
          static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                  replay_stop - replay_start)
                                  .count()) /
          static_cast<double>(stats->records_applied);
    }
  }
  std::filesystem::remove_all(dir);
  return cost;
}

// ---------------------------------------------------------------------------
// Checkpoint plane: what ingest actually stalls for under the async
// checkpoint path (the seal — an owning copy of the state) versus what the
// old synchronous path stalled for (the whole encode), plus the
// delta-snapshot byte economics after a 1% working-set touch. These are
// the acceptance numbers for the stall-free checkpoint plane.
// ---------------------------------------------------------------------------

struct CheckpointPlaneCost {
  int files = 0;
  double seal_us = 0.0;             // ingest stall in the async plane
  double encode_serial_us = 0.0;    // old plane's stall: full sync encode
  double full_bytes = 0.0;
  double delta_bytes = 0.0;  // delta snapshot after touching 1% of files
  double delta_ratio = 0.0;
  double stall_reduction = 0.0;  // encode_serial / seal
};

CheckpointPlaneCost MeasureCheckpointPlane() {
  constexpr int kFiles = 16384;
  auto correlator = LoadedCorrelator(kFiles);

  const auto us_between = [](std::chrono::steady_clock::time_point a,
                             std::chrono::steady_clock::time_point b) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
  };

  CheckpointPlaneCost cost;
  cost.files = kFiles;

  // Best of a few repetitions for each timed phase: one-shot numbers on a
  // shared CI runner are noisy, and it's the achievable floor the stall
  // comparison is about.
  constexpr int kReps = 3;
  SealedSnapshot seal;
  cost.seal_us = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto seal_begin = std::chrono::steady_clock::now();
    SealedSnapshot attempt = correlator->SealSnapshot();
    const auto seal_end = std::chrono::steady_clock::now();
    cost.seal_us = std::min(cost.seal_us, us_between(seal_begin, seal_end));
    seal = std::move(attempt);
  }

  std::string serial;
  cost.encode_serial_us = 1e18;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto serial_begin = std::chrono::steady_clock::now();
    serial = EncodeSealedSnapshot(seal);
    const auto serial_end = std::chrono::steady_clock::now();
    cost.encode_serial_us = std::min(cost.encode_serial_us, us_between(serial_begin, serial_end));
  }
  cost.full_bytes = static_cast<double>(serial.size());

  // Touch ~1% of the files (one project neighborhood — the locality a real
  // working set has) and seal a delta against the full snapshot's cut.
  Time t = 1'000'000'000;
  for (int f = 0; f < kFiles / 100; ++f) {
    const int project = f / 16;
    FileReference ref;
    ref.pid = 1 + project;
    ref.kind = RefKind::kPoint;
    ref.path =
        GlobalPaths().Intern("/p" + std::to_string(project) + "/f" + std::to_string(f % 16));
    ref.time = (t += 1000);
    correlator->OnReference(ref);
  }
  Correlator::SealRequest req;
  req.delta = true;
  req.base_generation = 1;
  req.relation_epoch = seal.relation_epoch;
  req.stream_epoch = seal.stream_epoch;
  const SealedSnapshot delta_seal = correlator->SealSnapshot(req);
  const std::string delta = EncodeSealedSnapshot(delta_seal);
  cost.delta_bytes = static_cast<double>(delta.size());
  cost.delta_ratio = cost.full_bytes > 0 ? cost.delta_bytes / cost.full_bytes : 0.0;
  cost.stall_reduction = cost.seal_us > 0 ? cost.encode_serial_us / cost.seal_us : 0.0;
  return cost;
}

// ---------------------------------------------------------------------------
// Ingest throughput: batched ingest through Correlator::IngestBatch, plus a
// microbench of the slab neighbor layout against the pre-refactor
// vector-of-vectors layout.
// ---------------------------------------------------------------------------

constexpr int kIngestStreams = 8;   // distinct pids in the trace
constexpr int kIngestPasses = 16;   // ingested refs = kJsonFiles * kIngestPasses

// A pure-reference trace spread round-robin across kIngestStreams process
// streams.
std::vector<IngestEvent> BuildIngestTrace() {
  std::vector<PathId> ids;
  ids.reserve(kJsonFiles);
  for (int f = 0; f < kJsonFiles; ++f) {
    ids.push_back(GlobalPaths().Intern(JsonPath(f)));
  }
  std::vector<IngestEvent> events;
  events.reserve(static_cast<size_t>(kJsonFiles) * kIngestPasses);
  Time t = 0;
  for (int pass = 0; pass < kIngestPasses; ++pass) {
    for (int f = 0; f < kJsonFiles; ++f) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kReference;
      e.ref.pid = 1 + static_cast<Pid>(f % kIngestStreams);
      e.ref.kind = RefKind::kPoint;
      e.ref.path = ids[f];
      e.ref.time = ++t;
      e.time = e.ref.time;
      events.push_back(e);
    }
  }
  return events;
}

struct IngestCost {
  double refs_per_sec = 0.0;
  double allocs_per_ref = 0.0;
};

IngestCost MeasureIngestThroughput(const std::vector<IngestEvent>& events) {
  Correlator correlator;
  constexpr size_t kBatch = 1024;
  const auto replay = [&] {
    for (size_t i = 0; i < events.size(); i += kBatch) {
      const size_t n = std::min<size_t>(kBatch, events.size() - i);
      correlator.IngestBatch(events.data() + i, n);
    }
  };
  // Warm-up pass: file table, slab stripes and per-stream windows all
  // reach steady-state capacity before we measure.
  replay();

  t_allocation_count = 0;
  g_count_allocations.store(true, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  replay();
  const auto stop = std::chrono::steady_clock::now();
  g_count_allocations.store(false, std::memory_order_relaxed);
  const uint64_t allocations = t_allocation_count;

  const double refs = static_cast<double>(events.size());
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
  IngestCost cost;
  cost.refs_per_sec = ns > 0 ? refs * 1e9 / ns : 0.0;
  cost.allocs_per_ref = static_cast<double>(allocations) / refs;
  return cost;
}

// The pre-refactor neighbor storage: one heap-allocated std::vector<Neighbor>
// per file, running the SAME paper semantics as the shipped slab — the
// deleted-neighbor scan (whole-FileRecord loads, as the old code did), the
// farthest-mean replacement with a reservoir tie-break, the aging priority,
// means recomputed from the accumulators on every replacement scan, plus
// the reverse index and set-change epoch stamps the real table maintains on
// every membership change. Replays the same observation stream as the slab
// table below, so the two measure identical work on different layouts.
class LegacyNeighborTable {
 public:
  LegacyNeighborTable(const SeerParams& params, const FileTable* files)
      : params_(params), files_(files), rng_(0x1e9ac1) {}

  void Observe(FileId from, FileId to, double distance) {
    if (from == to) {
      return;
    }
    ++update_count_;
    if (lists_.size() <= from) {
      lists_.resize(from + 1);
    }
    auto& list = lists_[from];
    const double floored =
        distance > 0 ? distance : params_.geometric_zero_floor;
    const double log_d = std::log(floored);
    for (auto& n : list) {
      if (n.id == to) {
        n.log_sum += log_d;
        n.linear_sum += distance;
        ++n.observations;
        n.last_update = update_count_;
        return;
      }
    }
    Neighbor cand;
    cand.id = to;
    cand.log_sum = log_d;
    cand.linear_sum = distance;
    cand.observations = 1;
    cand.last_update = update_count_;
    if (list.size() < static_cast<size_t>(params_.max_neighbors)) {
      list.push_back(cand);
      Stamp(from);
      RevAdd(from, to);
      return;
    }
    if (list.empty()) {
      return;
    }
    // Priority 1: a neighbor marked for deletion (FileRecord load per
    // entry — the pointer-chase the packed liveness bytes replaced).
    for (size_t i = 0; i < list.size(); ++i) {
      if (files_->Get(list[i].id).deleted) {
        RevRemove(from, list[i].id);
        list[i] = cand;
        Stamp(from);
        RevAdd(from, to);
        return;
      }
    }
    // Priority 2: farthest mean, reservoir tie-break.
    size_t worst = 0;
    double worst_dist = -1.0;
    size_t ties = 0;
    for (size_t i = 0; i < list.size(); ++i) {
      const double d = list[i].MeanDistance(params_.mean_kind);
      if (d > worst_dist) {
        worst_dist = d;
        worst = i;
        ties = 1;
      } else if (d == worst_dist) {
        ++ties;
        if (rng_() % ties == 0) {
          worst = i;
        }
      }
    }
    if (worst_dist > cand.MeanDistance(params_.mean_kind)) {
      RevRemove(from, list[worst].id);
      list[worst] = cand;
      Stamp(from);
      RevAdd(from, to);
      return;
    }
    // Priority 3: aging.
    size_t oldest = 0;
    uint64_t oldest_update = UINT64_MAX;
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i].last_update < oldest_update) {
        oldest_update = list[i].last_update;
        oldest = i;
      }
    }
    if (update_count_ - oldest_update > params_.aging_updates) {
      RevRemove(from, list[oldest].id);
      list[oldest] = cand;
      Stamp(from);
      RevAdd(from, to);
    }
  }

 private:
  void Stamp(FileId f) {
    if (set_stamp_.size() <= f) {
      set_stamp_.resize(f + 1, 0);
    }
    set_stamp_[f] = ++epoch_;
  }
  void RevAdd(FileId from, FileId to) {
    if (reverse_.size() <= to) {
      reverse_.resize(to + 1);
    }
    reverse_[to].push_back(from);
  }
  void RevRemove(FileId from, FileId to) {
    if (to >= reverse_.size()) {
      return;
    }
    auto& owners = reverse_[to];
    for (size_t i = 0; i < owners.size(); ++i) {
      if (owners[i] == from) {
        owners[i] = owners.back();
        owners.pop_back();
        return;
      }
    }
  }

  SeerParams params_;
  const FileTable* files_;
  std::mt19937_64 rng_;
  std::vector<std::vector<Neighbor>> lists_;
  std::vector<std::vector<FileId>> reverse_;
  std::vector<uint64_t> set_stamp_;
  uint64_t epoch_ = 0;
  uint64_t update_count_ = 0;
};

struct LayoutCost {
  double legacy_ns_per_obs = 0.0;       // warm: lists at capacity
  uint64_t legacy_build_allocations = 0;  // cold: growing every list from empty
  double slab_ns_per_obs = 0.0;
  uint64_t slab_build_allocations = 0;
};

LayoutCost MeasureNeighborLayouts() {
  // One observation stream for both layouts: folds dominate, but each file
  // accumulates more distinct neighbors than max_neighbors fits, so the
  // replacement scan (the mean-recompute hot spot) runs steadily too.
  struct Obs {
    FileId from;
    FileId to;
    double distance;
  };
  constexpr int kFiles = 512;
  constexpr int kRounds = 48;
  std::vector<Obs> stream;
  stream.reserve(static_cast<size_t>(kFiles) * kRounds * 8);
  for (int r = 0; r < kRounds; ++r) {
    for (int f = 0; f < kFiles; ++f) {
      for (int k = 1; k <= 8; ++k) {
        Obs o;
        o.from = static_cast<FileId>(f);
        // Five stride classes spread each file's candidates over ~27
        // distinct neighbors — past the 20-entry cap, so the warm pass
        // keeps a steady mix of in-place folds and replacement scans
        // rather than degenerating to pure folds.
        o.to = static_cast<FileId>((f + k * (r % 5 + 1)) % kFiles);
        o.distance = static_cast<double>(k * 7 + r % 11);
        stream.push_back(o);
      }
    }
  }

  const SeerParams params;
  LayoutCost cost;
  const double n = static_cast<double>(stream.size());

  // One shared file table: both layouts consult the same liveness source in
  // their deleted-neighbor scans (record loads for the legacy emulation,
  // packed flag bytes for the slab).
  FileTable files;
  for (int f = 0; f < kFiles; ++f) {
    files.Intern(GlobalPaths().Intern("/bench/layout/file" + std::to_string(f)));
  }

  // Both layouts reach zero allocations once at capacity, so allocation cost
  // is counted over the cold build (every neighbor list growing from empty —
  // the cost a growing trace pays continuously as new files appear), while
  // ns/obs is measured warm. The emulation runs the full replacement
  // priority chain, so ns/obs and the allocation counts are both
  // like-for-like comparisons of the two layouts.
  {
    LegacyNeighborTable legacy(params, &files);
    t_allocation_count = 0;
    g_count_allocations.store(true, std::memory_order_relaxed);
    for (const auto& o : stream) {  // cold build: count list-growth allocations
      legacy.Observe(o.from, o.to, o.distance);
    }
    g_count_allocations.store(false, std::memory_order_relaxed);
    cost.legacy_build_allocations = t_allocation_count;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& o : stream) {  // warm: lists at capacity
      legacy.Observe(o.from, o.to, o.distance);
    }
    const auto stop = std::chrono::steady_clock::now();
    cost.legacy_ns_per_obs =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
        n;
  }

  {
    RelationTable slab(params, &files);
    t_allocation_count = 0;
    g_count_allocations.store(true, std::memory_order_relaxed);
    for (const auto& o : stream) {  // cold build: count slab-growth allocations
      slab.Observe(o.from, o.to, o.distance);
    }
    g_count_allocations.store(false, std::memory_order_relaxed);
    cost.slab_build_allocations = t_allocation_count;
    const auto start = std::chrono::steady_clock::now();
    for (const auto& o : stream) {  // warm: slab stripes sized
      slab.Observe(o.from, o.to, o.distance);
    }
    const auto stop = std::chrono::steady_clock::now();
    cost.slab_ns_per_obs =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count()) /
        n;
  }

  return cost;
}

void WriteOverheadJson() {
  const PlaneCost before = MeasureStringPlane();
  size_t high_water = 0;
  size_t queue_capacity = 0;
  const PlaneCost after = MeasureIdPlane(&high_water, &queue_capacity);
  const DurabilityCost durability = MeasureDurability();
  const CheckpointPlaneCost plane = MeasureCheckpointPlane();

  const std::vector<IngestEvent> trace = BuildIngestTrace();
  const IngestCost ingest = MeasureIngestThroughput(trace);
  const LayoutCost layout = MeasureNeighborLayouts();
  // This bench sweeps no thread counts. tools/bench_compare.py still runs
  // the slab-layout timing gate only where "scaling_valid" holds, and that
  // flag has always been computed for an 8-wide host; it is kept as it was
  // so this bench does not change when that gate runs.
  constexpr int kTimingGateCpus = 8;

  const char* path = "BENCH_overhead.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "overhead: cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"overhead\",\n");
  bench::WriteJsonMachineMeta(out);
  bench::WriteJsonScalingValid(out, kTimingGateCpus);
  std::fprintf(out, "  \"references\": %d,\n", kJsonFiles * kJsonPasses);
  std::fprintf(out, "  \"string_plane\": {\n");
  std::fprintf(out, "    \"ns_per_reference\": %.2f,\n", before.ns_per_reference);
  std::fprintf(out, "    \"allocations_per_reference\": %.4f\n",
               before.allocations_per_reference);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"id_plane\": {\n");
  std::fprintf(out, "    \"ns_per_reference\": %.2f,\n", after.ns_per_reference);
  std::fprintf(out, "    \"allocations_per_reference\": %.4f\n",
               after.allocations_per_reference);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"queue_high_water_mark\": %zu,\n", high_water);
  std::fprintf(out, "  \"queue_capacity\": %zu,\n", queue_capacity);
  std::fprintf(out, "  \"checkpoint\": {\n");
  std::fprintf(out, "    \"snapshot_ms\": %.3f,\n", durability.checkpoint_ms);
  std::fprintf(out, "    \"snapshot_bytes\": %.0f,\n", durability.snapshot_bytes);
  std::fprintf(out, "    \"wal_append_ns_per_record\": %.2f,\n",
               durability.wal_append_ns_per_record);
  std::fprintf(out, "    \"wal_replay_ns_per_record\": %.2f\n",
               durability.wal_replay_ns_per_record);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"checkpoint_plane\": {\n");
  std::fprintf(out, "    \"files\": %d,\n", plane.files);
  std::fprintf(out, "    \"seal_stall_us\": %.1f,\n", plane.seal_us);
  std::fprintf(out, "    \"encode_serial_us\": %.1f,\n", plane.encode_serial_us);
  std::fprintf(out, "    \"full_bytes\": %.0f,\n", plane.full_bytes);
  std::fprintf(out, "    \"delta_bytes_1pct_touch\": %.0f,\n", plane.delta_bytes);
  std::fprintf(out, "    \"delta_ratio_1pct_touch\": %.4f,\n", plane.delta_ratio);
  std::fprintf(out, "    \"stall_reduction\": %.1f\n", plane.stall_reduction);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"ingest\": {\n");
  std::fprintf(out, "    \"refs\": %zu,\n", trace.size());
  std::fprintf(out, "    \"streams\": %d,\n", kIngestStreams);
  std::fprintf(out, "    \"refs_per_sec\": %.0f,\n", ingest.refs_per_sec);
  std::fprintf(out, "    \"allocs_per_ref\": %.4f,\n", ingest.allocs_per_ref);
  std::fprintf(out, "    \"neighbor_layout\": {\n");
  std::fprintf(out, "      \"legacy_ns_per_obs\": %.2f,\n", layout.legacy_ns_per_obs);
  std::fprintf(out, "      \"legacy_build_allocations\": %llu,\n",
               static_cast<unsigned long long>(layout.legacy_build_allocations));
  std::fprintf(out, "      \"slab_ns_per_obs\": %.2f,\n", layout.slab_ns_per_obs);
  std::fprintf(out, "      \"slab_build_allocations\": %llu\n",
               static_cast<unsigned long long>(layout.slab_build_allocations));
  std::fprintf(out, "    }\n");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);

  std::printf("\nwrote %s:\n", path);
  std::printf("  string plane (emulated): %8.1f ns/ref  %6.3f allocs/ref\n",
              before.ns_per_reference, before.allocations_per_reference);
  std::printf("  id plane     (shipped):  %8.1f ns/ref  %6.3f allocs/ref\n",
              after.ns_per_reference, after.allocations_per_reference);
  std::printf("  queue high-water mark: %zu / %zu\n", high_water, queue_capacity);
  std::printf("  checkpoint: %.2f ms (%.0f byte snapshot)  WAL append %.0f ns/rec  replay %.0f ns/rec\n",
              durability.checkpoint_ms, durability.snapshot_bytes,
              durability.wal_append_ns_per_record, durability.wal_replay_ns_per_record);
  std::printf(
      "  checkpoint plane (%d files): seal stall %.0f us vs serial encode %.0f us "
      "(%.1fx smaller)\n",
      plane.files, plane.seal_us, plane.encode_serial_us, plane.stall_reduction);
  std::printf("    delta after 1%% touch: %.0f B of %.0f B full (ratio %.3f)\n",
              plane.delta_bytes, plane.full_bytes, plane.delta_ratio);
  std::printf("  ingest (%zu refs, %d streams): %10.0f refs/sec  %6.3f allocs/ref\n",
              trace.size(), kIngestStreams, ingest.refs_per_sec, ingest.allocs_per_ref);
  std::printf("  neighbor layout: legacy %6.1f ns/obs (%llu build allocs)  |  slab %6.1f ns/obs (%llu build allocs)\n",
              layout.legacy_ns_per_obs,
              static_cast<unsigned long long>(layout.legacy_build_allocations),
              layout.slab_ns_per_obs,
              static_cast<unsigned long long>(layout.slab_build_allocations));
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
  seer::WriteOverheadJson();
  return 0;
}
