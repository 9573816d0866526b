// Steady-state allocation bounds for the hot paths. Allocation counts do
// not depend on timing or core count, so these hold on any host and under
// every sanitizer:
//
//   * warm batched ingest (Correlator::IngestBatch) allocates nothing per
//     reference;
//   * the per-syscall producer path (an InstrumentedSink stage into an
//     AsyncCorrelator's ring) allocates nothing per reference;
//   * warm zero-copy wire decode (FrameDecoder::NextView into a reused
//     wire::EventArena) allocates nothing per frame;
//   * a warm incremental hoard fill allocates fewer times than there are
//     clusters (a whole-project fill that walks members into a std::set
//     allocates several times per cluster).
//
// This file is its own test binary because it replaces the global
// operator new with a counting one; the counter is thread-local, so
// gtest's own threads and bookkeeping never bill a measured window.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/async_pipeline.h"
#include "src/core/correlator.h"
#include "src/core/hoard.h"
#include "src/observer/sink_chain.h"
#include "src/server/wire.h"
#include "src/util/path_interner.h"

namespace {
thread_local bool t_counting = false;
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (t_counting) {
    ++t_allocations;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace seer {
namespace {

// Allocations made on this thread while `fn` runs.
template <typename Fn>
uint64_t CountAllocations(const Fn& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

// Realistic-length absolute paths: longer than the small-string buffer,
// so a per-reference path copy could not hide in it.
std::string LongPath(int f) {
  return "/home/user/projects/project" + std::to_string(f / 16) + "/src/module/file" +
         std::to_string(f % 16) + "_" + std::to_string(f) + ".c";
}

// 1,024 paths referenced round-robin across 8 process streams, 16 passes.
TEST(SteadyStateAllocs, WarmIngestBatchAllocatesNothingPerReference) {
  constexpr int kFiles = 1024;
  constexpr int kStreams = 8;
  constexpr int kPasses = 16;
  std::vector<IngestEvent> events;
  events.reserve(static_cast<size_t>(kFiles) * kPasses);
  Time t = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int f = 0; f < kFiles; ++f) {
      IngestEvent e;
      e.kind = IngestEvent::Kind::kReference;
      e.ref.pid = 1 + static_cast<Pid>(f % kStreams);
      e.ref.kind = RefKind::kPoint;
      e.ref.path = GlobalPaths().Intern(LongPath(f));
      e.ref.time = ++t;
      e.time = e.ref.time;
      events.push_back(e);
    }
  }

  Correlator correlator;
  constexpr size_t kBatch = 1024;
  const auto replay = [&] {
    for (size_t i = 0; i < events.size(); i += kBatch) {
      correlator.IngestBatch(events.data() + i, std::min(kBatch, events.size() - i));
    }
  };
  // Warm-up: the file table, relation stripes and per-stream windows reach
  // their steady-state capacity.
  replay();
  const uint64_t allocations = CountAllocations(replay);
  EXPECT_EQ(0u, allocations) << "over " << events.size() << " references";
  EXPECT_EQ(static_cast<size_t>(kFiles), correlator.files().size());
}

// The producer side seerctl and the daemon drive per traced syscall:
// SinkChain stage -> AsyncCorrelator::OnReference -> ring enqueue. The
// counter is thread-local, so the worker's ingest is not billed here.
TEST(SteadyStateAllocs, WarmAsyncProducerAllocatesNothingPerReference) {
  constexpr int kFiles = 1024;
  constexpr int kPasses = 8;
  std::vector<PathId> ids;
  ids.reserve(kFiles);
  for (int f = 0; f < kFiles; ++f) {
    ids.push_back(GlobalPaths().Intern(LongPath(f)));
  }
  // A ring larger than the measured window: the producer never waits on
  // the worker.
  AsyncCorrelator correlator(SeerParams{}, 0x5ee8,
                             /*queue_capacity=*/static_cast<size_t>(kFiles) * (kPasses + 1));
  SinkChain chain(&correlator);
  chain.Instrument("observer");
  ReferenceSink* sink = chain.head();
  Time t = 0;
  const auto pass = [&] {
    for (int f = 0; f < kFiles; ++f) {
      FileReference ref;
      ref.pid = 1;
      ref.kind = RefKind::kPoint;
      ref.path = ids[f];
      ref.time = ++t;
      sink->OnReference(ref);
    }
  };
  pass();
  correlator.Drain();

  const uint64_t allocations = CountAllocations([&] {
    for (int p = 0; p < kPasses; ++p) {
      pass();
    }
  });
  correlator.Drain();
  EXPECT_EQ(0u, allocations) << "over " << kFiles * kPasses << " references";
  EXPECT_EQ(static_cast<size_t>(kFiles) * (kPasses + 1), correlator.processed());
  EXPECT_EQ(static_cast<uint64_t>(kFiles) * (kPasses + 1),
            chain.instrumented().front()->counters().references);
}

// One kEvents frame of 4,096 open/close events over 512 paths.
TEST(SteadyStateAllocs, WarmArenaDecodeAllocatesNothingPerFrame) {
  constexpr size_t kRefs = 2048;
  constexpr int kFrames = 50;
  std::vector<TraceEvent> events;
  events.reserve(2 * kRefs);
  for (size_t i = 0; i < kRefs; ++i) {
    TraceEvent open;
    open.seq = 2 * i;
    open.time = static_cast<Time>(i + 1) * kMicrosPerSecond / 8;
    open.pid = 1 + static_cast<Pid>(i % 3);
    open.op = Op::kOpen;
    open.path = "/fleet/f" + std::to_string((i * 7919) % 512);
    open.fd = static_cast<Fd>(1000 + i);
    TraceEvent close = open;
    close.seq = 2 * i + 1;
    close.op = Op::kClose;
    close.path.clear();
    events.push_back(std::move(open));
    events.push_back(std::move(close));
  }
  const std::string frame =
      wire::EncodeFrame(wire::FrameType::kEvents, 1, wire::EncodeEvents(events));

  wire::FrameDecoder decoder;
  wire::EventArena arena;
  size_t decoded_events = 0;
  bool ok = true;
  const auto decode_one = [&] {
    decoder.Append(frame);
    StatusOr<std::optional<wire::FrameView>> view = decoder.NextView();
    if (!view.ok() || !view->has_value() || !arena.Decode((*view)->payload).ok()) {
      ok = false;
      return;
    }
    decoded_events = arena.events().size();
  };
  // Warm-up: every path interned, the decoder buffer and arena vectors
  // sized.
  decode_one();
  decode_one();
  ASSERT_TRUE(ok);

  const uint64_t allocations = CountAllocations([&] {
    for (int i = 0; i < kFrames; ++i) {
      decode_one();
    }
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(events.size(), decoded_events);
  EXPECT_EQ(0u, allocations) << "over " << kFrames << " frames";
}

// 16,384 files in 16-file projects, one process stream per project: 1,024
// project clusters. The manager is warm and 1% of the files were touched
// since its last fill.
TEST(SteadyStateAllocs, WarmHoardFillAllocatesLessThanOncePerCluster) {
  constexpr int kFiles = 16384;
  constexpr int kFilesPerProject = 16;
  Correlator correlator;
  const auto reference = [&](int f, Pid pid, Time time) {
    const int project = f / kFilesPerProject;
    FileReference ref;
    ref.pid = pid;
    ref.kind = RefKind::kPoint;
    ref.path = GlobalPaths().Intern("/fill/p" + std::to_string(project) + "/f" +
                                    std::to_string(f % kFilesPerProject));
    ref.time = time;
    correlator.OnReference(ref);
  };
  Time t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int f = 0; f < kFiles; ++f) {
      reference(f, 1 + static_cast<Pid>(f / kFilesPerProject), t += 1000);
    }
  }
  const ClusterSet clusters = correlator.BuildClusters();
  ASSERT_EQ(static_cast<size_t>(kFiles / kFilesPerProject), clusters.clusters.size());

  const auto size_of = [](PathId p) -> uint64_t {
    return 64 + (static_cast<uint64_t>(p) * 2654435761ull) % 512;
  };
  uint64_t total_bytes = 0;
  for (FileId id = 0; id < correlator.files().size(); ++id) {
    total_bytes += size_of(correlator.files().Get(id).path);
  }
  // A quarter of the bytes: the greedy fill both takes and skips projects.
  HoardManager manager(total_bytes / 4);
  const std::set<PathId> always;
  manager.ChooseHoard(correlator, clusters, always, size_of);
  manager.ChooseHoard(correlator, clusters, always, size_of);

  // Touch 1% of the files; the clusters are not rebuilt, so only recency
  // moved.
  for (int f = 0; f < kFiles; f += 100) {
    reference(f, 1'000'000, t += 1000);
  }
  HoardSelection selection;
  const uint64_t allocations = CountAllocations(
      [&] { selection = manager.ChooseHoard(correlator, clusters, always, size_of); });

  const HoardFillStats& stats = manager.last_fill_stats();
  ASSERT_TRUE(stats.incremental);
  EXPECT_GT(stats.reused_aggregates, stats.dirty_clusters);
  EXPECT_GT(selection.projects_hoarded, 0u);
  EXPECT_GT(selection.projects_skipped, 0u);
  EXPECT_LT(allocations, clusters.clusters.size())
      << "a warm fill of " << clusters.clusters.size() << " clusters";
}

}  // namespace
}  // namespace seer
