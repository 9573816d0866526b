// Determinism guarantees of the incremental clustering engine:
//
//   * the ClusterSet is bit-identical however many independent builders
//     run at once (scoring is pure per-edge; the union/emit order is
//     fixed);
//   * an incremental rebuild (cached edge buckets, dirty-set rescore, label
//     replay) produces exactly what a from-scratch full build produces,
//     including across deletes, renames, and exclusions;
//   * the kn/kf two-threshold semantics (combine vs overlap) survive the
//     flat-structure engine when driven through real relation-table rows
//     rather than the investigated-pair side channel.
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/clustering.h"
#include "src/core/correlator.h"

namespace seer {
namespace {

bool SameClusterSet(const ClusterSet& a, const ClusterSet& b) {
  if (a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].members != b.clusters[i].members) {
      return false;
    }
  }
  return a.membership_offset == b.membership_offset && a.membership_ids == b.membership_ids;
}

// One recorded event stream, replayable into any number of correlators so
// every instance sees byte-identical input.
struct Event {
  enum Kind { kRef, kDelete, kRename, kExclude } kind = kRef;
  Pid pid = 0;
  PathId path = kInvalidPathId;
  PathId to = kInvalidPathId;
  Time time = 0;
};

void Apply(Correlator* c, const std::vector<Event>& events) {
  for (const Event& e : events) {
    switch (e.kind) {
      case Event::kRef: {
        FileReference ref;
        ref.pid = e.pid;
        ref.kind = RefKind::kPoint;
        ref.path = e.path;
        ref.time = e.time;
        c->OnReference(ref);
        break;
      }
      case Event::kDelete:
        c->OnFileDeleted(e.path, e.time);
        break;
      case Event::kRename:
        c->OnFileRenamed(e.path, e.to, e.time);
        break;
      case Event::kExclude:
        c->OnFileExcluded(e.path);
        break;
    }
  }
}

PathId StreamPath(const std::string& ns, int i) {
  return GlobalPaths().Intern("/" + ns + "/p" + std::to_string(i / 12) + "/f" +
                              std::to_string(i % 12));
}

// A deterministic randomized reference round: `count` references over
// `files` paths spread across a handful of process streams.
std::vector<Event> RandomRefs(std::mt19937* rng, const std::string& ns, int files, int count,
                              Time* t) {
  std::uniform_int_distribution<int> file_dist(0, files - 1);
  std::uniform_int_distribution<int> pid_dist(1, 6);
  std::vector<Event> events;
  events.reserve(count);
  for (int i = 0; i < count; ++i) {
    Event e;
    e.kind = Event::kRef;
    e.pid = static_cast<Pid>(pid_dist(*rng));
    e.path = StreamPath(ns, file_dist(*rng));
    e.time = (*t += 500);
    events.push_back(e);
  }
  return events;
}

// Runs `threads` independent correlators at once, each applying `cold`
// and building, then applying `touch` and building again (the warm,
// incremental build). Builders share no mutable state beyond the
// thread-safe path interner, so every result must equal the serial one.
std::vector<std::pair<ClusterSet, ClusterSet>> ConcurrentBuilds(const std::vector<Event>& cold,
                                                               const std::vector<Event>& touch,
                                                               int threads) {
  std::vector<std::pair<ClusterSet, ClusterSet>> results(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&cold, &touch, &results, t] {
      Correlator c;
      Apply(&c, cold);
      results[static_cast<size_t>(t)].first = c.BuildClusters();
      Apply(&c, touch);
      results[static_cast<size_t>(t)].second = c.BuildClusters();
    });
  }
  for (std::thread& w : workers) w.join();
  return results;
}

// Identical streams into 1, 2 and 8 builders running at once must yield
// the serial ClusterSets — on the cold build and on a warm incremental one.
TEST(ClusterDeterminism, ThreadCountInvariance) {
  std::mt19937 rng(20260806);
  Time t = 0;
  const std::vector<Event> cold = RandomRefs(&rng, "tc", 96, 700, &t);
  const std::vector<Event> touch = RandomRefs(&rng, "tc", 96, 30, &t);

  Correlator serial;
  Apply(&serial, cold);
  const ClusterSet cold1 = serial.BuildClusters();
  ASSERT_FALSE(cold1.clusters.empty());
  Apply(&serial, touch);
  const ClusterSet warm1 = serial.BuildClusters();

  for (const int threads : {1, 2, 8}) {
    const auto got = ConcurrentBuilds(cold, touch, threads);
    for (size_t w = 0; w < got.size(); ++w) {
      EXPECT_TRUE(SameClusterSet(cold1, got[w].first)) << "threads=" << threads << " worker=" << w;
      EXPECT_TRUE(SameClusterSet(warm1, got[w].second)) << "threads=" << threads << " worker=" << w;
    }
  }
}

// Two correlators over the same randomized stream — one rebuilding
// incrementally, one forced to rescore everything — must agree after every
// round, including rounds with deletions, renames, and exclusions (the
// events that invalidate cached rows, candidate sets, and component
// labels). At least one round must actually take the incremental path, or
// the test would only be comparing full builds with themselves — so the
// stream has project locality (as real workloads do): a fully random
// stream dirties most of the table and always falls back to a full pass.
TEST(ClusterDeterminism, IncrementalMatchesFullAcrossRandomizedRounds) {
  std::mt19937 rng(97);
  Time t = 0;
  const int kFiles = 180;   // 15 projects of 12 files
  const int kProject = 12;

  Correlator incremental;
  Correlator scratch;
  scratch.SetIncrementalClustering(false);

  // Cold phase: one process stream per project, two passes — dense
  // in-project relations, none across projects.
  std::vector<Event> cold;
  for (int pass = 0; pass < 2; ++pass) {
    for (int f = 0; f < kFiles; ++f) {
      Event e;
      e.kind = Event::kRef;
      e.pid = static_cast<Pid>(1 + f / kProject);
      e.path = StreamPath("if", f);
      e.time = (t += 500);
      cold.push_back(e);
    }
  }
  Apply(&incremental, cold);
  Apply(&scratch, cold);
  EXPECT_TRUE(SameClusterSet(incremental.BuildClusters(), scratch.BuildClusters()));

  bool any_incremental = false;
  std::uniform_int_distribution<int> file_dist(0, kFiles - 1);
  std::uniform_int_distribution<int> project_dist(0, kFiles / kProject - 1);
  for (int round = 0; round < 10; ++round) {
    // A burst of work inside one randomly chosen project.
    const int base = project_dist(rng) * kProject;
    std::uniform_int_distribution<int> local(0, kProject - 1);
    std::vector<Event> events;
    for (int i = 0; i < 8; ++i) {
      Event e;
      e.kind = Event::kRef;
      e.pid = static_cast<Pid>(1 + base / kProject);
      e.path = StreamPath("if", base + local(rng));
      e.time = (t += 500);
      events.push_back(e);
    }
    if (round % 2 == 1) {
      Event del;
      del.kind = Event::kDelete;
      del.path = StreamPath("if", file_dist(rng));
      del.time = (t += 500);
      events.push_back(del);
    }
    if (round % 3 == 2) {
      Event ren;
      ren.kind = Event::kRename;
      ren.path = StreamPath("if", file_dist(rng));
      ren.to = GlobalPaths().Intern("/if/moved/r" + std::to_string(round));
      ren.time = (t += 500);
      events.push_back(ren);
    }
    if (round % 4 == 3) {
      Event ex;
      ex.kind = Event::kExclude;
      ex.path = StreamPath("if", file_dist(rng));
      events.push_back(ex);
    }
    Apply(&incremental, events);
    Apply(&scratch, events);

    const ClusterSet got = incremental.BuildClusters();
    const ClusterSet want = scratch.BuildClusters();
    EXPECT_TRUE(SameClusterSet(got, want)) << "round " << round;
    any_incremental = any_incremental || incremental.last_cluster_stats().incremental;
  }
  EXPECT_TRUE(any_incremental);
}

// kn/kf semantics through real relation rows: A and B share three live
// neighbors (>= kn: their clusters combine), C shares two with B (>= kf:
// overlap without merging). Everything flows through the flat engine —
// interned rows, packed buckets, CSR membership.
TEST(ClusterDeterminism, KfOverlapThroughRelationTable) {
  SeerParams params;
  params.cluster_near = 3;
  params.cluster_far = 2;
  params.dir_distance_weight = 0.0;
  FileTable files;
  RelationTable relations(params, &files);
  ClusterBuilder builder(params, &files, &relations);

  auto id = [&](const std::string& name) {
    return files.Intern(GlobalPaths().Intern("/kf/" + name));
  };
  const FileId a = id("A");
  const FileId b = id("B");
  const FileId c = id("C");
  const FileId n1 = id("N1");
  const FileId n2 = id("N2");
  const FileId n3 = id("N3");

  // row(A) = {B, N1, N2, N3}; row(B) = {A, N1, N2, N3}: 3 shared -> near.
  relations.Observe(a, b, 0.5);
  relations.Observe(b, a, 0.5);
  for (const FileId n : {n1, n2, n3}) {
    relations.Observe(a, n, 0.5);
    relations.Observe(b, n, 0.5);
  }
  // row(C) = {B, N2, N3}: shares {N2, N3} with row(B) -> far.
  relations.Observe(c, b, 0.5);
  relations.Observe(c, n2, 0.5);
  relations.Observe(c, n3, 0.5);

  const ClusterSet set = builder.Build(files.LiveIds());
  EXPECT_EQ(set.ClustersOf(a).size(), 1u);
  EXPECT_EQ(set.ClustersOf(b).size(), 2u);  // its own cluster + C's
  EXPECT_EQ(set.ClustersOf(c).size(), 2u);  // its own cluster + {A,B}'s

  // The combined cluster holds A, B, and (by far-overlap) C.
  bool found_abc = false;
  for (const uint32_t ci : set.ClustersOf(a)) {
    const std::vector<FileId>& m = set.clusters[ci].members;
    found_abc = found_abc || (m.size() == 3 && m[0] == a && m[1] == b && m[2] == c);
  }
  EXPECT_TRUE(found_abc);
}

}  // namespace
}  // namespace seer
