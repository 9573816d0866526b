// Property-based tests: invariants that must hold for ALL inputs, checked
// over parameterized seed sweeps (TEST_P) with randomly generated
// operation streams.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/core/clustering.h"
#include "src/core/correlator.h"
#include "src/core/reference_streams.h"
#include "src/replication/gossip.h"
#include "src/sim/missfree.h"
#include "src/util/path.h"
#include "src/util/rng.h"
#include "src/vfs/sim_filesystem.h"

namespace seer {
namespace {

class SeededTest : public ::testing::TestWithParam<int> {
 protected:
  uint64_t Seed() const { return static_cast<uint64_t>(GetParam()) * 2654435761u + 17; }
};

// --- reference streams ----------------------------------------------------------

using StreamProperty = SeededTest;

// Every observation's distance is within [0, M] (lifetime/sequence) or
// [0, temporal horizon] — the compensation cap is an invariant, not a
// best-effort.
TEST_P(StreamProperty, DistancesAlwaysWithinHorizon) {
  for (const DistanceKind kind :
       {DistanceKind::kLifetime, DistanceKind::kSequence, DistanceKind::kTemporal}) {
    SeerParams params;
    params.distance_kind = kind;
    params.distance_horizon = 40;
    params.temporal_horizon_seconds = 30.0;
    FileTable files;
    ReferenceStreams streams(params);
    Rng rng(Seed());

    std::vector<FileId> ids;
    for (int i = 0; i < 30; ++i) {
      ids.push_back(files.Intern(GlobalPaths().Intern("/f/" + std::to_string(i))));
    }
    std::map<std::pair<Pid, FileId>, int> open_depth;
    Time t = 0;
    for (int step = 0; step < 2'000; ++step) {
      const Pid pid = static_cast<Pid>(1 + rng.NextBounded(3));
      const FileId id = ids[rng.NextBounded(ids.size())];
      t += static_cast<Time>(rng.NextBounded(3 * kMicrosPerSecond));
      const int action = static_cast<int>(rng.NextBounded(3));
      std::vector<DistanceObservation> obs;
      if (action == 0) {
        streams.OnBegin(pid, id, t, &obs);
        ++open_depth[{pid, id}];
      } else if (action == 1) {
        streams.OnPoint(pid, id, t, &obs);
      } else {
        streams.OnEnd(pid, id);
        auto& depth = open_depth[{pid, id}];
        depth = std::max(0, depth - 1);
      }
      const double cap = kind == DistanceKind::kTemporal
                             ? params.temporal_horizon_seconds
                             : static_cast<double>(params.distance_horizon);
      for (const auto& o : obs) {
        EXPECT_GE(o.distance, 0.0);
        EXPECT_LE(o.distance, cap + 1e-9);
        EXPECT_NE(o.from, o.to);
        EXPECT_EQ(o.to, id);
      }
    }
  }
}

// Fork/exit in random order never crashes or corrupts the streams, and the
// stream count stays bounded by the number of live processes.
TEST_P(StreamProperty, ForkExitChaosIsSafe) {
  SeerParams params;
  ReferenceStreams streams(params);
  FileTable files;
  Rng rng(Seed() ^ 0xf0f0);
  std::vector<Pid> live = {1};
  Pid next_pid = 2;
  for (int step = 0; step < 1'000; ++step) {
    const int action = static_cast<int>(rng.NextBounded(4));
    const Pid pid = live[rng.NextBounded(live.size())];
    if (action == 0 && live.size() < 12) {
      streams.OnFork(pid, next_pid);
      live.push_back(next_pid++);
    } else if (action == 1 && live.size() > 1) {
      streams.OnExit(pid);
      live.erase(std::find(live.begin(), live.end(), pid));
    } else {
      const FileId id = files.Intern(GlobalPaths().Intern("/f/" + std::to_string(rng.NextBounded(20))));
      std::vector<DistanceObservation> obs;
      streams.OnPoint(pid, id, static_cast<Time>(step) * kMicrosPerSecond, &obs);
    }
  }
  EXPECT_LE(streams.stream_count(), 16u);
}

// --- relation table ----------------------------------------------------------------

using RelationProperty = SeededTest;

// Lists never exceed n entries, never contain self or duplicates, and the
// stored means are always positive.
TEST_P(RelationProperty, ListInvariantsUnderRandomObservations) {
  SeerParams params;
  params.max_neighbors = 7;
  FileTable files;
  RelationTable table(params, &files, Seed());
  Rng rng(Seed() ^ 1);
  std::vector<FileId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(files.Intern(GlobalPaths().Intern("/r/" + std::to_string(i))));
  }
  for (int step = 0; step < 5'000; ++step) {
    const FileId from = ids[rng.NextBounded(ids.size())];
    const FileId to = ids[rng.NextBounded(ids.size())];
    table.Observe(from, to, static_cast<double>(rng.NextBounded(120)));
    if (step % 500 == 0) {
      for (const FileId id : ids) {
        const auto& list = table.NeighborsOf(id);
        EXPECT_LE(list.size(), 7u);
        std::set<FileId> seen;
        for (const auto& nb : list) {
          EXPECT_NE(nb.id, id) << "self-relation";
          EXPECT_TRUE(seen.insert(nb.id).second) << "duplicate neighbor";
          EXPECT_GT(nb.MeanDistance(params.mean_kind), 0.0);
          EXPECT_GT(nb.observations, 0u);
        }
      }
    }
  }
}

// After Purge(id), the id appears in no list.
TEST_P(RelationProperty, PurgeErasesEverywhere) {
  SeerParams params;
  params.max_neighbors = 5;
  FileTable files;
  RelationTable table(params, &files, Seed());
  Rng rng(Seed() ^ 2);
  std::vector<FileId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(files.Intern(GlobalPaths().Intern("/r/" + std::to_string(i))));
  }
  for (int step = 0; step < 1'000; ++step) {
    table.Observe(ids[rng.NextBounded(ids.size())], ids[rng.NextBounded(ids.size())],
                  static_cast<double>(1 + rng.NextBounded(50)));
  }
  const FileId victim = ids[rng.NextBounded(ids.size())];
  table.Purge(victim);
  for (const FileId id : ids) {
    for (const auto& nb : table.NeighborsOf(id)) {
      EXPECT_NE(nb.id, victim);
    }
  }
  EXPECT_TRUE(table.NeighborsOf(victim).empty());
}

// --- clustering -------------------------------------------------------------------

using ClusteringProperty = SeededTest;

// For any relation table: every candidate appears in at least one cluster,
// membership is consistent, members are sorted and unique, no cluster is
// duplicated, and the result is deterministic.
TEST_P(ClusteringProperty, StructuralInvariants) {
  SeerParams params;
  params.max_neighbors = 6;
  params.cluster_near = 4;
  params.cluster_far = 2;
  params.dir_distance_weight = 0.5;
  FileTable files;
  RelationTable table(params, &files, Seed());
  Rng rng(Seed() ^ 3);
  std::vector<FileId> ids;
  for (int i = 0; i < 60; ++i) {
    ids.push_back(files.Intern(GlobalPaths().Intern("/d" + std::to_string(i % 7) + "/f" + std::to_string(i))));
  }
  for (int step = 0; step < 3'000; ++step) {
    table.Observe(ids[rng.NextBounded(ids.size())], ids[rng.NextBounded(ids.size())],
                  static_cast<double>(rng.NextBounded(30)));
  }

  ClusterBuilder builder(params, &files, &table);
  const ClusterSet a = builder.Build(ids);
  const ClusterSet b = builder.Build(ids);

  // Determinism.
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].members, b.clusters[i].members);
  }

  // Coverage + consistency + uniqueness.
  std::set<std::vector<FileId>> unique_clusters;
  for (const Cluster& c : a.clusters) {
    EXPECT_FALSE(c.members.empty());
    EXPECT_TRUE(std::is_sorted(c.members.begin(), c.members.end()));
    EXPECT_TRUE(std::adjacent_find(c.members.begin(), c.members.end()) == c.members.end());
    EXPECT_TRUE(unique_clusters.insert(c.members).second) << "duplicate cluster";
  }
  for (const FileId id : ids) {
    const auto& memberships = a.ClustersOf(id);
    EXPECT_FALSE(memberships.empty()) << "file " << id << " in no cluster";
    for (const uint32_t c : memberships) {
      ASSERT_LT(c, a.clusters.size());
      EXPECT_TRUE(std::binary_search(a.clusters[c].members.begin(),
                                     a.clusters[c].members.end(), id));
    }
  }
}

// --- miss-free measure ---------------------------------------------------------------

using MissFreeProperty = SeededTest;

// Monotonicity: a superset of referenced files never needs a smaller hoard;
// and the result never exceeds the total size of the order.
TEST_P(MissFreeProperty, MonotoneInReferencedSet) {
  Rng rng(Seed() ^ 4);
  std::vector<std::string> order;
  for (int i = 0; i < 50; ++i) {
    order.push_back("/f/" + std::to_string(i));
  }
  const auto size_of = [](const std::string& path) -> uint64_t {
    return 100 + (path.back() - '0') * 10;
  };
  uint64_t total = 0;
  for (const auto& p : order) {
    total += size_of(p);
  }

  std::set<std::string> small;
  for (int i = 0; i < 5; ++i) {
    small.insert(order[rng.NextBounded(order.size())]);
  }
  std::set<std::string> big = small;
  for (int i = 0; i < 10; ++i) {
    big.insert(order[rng.NextBounded(order.size())]);
  }

  const auto small_result = ComputeMissFree(order, small, size_of);
  const auto big_result = ComputeMissFree(order, big, size_of);
  EXPECT_LE(small_result.bytes, big_result.bytes);
  EXPECT_LE(big_result.bytes, total);
  EXPECT_EQ(small_result.uncovered, 0u);
}

// The working set is a lower bound for any coverage order that contains
// all referenced files.
TEST_P(MissFreeProperty, WorkingSetIsLowerBound) {
  Rng rng(Seed() ^ 5);
  std::vector<std::string> order;
  for (int i = 0; i < 40; ++i) {
    order.push_back("/f/" + std::to_string(i));
  }
  // Shuffle the order.
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::set<std::string> referenced;
  for (int i = 0; i < 12; ++i) {
    referenced.insert(order[rng.NextBounded(order.size())]);
  }
  const auto size_of = [](const std::string&) -> uint64_t { return 64; };
  const auto result = ComputeMissFree(order, referenced, size_of);
  EXPECT_GE(result.bytes, WorkingSetBytes(referenced, size_of));
}

// --- paths ------------------------------------------------------------------------

using PathProperty = SeededTest;

// Directory distance is a tree metric: symmetric, zero iff same directory,
// and obeys the triangle inequality.
TEST_P(PathProperty, DirectoryDistanceIsATreeMetric) {
  Rng rng(Seed() ^ 6);
  auto random_path = [&rng]() {
    std::string p;
    const int depth = 1 + static_cast<int>(rng.NextBounded(5));
    for (int d = 0; d < depth; ++d) {
      p += "/d" + std::to_string(rng.NextBounded(4));
    }
    return p + "/file" + std::to_string(rng.NextBounded(3));
  };
  for (int step = 0; step < 300; ++step) {
    const std::string a = random_path();
    const std::string b = random_path();
    const std::string c = random_path();
    const int ab = DirectoryDistance(a, b);
    const int ba = DirectoryDistance(b, a);
    const int bc = DirectoryDistance(b, c);
    const int ac = DirectoryDistance(a, c);
    EXPECT_EQ(ab, ba) << a << " " << b;
    EXPECT_GE(ab, 0);
    EXPECT_LE(ac, ab + bc) << "triangle inequality: " << a << " " << b << " " << c;
    EXPECT_EQ(DirectoryDistance(a, a), 0);
  }
}

// AbsolutePath output is always absolute and normalised.
TEST_P(PathProperty, AbsolutePathAlwaysAbsoluteNormalized) {
  Rng rng(Seed() ^ 7);
  const char* cwds[] = {"/", "/home/u", "/a/b/c"};
  const char* rels[] = {"x",      "./x",   "../x", "x/../y", "/abs/z",
                        "../../", "a//b",  ".",    "..",     "a/./b/../c"};
  for (int step = 0; step < 200; ++step) {
    const std::string cwd = cwds[rng.NextBounded(3)];
    const std::string rel = rels[rng.NextBounded(10)];
    const std::string abs = AbsolutePath(cwd, rel);
    ASSERT_FALSE(abs.empty());
    EXPECT_EQ(abs.front(), '/') << cwd << " + " << rel;
    EXPECT_EQ(NormalizePath(abs), abs) << "not normalised: " << abs;
  }
}

// --- vfs model check -----------------------------------------------------------------

using VfsProperty = SeededTest;

// Random create/remove/rename/mkdir ops against SimFilesystem, mirrored in
// a simple set-based model; existence must agree at every step.
TEST_P(VfsProperty, AgreesWithSetModel) {
  SimFilesystem fs;
  std::set<std::string> model_files;  // regular files only
  std::set<std::string> model_dirs = {"/"};
  Rng rng(Seed() ^ 8);

  auto random_dir = [&]() {
    auto it = model_dirs.begin();
    std::advance(it, static_cast<long>(rng.NextBounded(model_dirs.size())));
    return *it;
  };
  auto join = [](const std::string& dir, const std::string& name) {
    return dir == "/" ? "/" + name : dir + "/" + name;
  };

  for (int step = 0; step < 2'000; ++step) {
    const int action = static_cast<int>(rng.NextBounded(4));
    const std::string name = std::string("n").append(std::to_string(rng.NextBounded(6)));
    const std::string dir = random_dir();
    const std::string path = join(dir, name);
    if (action == 0) {  // mkdir
      const VfsStatus st = fs.Mkdir(path);
      if (st == VfsStatus::kOk) {
        EXPECT_EQ(model_files.count(path) + model_dirs.count(path), 0u);
        model_dirs.insert(path);
      }
    } else if (action == 1) {  // create file
      const VfsStatus st = fs.CreateFile(path, 10);
      if (st == VfsStatus::kOk) {
        EXPECT_EQ(model_files.count(path) + model_dirs.count(path), 0u);
        model_files.insert(path);
      }
    } else if (action == 2) {  // remove file
      const VfsStatus st = fs.Remove(path);
      EXPECT_EQ(st == VfsStatus::kOk, model_files.count(path) == 1);
      model_files.erase(path);
    } else {  // rename file to a sibling name
      const std::string to = join(dir, std::string("m").append(std::to_string(rng.NextBounded(6))));
      if (model_files.count(path) != 0 && model_dirs.count(to) == 0) {
        const VfsStatus st = fs.Rename(path, to);
        if (st == VfsStatus::kOk) {
          model_files.erase(path);
          model_files.erase(to);  // rename-over replaces
          model_files.insert(to);
        }
      }
    }
    if (step % 100 == 0) {
      for (const auto& f : model_files) {
        EXPECT_TRUE(fs.Exists(f)) << f;
        EXPECT_EQ(fs.Stat(f)->kind, NodeKind::kRegular) << f;
      }
      EXPECT_EQ(fs.AllRegularFiles().size(), model_files.size());
    }
  }
}

// --- gossip -----------------------------------------------------------------------

using GossipProperty = SeededTest;

// Any random mixture of updates and pairwise reconciliations can always be
// driven to convergence by ring sweeps, and conflict resolutions never
// exceed detections.
TEST_P(GossipProperty, AlwaysConvergesUnderChaos) {
  Rng rng(Seed() ^ 9);
  const int replicas = 3 + static_cast<int>(rng.NextBounded(5));
  GossipNetwork net(replicas);
  for (int step = 0; step < 300; ++step) {
    if (rng.NextBool(0.6)) {
      net.Update(static_cast<ReplicaId>(rng.NextBounded(replicas)),
                 "/f" + std::to_string(rng.NextBounded(15)));
    } else {
      const ReplicaId a = static_cast<ReplicaId>(rng.NextBounded(replicas));
      const ReplicaId b = static_cast<ReplicaId>(rng.NextBounded(replicas));
      if (a != b) {
        net.ReconcilePair(a, b);
      }
    }
  }
  EXPECT_GT(net.SweepsToConverge(2 * replicas + 2), 0);
  EXPECT_TRUE(net.FullyConverged());
  EXPECT_EQ(net.stats().conflicts_detected, net.stats().conflicts_resolved);
}

// --- correlator end-to-end -----------------------------------------------------------

using CorrelatorProperty = SeededTest;

// Random reference streams (with deletes, renames, exclusions) never break
// the correlator's structural invariants, and save/load is always the
// identity on distances.
TEST_P(CorrelatorProperty, ChaosThenPersistenceRoundTrip) {
  SeerParams params;
  params.max_neighbors = 8;
  params.delete_delay = 5;
  Correlator correlator(params, Seed());
  Rng rng(Seed() ^ 10);

  std::vector<std::string> paths;
  for (int i = 0; i < 25; ++i) {
    paths.push_back("/c/f" + std::to_string(i));
  }
  Time t = 0;
  for (int step = 0; step < 2'000; ++step) {
    t += kMicrosPerSecond;
    const auto& path = paths[rng.NextBounded(paths.size())];
    const int action = static_cast<int>(rng.NextBounded(10));
    if (action < 7) {
      FileReference ref;
      ref.pid = static_cast<Pid>(1 + rng.NextBounded(2));
      ref.kind = RefKind::kPoint;
      ref.path = GlobalPaths().Intern(path);
      ref.time = t;
      correlator.OnReference(ref);
    } else if (action == 7) {
      correlator.OnFileDeleted(GlobalPaths().Intern(path), t);
    } else if (action == 8) {
      correlator.OnFileRenamed(GlobalPaths().Intern(path), GlobalPaths().Intern(path + "x"), t);
      correlator.OnFileRenamed(GlobalPaths().Intern(path + "x"), GlobalPaths().Intern(path), t);  // rename back
    } else {
      correlator.OnProcessFork(1, static_cast<Pid>(100 + step));
      correlator.OnProcessExit(static_cast<Pid>(100 + step));
    }
  }

  // Structural invariants.
  for (FileId id = 0; id < correlator.files().size(); ++id) {
    EXPECT_LE(correlator.relations().NeighborsOf(id).size(), 8u);
  }
  const ClusterSet clusters = correlator.BuildClusters();
  for (const Cluster& c : clusters.clusters) {
    EXPECT_FALSE(c.members.empty());
  }

  // Persistence identity.
  const std::string snapshot = correlator.EncodeSnapshot();
  const auto loaded = Correlator::DecodeSnapshot(snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->EncodeSnapshot(), snapshot);
  for (int i = 0; i < 25; ++i) {
    for (int j = 0; j < 25; ++j) {
      EXPECT_EQ((*loaded)->Distance(paths[i], paths[j]),
                correlator.Distance(paths[i], paths[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamProperty, ::testing::Range(0, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, RelationProperty, ::testing::Range(0, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringProperty, ::testing::Range(0, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, MissFreeProperty, ::testing::Range(0, 6));
INSTANTIATE_TEST_SUITE_P(Seeds, PathProperty, ::testing::Range(0, 4));
INSTANTIATE_TEST_SUITE_P(Seeds, VfsProperty, ::testing::Range(0, 4));
INSTANTIATE_TEST_SUITE_P(Seeds, GossipProperty, ::testing::Range(0, 8));
INSTANTIATE_TEST_SUITE_P(Seeds, CorrelatorProperty, ::testing::Range(0, 4));

}  // namespace
}  // namespace seer
