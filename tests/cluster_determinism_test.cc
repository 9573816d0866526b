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
//     rather than the investigated-pair side channel;
//   * full and incremental builds both equal an independent reference
//     built from AdjustedSharedCount alone, over odd path spellings,
//     investigated pairs, deleted and excluded neighbours, and renames.
#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
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

// Clusters from ClusterBuilder::AdjustedSharedCount alone (a sorted-merge
// shared count plus the string DirectoryDistance), with the combine and
// overlap rules spelled out directly. Shares nothing with Build's cached
// rows, stamp counts or directory nodes. Clusters come out in Build's
// order: by smallest member, a far-overlap duplicate of an earlier cluster
// dropped.
std::vector<std::vector<FileId>> ReferenceClusters(
    const ClusterBuilder& builder, const FileTable& files, const RelationTable& relations,
    const SeerParams& params, const std::vector<std::pair<FileId, FileId>>& investigated) {
  const std::vector<FileId> candidates = files.LiveIds();
  const std::set<FileId> is_candidate(candidates.begin(), candidates.end());
  std::map<FileId, FileId> parent;  // union-find, rooted at the smallest member
  for (const FileId f : candidates) {
    parent[f] = f;
  }
  auto find = [&](FileId f) {
    while (parent[f] != f) {
      f = parent[f];
    }
    return f;
  };
  std::vector<std::pair<FileId, FileId>> far;
  for (const FileId f : candidates) {
    const std::vector<FileId> row = relations.LiveNeighborIds(f);
    std::set<FileId> partners(row.begin(), row.end());
    for (const auto& [a, b] : investigated) {
      if (a == f) {
        partners.insert(b);
      } else if (b == f) {
        partners.insert(a);
      }
    }
    for (const FileId g : partners) {
      if (g == f || is_candidate.count(g) == 0) {
        continue;
      }
      const double x = builder.AdjustedSharedCount(f, g);
      if (x >= params.cluster_near) {
        const FileId rf = find(f);
        const FileId rg = find(g);
        parent[std::max(rf, rg)] = std::min(rf, rg);
      } else if (x >= params.cluster_far) {
        far.emplace_back(f, g);
      }
    }
  }
  std::map<FileId, std::set<FileId>> by_root;
  for (const FileId f : candidates) {
    by_root[find(f)].insert(f);
  }
  std::set<FileId> touched;
  for (const auto& [f, g] : far) {
    const FileId rf = find(f);
    const FileId rg = find(g);
    if (rf != rg) {
      by_root[rg].insert(f);
      by_root[rf].insert(g);
      touched.insert(rf);
      touched.insert(rg);
    }
  }
  std::vector<std::vector<FileId>> out;
  std::set<std::set<FileId>> emitted;
  for (const auto& [root, members] : by_root) {
    if (touched.count(root) != 0 && !emitted.insert(members).second) {
      continue;
    }
    out.emplace_back(members.begin(), members.end());
  }
  return out;
}

void ExpectMatchesReference(const ClusterSet& got, const std::vector<std::vector<FileId>>& want,
                            size_t file_count, const std::string& label) {
  ASSERT_EQ(got.clusters.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.clusters[i].members, want[i]) << label << " cluster " << i;
  }
  for (FileId f = 0; f < file_count; ++f) {
    std::vector<uint32_t> expect;
    for (uint32_t i = 0; i < want.size(); ++i) {
      if (std::binary_search(want[i].begin(), want[i].end(), f)) {
        expect.push_back(i);
      }
    }
    const ClusterIndexSpan span = got.ClustersOf(f);
    EXPECT_EQ(std::vector<uint32_t>(span.begin(), span.end()), expect) << label << " file " << f;
  }
}

// What the correlator does when a file's liveness or name flips.
void DeleteFile(FileTable* files, RelationTable* relations, const SeerParams& params, FileId id) {
  for (const FileId expired : files->MarkDeleted(id, params.delete_delay)) {
    relations->Purge(expired);
  }
  relations->MarkSetChanged(id);
}

// Randomized relation tables over odd path spellings, with investigated
// pairs and deleted and excluded neighbours: the incremental and the full
// builder must both equal the reference after every round.
TEST(ClusterDeterminism, BuildMatchesAdjustedSharedCountReference) {
  SeerParams params;
  params.max_neighbors = 8;
  params.cluster_near = 5;
  params.cluster_far = 3;
  params.dir_distance_weight = 1.0;
  params.investigator_weight = 1.0;
  FileTable files;
  RelationTable relations(params, &files);
  ClusterBuilder incremental(params, &files, &relations);
  ClusterBuilder full(params, &files, &relations);
  full.set_incremental(false);
  std::vector<std::pair<FileId, FileId>> investigated;

  // Directory spellings: collapsed slashes, the root, a bare name, a
  // relative path, and the same component name at different depths. Some
  // files also get a trailing '/'.
  const std::vector<std::string> dirs = {
      "/ref/a/", "//ref//a//", "/ref/b/", "/ref/a/ref/", "/ref/ref/a/", "/", "", "ref/a/", "/a/"};
  std::mt19937 rng(1818);
  const int kFiles = 90;
  const int kProject = 10;
  std::vector<FileId> ids;
  for (int i = 0; i < kFiles; ++i) {
    // Two directories per project, so in-project edges see distances too.
    const std::string& dir = dirs[(i / kProject * 2 + rng() % 2) % dirs.size()];
    std::string path = std::string(dir).append("r").append(std::to_string(i));
    if (rng() % 5 == 0) {
      path += "/";
    }
    ids.push_back(files.Intern(GlobalPaths().Intern(path)));
  }
  auto observe_project = [&](int project, int count) {
    std::uniform_int_distribution<int> local(0, kProject - 1);
    std::uniform_int_distribution<int> any(0, kFiles - 1);
    std::uniform_real_distribution<double> distance(1.0, 20.0);
    for (int k = 0; k < count; ++k) {
      const FileId from = ids[static_cast<size_t>(project * kProject + local(rng))];
      const bool outsider = rng() % 8 == 0;
      const FileId to = ids[static_cast<size_t>(outsider ? any(rng)
                                                         : project * kProject + local(rng))];
      if (from != to) {
        relations.Observe(from, to, distance(rng));
      }
    }
  };
  auto add_pair = [&](FileId a, FileId b, double strength) {
    incremental.AddInvestigatedPair(a, b, strength);
    full.AddInvestigatedPair(a, b, strength);
    investigated.emplace_back(a, b);
  };
  for (int p = 0; p < kFiles / kProject; ++p) {
    observe_project(p, 120);
  }
  std::uniform_int_distribution<int> pick(0, kFiles - 1);
  for (int k = 0; k < 6; ++k) {
    add_pair(ids[static_cast<size_t>(pick(rng))], ids[static_cast<size_t>(pick(rng))],
             1.0 + static_cast<double>(rng() % 4));
  }

  bool saw_combine = false;
  bool saw_overlap = false;
  for (int round = 0; round < 8; ++round) {
    const std::string label = std::string("round ").append(std::to_string(round));
    const std::vector<std::vector<FileId>> want =
        ReferenceClusters(full, files, relations, params, investigated);
    ExpectMatchesReference(incremental.Build(files.LiveIds()), want, files.size(),
                           label + " incremental");
    ExpectMatchesReference(full.Build(files.LiveIds()), want, files.size(), label + " full");
    for (const std::vector<FileId>& c : want) {
      saw_combine = saw_combine || c.size() > 1;
    }
    for (const FileId f : files.LiveIds()) {
      size_t in = 0;
      for (const std::vector<FileId>& c : want) {
        in += std::binary_search(c.begin(), c.end(), f) ? 1 : 0;
      }
      saw_overlap = saw_overlap || in > 1;
    }

    observe_project(static_cast<int>(rng() % (kFiles / kProject)), 25);
    const FileId victim = ids[static_cast<size_t>(pick(rng))];
    if (round % 2 == 0) {
      DeleteFile(&files, &relations, params, victim);
    } else {
      files.MarkExcluded(victim);
      relations.MarkSetChanged(victim);
      relations.Purge(victim);
    }
    if (round % 3 == 1) {
      // A repeat of an existing pair accumulates; a fresh one adds a partner.
      const auto [a, b] = investigated[static_cast<size_t>(round) % investigated.size()];
      add_pair(a, b, 2.0);
      add_pair(ids[static_cast<size_t>(pick(rng))], ids[static_cast<size_t>(pick(rng))], 5.0);
    }
  }
  EXPECT_TRUE(saw_combine);
  EXPECT_TRUE(saw_overlap);
}

// A rename across directories moves a file's directory node: a rebuild
// that kept the old node would still combine the file with its former
// project-mates. Deletions in the same round shrink other
// rows. Full and incremental builds must both equal the reference, and
// the rebuild must really be incremental.
TEST(ClusterDeterminism, RenameAcrossDirectoriesMatchesReference) {
  SeerParams params;
  params.max_neighbors = 12;
  params.cluster_near = 6;
  params.cluster_far = 3;
  params.dir_distance_weight = 1.0;
  FileTable files;
  RelationTable relations(params, &files);
  ClusterBuilder incremental(params, &files, &relations);
  ClusterBuilder full(params, &files, &relations);
  full.set_incremental(false);

  // Ten projects of ten files, one directory each; every file's row names
  // its nine project-mates, so two mates share eight live neighbours.
  const int kProjects = 10;
  const int kProject = 10;
  std::vector<FileId> ids;
  for (int p = 0; p < kProjects; ++p) {
    for (int i = 0; i < kProject; ++i) {
      ids.push_back(files.Intern(GlobalPaths().Intern(
          std::string("/mv/p").append(std::to_string(p)).append("/f").append(std::to_string(i)))));
    }
  }
  for (int p = 0; p < kProjects; ++p) {
    for (int i = 0; i < kProject; ++i) {
      for (int j = 0; j < kProject; ++j) {
        if (i != j) {
          relations.Observe(ids[static_cast<size_t>(p * kProject + i)],
                            ids[static_cast<size_t>(p * kProject + j)], 1.0 + i + j);
        }
      }
    }
  }
  const std::vector<std::pair<FileId, FileId>> none;
  const FileId moved = ids[3];
  const ClusterSet cold = incremental.Build(files.LiveIds());
  ExpectMatchesReference(cold, ReferenceClusters(full, files, relations, params, none),
                         files.size(), "cold");
  full.Build(files.LiveIds());
  ASSERT_EQ(cold.ClustersOf(moved).size(), 1u);
  EXPECT_EQ(cold.clusters[cold.ClustersOf(moved)[0]].members.size(), 10u);

  // Five tree edges from its old directory: with one mate deleted, x falls
  // from 8 to 7 - 5 = 2, below kf, so the file leaves its project.
  files.RenameFile(moved, GlobalPaths().Intern("/mv/elsewhere/deep/down/under/f3"));
  relations.MarkSetChanged(moved);
  for (const FileId gone : {ids[7], ids[41], ids[46]}) {
    DeleteFile(&files, &relations, params, gone);
  }

  const std::vector<std::vector<FileId>> want =
      ReferenceClusters(full, files, relations, params, none);
  const ClusterSet got = incremental.Build(files.LiveIds());
  EXPECT_TRUE(incremental.last_build_stats().incremental);
  ExpectMatchesReference(got, want, files.size(), "after rename incremental");
  ExpectMatchesReference(full.Build(files.LiveIds()), want, files.size(), "after rename full");
  ASSERT_EQ(got.ClustersOf(moved).size(), 1u);
  EXPECT_EQ(got.clusters[got.ClustersOf(moved)[0]].members, std::vector<FileId>{moved});
}

}  // namespace
}  // namespace seer
