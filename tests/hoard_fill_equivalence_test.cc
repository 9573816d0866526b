// Equivalence tests for the incremental hoard-fill plane: a warm
// HoardManager (cached cluster aggregates) must produce a selection
// byte-identical to a cold scratch fill after arbitrary touch/delete/rename
// churn, however many independent managers fill at once. Scratch and warm
// fills run the same code with the cache off or on, so both are also
// checked against ReferenceChooseHoard, an independent whole-project fill
// that shares none of the plane's code. This is the determinism contract
// the tenant router relies on.
#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/hoard.h"

namespace seer {
namespace {

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = RefKind::kPoint;
  r.path = P(path);
  r.time = time;
  return r;
}

// Pure size oracle (the SizeFn contract); stateless, so managers filling
// at once may share it.
uint64_t SizeOf(PathId p) {
  return 64 + (static_cast<uint64_t>(p) * 2654435761ull) % 512;
}

// A correlator populated with `projects` investigator-bound projects, plus
// seeded random churn (touch / delete / rename) between fills.
class ChurnHarness {
 public:
  ChurnHarness(uint32_t seed, size_t projects, size_t files_per,
               const std::string& prefix)
      : correlator_(MakeParams()), rng_(seed) {
    for (size_t p = 0; p < projects; ++p) {
      std::vector<std::string> files;
      for (size_t f = 0; f < files_per; ++f) {
        files.push_back(prefix + "/p" + std::to_string(p) + "/f" +
                        std::to_string(f));
      }
      // One process per project: the reference streams of distinct
      // projects never meet, so only the investigator binds members and
      // the clusters stay project-shaped.
      for (const auto& f : files) {
        correlator_.OnReference(Ref(static_cast<Pid>(2 + p), f, now_++));
      }
      InvestigatedRelation rel;
      rel.files = files;
      rel.strength = 50.0;
      correlator_.AddInvestigatedRelation(rel);
      paths_.insert(paths_.end(), files.begin(), files.end());
    }
  }

  static SeerParams MakeParams() {
    SeerParams p;
    p.dir_distance_weight = 0.0;
    return p;
  }

  const Correlator& correlator() const { return correlator_; }
  size_t file_count() const { return paths_.size(); }

  void TouchRandom(size_t n) {
    // A fresh pid per touch: recency moves without forging new
    // cross-project relations out of the churn stream itself.
    for (size_t i = 0; i < n; ++i) {
      correlator_.OnReference(Ref(next_pid_++, PickPath(), now_++));
    }
  }

  void DeleteRandom(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      correlator_.OnFileDeleted(P(PickPath()), now_++);
    }
  }

  void RenameRandom(size_t n, int tag) {
    for (size_t i = 0; i < n; ++i) {
      const size_t idx = rng_() % paths_.size();
      const std::string to = paths_[idx] + ".r" + std::to_string(tag) + "_" +
                             std::to_string(i);
      correlator_.OnFileRenamed(P(paths_[idx]), P(to), now_++);
      paths_[idx] = to;
    }
  }

 private:
  const std::string& PickPath() { return paths_[rng_() % paths_.size()]; }

  Correlator correlator_;
  std::mt19937 rng_;
  std::vector<std::string> paths_;
  Time now_ = 1;
  Pid next_pid_ = 100'000;
};

// The reference fill: the plain greedy whole-project selection of Section
// 4.6, written without the plane's caches, columns or dense marks. A
// std::set holds the selection, a project's priority is the most recent
// reference to any of its members (deleted ones included), ties break on
// cluster index, and every cluster walks its members on every fill.
struct ReferenceSelection {
  std::set<PathId> files;
  uint64_t bytes_used = 0;
  size_t projects_hoarded = 0;
  size_t projects_skipped = 0;
};

ReferenceSelection ReferenceChooseHoard(const Correlator& correlator,
                                        const ClusterSet& clusters,
                                        const std::set<PathId>& always_hoard,
                                        uint64_t budget_bytes,
                                        const std::function<uint64_t(PathId)>& size_of) {
  ReferenceSelection sel;
  auto add_file = [&](PathId path) {
    if (path == kInvalidPathId || sel.files.count(path) != 0) {
      return;
    }
    sel.bytes_used += size_of(path);
    sel.files.insert(path);
  };
  for (const PathId path : always_hoard) {
    add_file(path);
  }
  const FileTable& files = correlator.files();
  struct Ranked {
    uint64_t priority = 0;
    uint32_t index = 0;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(clusters.clusters.size());
  for (uint32_t i = 0; i < clusters.clusters.size(); ++i) {
    uint64_t priority = 0;
    for (const FileId id : clusters.clusters[i].members) {
      priority = std::max(priority, files.Get(id).last_ref_seq);
    }
    ranked.push_back({priority, i});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.priority > b.priority || (a.priority == b.priority && a.index < b.index);
  });
  for (const Ranked& r : ranked) {
    const Cluster& cluster = clusters.clusters[r.index];
    uint64_t extra = 0;
    for (const FileId id : cluster.members) {
      const FileRecord& rec = files.Get(id);
      if (!rec.deleted && rec.path != kInvalidPathId && sel.files.count(rec.path) == 0) {
        extra += size_of(rec.path);
      }
    }
    if (sel.bytes_used + extra > budget_bytes) {
      ++sel.projects_skipped;
      continue;
    }
    for (const FileId id : cluster.members) {
      const FileRecord& rec = files.Get(id);
      if (!rec.deleted && rec.path != kInvalidPathId) {
        add_file(rec.path);
      }
    }
    ++sel.projects_hoarded;
  }
  return sel;
}

// The plane's selection against the reference. Pins enter the plane after
// always-hoard, so the reference takes both as its unconditional set.
void ExpectMatchesReference(const HoardSelection& got, const ChurnHarness& h,
                            const ClusterSet& clusters, uint64_t budget,
                            const std::set<PathId>& always, const std::set<PathId>& pins,
                            const std::string& what) {
  std::set<PathId> unconditional = always;
  unconditional.insert(pins.begin(), pins.end());
  const ReferenceSelection want =
      ReferenceChooseHoard(h.correlator(), clusters, unconditional, budget, SizeOf);
  // std::set iterates ascending, as sorted_ids is.
  EXPECT_EQ(std::vector<PathId>(want.files.begin(), want.files.end()), got.sorted_ids)
      << what << ": reference";
  EXPECT_EQ(want.bytes_used, got.bytes_used) << what << ": reference";
  EXPECT_EQ(want.projects_hoarded, got.projects_hoarded) << what << ": reference";
  EXPECT_EQ(want.projects_skipped, got.projects_skipped) << what << ": reference";
}

void ExpectSameSelection(const HoardSelection& want, const HoardSelection& got,
                         const std::string& what) {
  EXPECT_EQ(want.files, got.files) << what << ": emission order differs";
  EXPECT_EQ(want.sorted_ids, got.sorted_ids) << what;
  EXPECT_EQ(want.bytes_used, got.bytes_used) << what;
  EXPECT_EQ(want.projects_hoarded, got.projects_hoarded) << what;
  EXPECT_EQ(want.projects_skipped, got.projects_skipped) << what;
}

// A cold fill: the ground truth each round is compared to.
HoardSelection ScratchFill(const ChurnHarness& h, const ClusterSet& clusters,
                           uint64_t budget, const std::set<PathId>& always,
                           const std::set<PathId>& pins, bool partial) {
  HoardManager scratch(budget);
  scratch.set_incremental_fill(false);
  scratch.set_allow_partial_projects(partial);
  for (const PathId p : pins) {
    scratch.Pin(p);
  }
  return scratch.ChooseHoard(h.correlator(), clusters, always, SizeOf);
}

using Managers = std::vector<std::unique_ptr<HoardManager>>;

// Groups of 1, 2 and 8 warm managers; each group fills at once every round.
std::vector<Managers> ManagerGroups(uint64_t budget, bool partial,
                                    const std::set<PathId>& pins) {
  std::vector<Managers> groups;
  for (const int n : {1, 2, 8}) {
    Managers group;
    for (int i = 0; i < n; ++i) {
      group.push_back(std::make_unique<HoardManager>(budget));
      group.back()->set_allow_partial_projects(partial);
      for (const PathId p : pins) {
        group.back()->Pin(p);
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

// Runs every manager of `group` at once, one thread each. Managers share
// only read-only inputs (the correlator, the cluster set, the thread-safe
// path interner and the pure size oracle), so each selection must equal
// the serial scratch fill whatever the group size.
std::vector<HoardSelection> FillConcurrently(const Managers& group, const ChurnHarness& h,
                                             const ClusterSet& clusters,
                                             const std::set<PathId>& always) {
  std::vector<HoardSelection> out(group.size());
  std::vector<std::thread> workers;
  for (size_t i = 0; i < group.size(); ++i) {
    workers.emplace_back([&, i] {
      out[i] = group[i]->ChooseHoard(h.correlator(), clusters, always, SizeOf);
    });
  }
  for (std::thread& w : workers) w.join();
  return out;
}

// Every group's selections against `want`.
void ExpectGroupsMatch(const HoardSelection& want, const std::vector<Managers>& groups,
                       const ChurnHarness& h, const ClusterSet& clusters,
                       const std::set<PathId>& always, const std::string& what) {
  for (const Managers& group : groups) {
    const std::vector<HoardSelection> got = FillConcurrently(group, h, clusters, always);
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectSameSelection(want, got[i],
                          what + " group " + std::to_string(group.size()) + " manager " +
                              std::to_string(i));
    }
  }
}

TEST(HoardFill, IncrementalMatchesScratchUnderChurn) {
  ChurnHarness h(0xC0FFEE, /*projects=*/600, /*files_per=*/2, "/eqchurn");
  const uint64_t budget = 130'000;  // ~a third of the expected byte total
  const std::set<PathId> always;

  const std::vector<Managers> groups = ManagerGroups(budget, /*partial=*/false, {});
  const HoardManager& single = *groups[0][0];

  for (int round = 0; round < 8; ++round) {
    if (round > 0) {
      h.TouchRandom(12);  // ~1% of the files
      if (round % 2 == 0) h.DeleteRandom(5);
      if (round % 3 == 0) h.RenameRandom(3, round);
    }
    if (round == 4) {
      // Mid-sequence cold fills: the cache drop must be invisible.
      for (const auto& m : groups[2]) {
        m->InvalidateFillCache();
      }
    }
    const ClusterSet clusters = h.correlator().BuildClusters();
    const HoardSelection want =
        ScratchFill(h, clusters, budget, always, {}, /*partial=*/false);
    ASSERT_FALSE(want.files.empty());
    ASSERT_GT(want.projects_skipped, 0u);  // the budget binds
    ExpectMatchesReference(want, h, clusters, budget, always, {},
                           "round " + std::to_string(round));
    ExpectGroupsMatch(want, groups, h, clusters, always, "round " + std::to_string(round));
    if (round > 0 && round != 4) {
      // Small churn must hit the cache: a handful of dirty clusters, the
      // rest reused without a member walk.
      const HoardFillStats& s = single.last_fill_stats();
      EXPECT_TRUE(s.incremental) << "round " << round;
      EXPECT_GT(s.reused_aggregates, s.dirty_clusters) << "round " << round;
      EXPECT_LE(s.dirty_clusters, 64u) << "round " << round;
      EXPECT_LE(s.touched_files, 64u) << "round " << round;
    }
  }
}

TEST(HoardFill, PartialFillAblationMatches) {
  ChurnHarness h(0xBEEF, /*projects=*/120, /*files_per=*/5, "/eqpartial");
  // Budget small enough that most projects only fit partially.
  const uint64_t budget = 20'000;
  const std::set<PathId> always;

  const std::vector<Managers> groups = ManagerGroups(budget, /*partial=*/true, {});

  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      h.TouchRandom(8);
      if (round % 2 == 1) h.DeleteRandom(3);
      if (round % 3 == 2) h.RenameRandom(2, round);
    }
    const ClusterSet clusters = h.correlator().BuildClusters();
    const HoardSelection want =
        ScratchFill(h, clusters, budget, always, {}, /*partial=*/true);
    ASSERT_GT(want.files.size(), 0u);
    ExpectGroupsMatch(want, groups, h, clusters, always,
                      "partial round " + std::to_string(round));
  }
}

TEST(HoardFill, PinnedAndAlwaysHoardOverlapMatches) {
  ChurnHarness h(0xD00D, /*projects=*/80, /*files_per=*/4, "/eqpin");
  const uint64_t budget = 40'000;

  // Pins and always-hoard deliberately overlap each other and project
  // members: every overlap must be charged exactly once, identically in
  // warm and scratch fills.
  std::set<PathId> pins = {P("/eqpin/p0/f0"), P("/eqpin/p3/f1"),
                           P("/eqpin/outside/pinned")};
  std::set<PathId> always = {P("/eqpin/p0/f0"), P("/eqpin/p5/f2"),
                             P("/eqpin/outside/critical")};

  const std::vector<Managers> groups = ManagerGroups(budget, /*partial=*/false, pins);

  for (int round = 0; round < 5; ++round) {
    if (round > 0) {
      h.TouchRandom(6);
      if (round == 2) h.DeleteRandom(2);
      if (round == 3) h.RenameRandom(2, round);
    }
    const ClusterSet clusters = h.correlator().BuildClusters();
    const HoardSelection want =
        ScratchFill(h, clusters, budget, always, pins, /*partial=*/false);
    ExpectMatchesReference(want, h, clusters, budget, always, pins,
                           "pin round " + std::to_string(round));
    ExpectGroupsMatch(want, groups, h, clusters, always, "pin round " + std::to_string(round));
    for (const PathId p : pins) {
      EXPECT_TRUE(want.Contains(p));
    }
    for (const PathId p : always) {
      EXPECT_TRUE(want.Contains(p));
    }
  }
}

// Turning incremental fill off must force a full rewalk every time (the
// scratch baseline) while still matching results.
TEST(HoardFill, DisabledIncrementalAlwaysRewalks) {
  ChurnHarness h(0xABba, /*projects=*/40, /*files_per=*/3, "/eqcold");
  const uint64_t budget = 15'000;
  HoardManager m(budget);
  m.set_incremental_fill(false);
  const std::set<PathId> always;

  for (int round = 0; round < 3; ++round) {
    h.TouchRandom(2);
    const ClusterSet clusters = h.correlator().BuildClusters();
    const HoardSelection got =
        m.ChooseHoard(h.correlator(), clusters, always, SizeOf);
    const HoardFillStats& s = m.last_fill_stats();
    EXPECT_FALSE(s.incremental);
    EXPECT_EQ(s.reused_aggregates, 0u);
    EXPECT_EQ(s.dirty_clusters, s.clusters);
    const HoardSelection want =
        ScratchFill(h, clusters, budget, always, {}, /*partial=*/false);
    ExpectSameSelection(want, got, "cold round " + std::to_string(round));
    ExpectMatchesReference(got, h, clusters, budget, always, {},
                           "cold round " + std::to_string(round));
  }
}

}  // namespace
}  // namespace seer
