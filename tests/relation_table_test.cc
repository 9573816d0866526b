// Tests for the n-nearest-neighbor relation table (Section 3.1.3): the
// geometric-mean reduction and the three-level replacement priority.
#include "src/core/relation_table.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlator.h"

namespace seer {
namespace {

class RelationHarness {
 public:
  explicit RelationHarness(SeerParams params = MakeParams())
      : params_(params), table_(params_, &files_) {}

  static SeerParams MakeParams() {
    SeerParams p;
    p.max_neighbors = 3;  // small list to exercise replacement
    return p;
  }

  FileId Id(const std::string& name) { return files_.Intern(GlobalPaths().Intern("/r/" + name)); }

  FileTable& files() { return files_; }
  RelationTable& table() { return table_; }
  const SeerParams& params() const { return params_; }

 private:
  SeerParams params_;
  FileTable files_;
  RelationTable table_;
};

TEST(RelationTable, GeometricMeanAccumulation) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 2.0);
  h.table().Observe(a, b, 8.0);
  EXPECT_NEAR(h.table().DistanceOrNegative(a, b), 4.0, 1e-9);  // sqrt(2*8)
}

// Section 3.1.2's motivating example: distances {1, 1, 1498} should read as
// much closer than {500, 500, 500} — the geometric mean gives small values
// more importance, unlike the arithmetic mean (both have mean 500).
TEST(RelationTable, GeometricMeanFavorsSmallDistances) {
  RelationHarness close_pair;
  const FileId a1 = close_pair.Id("a");
  const FileId b1 = close_pair.Id("b");
  close_pair.table().Observe(a1, b1, 1.0);
  close_pair.table().Observe(a1, b1, 1.0);
  close_pair.table().Observe(a1, b1, 1498.0);

  RelationHarness far_pair;
  const FileId a2 = far_pair.Id("a");
  const FileId b2 = far_pair.Id("b");
  far_pair.table().Observe(a2, b2, 500.0);
  far_pair.table().Observe(a2, b2, 500.0);
  far_pair.table().Observe(a2, b2, 500.0);

  EXPECT_LT(close_pair.table().DistanceOrNegative(a1, b1),
            far_pair.table().DistanceOrNegative(a2, b2) / 10.0);
}

TEST(RelationTable, ArithmeticMeanForAblation) {
  SeerParams p = RelationHarness::MakeParams();
  p.mean_kind = MeanKind::kArithmetic;
  RelationHarness h(p);
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 1.0);
  h.table().Observe(a, b, 1.0);
  h.table().Observe(a, b, 1498.0);
  EXPECT_NEAR(h.table().DistanceOrNegative(a, b), 500.0, 1e-9);
}

TEST(RelationTable, ZeroDistanceUsesFloor) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 0.0);
  const double d = h.table().DistanceOrNegative(a, b);
  EXPECT_GT(d, 0.0);
  EXPECT_LT(d, 1.0);  // a run of zeros stays below every nonzero distance
}

TEST(RelationTable, ListCappedAtN) {
  RelationHarness h;
  const FileId a = h.Id("a");
  for (int i = 0; i < 10; ++i) {
    h.table().Observe(a, h.Id(std::string("n").append(std::to_string(i))), 5.0);
  }
  EXPECT_EQ(h.table().NeighborsOf(a).size(), 3u);
}

// Replacement priority 2: the farthest entry yields to a closer candidate.
TEST(RelationTable, FarthestEntryReplacedByCloserCandidate) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId far = h.Id("far");
  h.table().Observe(a, h.Id("n1"), 5.0);
  h.table().Observe(a, h.Id("n2"), 5.0);
  h.table().Observe(a, far, 90.0);

  const FileId close = h.Id("close");
  h.table().Observe(a, close, 2.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, far), 0.0) << "far entry should be gone";
  EXPECT_GT(h.table().DistanceOrNegative(a, close), 0.0);
}

// ...but a candidate farther than everything present is NOT admitted.
TEST(RelationTable, FartherCandidateRejected) {
  RelationHarness h;
  const FileId a = h.Id("a");
  h.table().Observe(a, h.Id("n1"), 5.0);
  h.table().Observe(a, h.Id("n2"), 5.0);
  h.table().Observe(a, h.Id("n3"), 5.0);

  const FileId worse = h.Id("worse");
  h.table().Observe(a, worse, 50.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, worse), 0.0);
  EXPECT_EQ(h.table().NeighborsOf(a).size(), 3u);
}

// Replacement priority 1: a deletion-marked neighbor goes first, even when
// it is not the farthest.
TEST(RelationTable, DeletionMarkedEntryReplacedFirst) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId doomed = h.Id("doomed");
  h.table().Observe(a, doomed, 1.0);  // closest of the three
  h.table().Observe(a, h.Id("n1"), 5.0);
  h.table().Observe(a, h.Id("n2"), 9.0);

  h.files().MarkDeleted(doomed, /*delete_delay=*/1000);
  const FileId fresh = h.Id("fresh");
  h.table().Observe(a, fresh, 8.0);

  EXPECT_LT(h.table().DistanceOrNegative(a, doomed), 0.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, fresh), 0.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, h.Id("n2")), 0.0) << "farthest entry kept";
}

// Replacement priority 3: an aged entry yields even to a farther candidate.
TEST(RelationTable, AgingAllowsReplacement) {
  SeerParams p = RelationHarness::MakeParams();
  p.aging_updates = 10;
  RelationHarness h(p);
  const FileId a = h.Id("a");
  const FileId old_nb = h.Id("old");
  h.table().Observe(a, old_nb, 1.0);
  h.table().Observe(a, h.Id("n1"), 1.0);
  h.table().Observe(a, h.Id("n2"), 1.0);

  // Generate many updates elsewhere to age the entries.
  const FileId busy = h.Id("busy");
  for (int i = 0; i < 20; ++i) {
    h.table().Observe(busy, h.Id(std::string("t").append(std::to_string(i % 2))), 1.0);
  }
  // Keep n1 and n2 fresh; old_nb stays stale.
  h.table().Observe(a, h.Id("n1"), 1.0);
  h.table().Observe(a, h.Id("n2"), 1.0);

  const FileId newer = h.Id("newer");
  h.table().Observe(a, newer, 30.0);  // farther than everything, but old_nb aged out
  EXPECT_GT(h.table().DistanceOrNegative(a, newer), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, old_nb), 0.0);
}

TEST(RelationTable, PurgeRemovesFromAllLists) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  const FileId c = h.Id("c");
  h.table().Observe(a, b, 1.0);
  h.table().Observe(c, b, 1.0);
  h.table().Observe(b, a, 1.0);

  h.table().Purge(b);
  EXPECT_LT(h.table().DistanceOrNegative(a, b), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(c, b), 0.0);
  EXPECT_TRUE(h.table().NeighborsOf(b).empty());
}

TEST(RelationTable, SelfObservationIgnored) {
  RelationHarness h;
  const FileId a = h.Id("a");
  h.table().Observe(a, a, 1.0);
  EXPECT_TRUE(h.table().NeighborsOf(a).empty());
}

TEST(RelationTable, LiveNeighborIdsSkipDeletedAndExcluded) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId dead = h.Id("dead");
  const FileId excl = h.Id("excl");
  const FileId ok = h.Id("ok");
  h.table().Observe(a, dead, 1.0);
  h.table().Observe(a, excl, 1.0);
  h.table().Observe(a, ok, 1.0);
  h.files().MarkDeleted(dead, /*delete_delay=*/1000);
  h.files().MarkExcluded(excl);

  const auto live = h.table().LiveNeighborIds(a);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0], ok);
}

TEST(RelationTable, LiveNeighborIdsAppendOverloadDoesNotClear) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  h.table().Observe(a, b, 1.0);

  std::vector<FileId> out = {kInvalidFileId};  // pre-existing scratch content
  h.table().LiveNeighborIds(a, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], kInvalidFileId) << "append overload must not clear";
  EXPECT_EQ(out[1], b);
}

// The lazy mean cache must be invalidated when an entry's accumulators
// change: a priority-2 scan after a fold has to see the new mean, or a
// replacement decision could go the wrong way.
TEST(RelationTable, MeanCacheInvalidatedOnFold) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId x = h.Id("x");
  h.table().Observe(a, x, 80.0);
  h.table().Observe(a, h.Id("n1"), 4.0);
  h.table().Observe(a, h.Id("n2"), 4.0);

  // Full-list miss primes the cache (candidate farther than worst=80 is
  // rejected).
  h.table().Observe(a, h.Id("reject"), 100.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, h.Id("reject")), 0.0);

  // Fold x down: its geometric mean drops from 80 to sqrt(80) ≈ 8.94.
  h.table().Observe(a, x, 1.0);

  // Candidate at 20: with a stale cache the scan would still see x at 80
  // and replace it; with correct invalidation the worst mean is ~8.94 and
  // the candidate is rejected.
  h.table().Observe(a, h.Id("mid"), 20.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, x), 0.0) << "x must survive";
  EXPECT_LT(h.table().DistanceOrNegative(a, h.Id("mid")), 0.0);
}

// Satellite regression: MarkSetChanged used to copy reverse_[id] into a
// temporary vector on every call — a rename storm over a well-connected
// file paid one allocation + full copy per rename. The index-based walk
// must still stamp the file and every reverse owner, every time.
TEST(RelationTable, RenameStormStampsAllReverseOwners) {
  RelationHarness h;
  const FileId hub = h.Id("hub");
  std::vector<FileId> owners;
  for (int i = 0; i < 200; ++i) {
    const FileId o = h.Id("owner" + std::to_string(i));
    h.table().Observe(o, hub, 1.0);
    owners.push_back(o);
  }

  for (int round = 0; round < 50; ++round) {
    const uint64_t epoch = h.table().set_change_epoch();
    h.table().MarkSetChanged(hub);
    std::vector<FileId> changed;
    h.table().CollectChangedSince(epoch, &changed);
    ASSERT_EQ(changed.size(), owners.size() + 1) << "round " << round;
  }

  // Stamping an id the table has never sized for must grow the tables and
  // not touch anyone else.
  const FileId fresh = h.Id("fresh-after-storm");
  const uint64_t epoch = h.table().set_change_epoch();
  h.table().MarkSetChanged(fresh);
  std::vector<FileId> changed;
  h.table().CollectChangedSince(epoch, &changed);
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], fresh);
}

// --- rejection summaries ------------------------------------------------------
//
// A fold rejected on a full row caches the row's largest mean and oldest
// ordinal so later misses can reject without rescanning. Each test below
// first leaves `a` holding such a summary, then changes something the
// summary depends on and checks that the next fold decides as the full
// replacement path would.

// Fills `a` with three neighbors and rejects one far candidate, so the row
// holds a valid summary. Returns the three neighbor ids.
std::vector<FileId> FillAndReject(RelationHarness& h, FileId a,
                                  std::vector<double> distances = {1.0, 5.0, 9.0}) {
  std::vector<FileId> nbs;
  for (size_t i = 0; i < distances.size(); ++i) {
    nbs.push_back(h.Id("nb" + std::to_string(i)));
    h.table().Observe(a, nbs.back(), distances[i]);
  }
  const FileId reject = h.Id("reject");
  h.table().Observe(a, reject, 50.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, reject), 0.0) << "setup: candidate must be rejected";
  return nbs;
}

// Integer distances read their log term and candidate mean from a table;
// both must be bit-identical to the computed values, or a candidate tying
// the farthest entry would replace it instead of being rejected.
TEST(RelationTable, TabledCandidateTiesFarthestEntryExactly) {
  RelationHarness h;
  const FileId a = h.Id("a");
  for (const char* nb : {"n1", "n2", "n3"}) {
    h.table().Observe(a, h.Id(nb), 7.0);
  }
  const FileId tie = h.Id("tie");
  h.table().Observe(a, tie, 7.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, tie), 0.0) << "a tie is not closer";
  EXPECT_EQ(h.table().DistanceOrNegative(a, h.Id("n1")), std::exp(std::log(7.0)));
}

TEST(RelationTable, SummaryDroppedWhenNeighborMarkedDeleted) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const std::vector<FileId> nbs = FillAndReject(h, a);

  // The closest neighbor dies; the correlator reports every liveness flip.
  h.files().MarkDeleted(nbs[0], /*delete_delay=*/1000);
  h.table().MarkSetChanged(nbs[0]);

  const FileId fresh = h.Id("fresh");
  h.table().Observe(a, fresh, 50.0);  // farther than everything: priority 1 only
  EXPECT_GT(h.table().DistanceOrNegative(a, fresh), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, nbs[0]), 0.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, nbs[2]), 0.0) << "farthest entry kept";
}

TEST(RelationTable, SummaryHonorsAgingAsOrdinalsAdvance) {
  SeerParams p = RelationHarness::MakeParams();
  p.aging_updates = 10;
  RelationHarness h(p);
  const FileId a = h.Id("a");
  const std::vector<FileId> nbs = FillAndReject(h, a);

  // Updates elsewhere age every entry of `a` without touching its row.
  const FileId busy = h.Id("busy");
  const FileId targets[] = {h.Id("t0"), h.Id("t1")};
  for (int i = 0; i < 20; ++i) {
    h.table().Observe(busy, targets[i % 2], 1.0);
  }
  const FileId newer = h.Id("newer");
  h.table().Observe(a, newer, 50.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, newer), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, nbs[0]), 0.0) << "oldest entry aged out";
}

TEST(RelationTable, SummaryDroppedWhenAgingLowered) {
  RelationHarness h;  // default aging_updates: nothing ages
  const FileId a = h.Id("a");
  const std::vector<FileId> nbs = FillAndReject(h, a);
  const FileId busy = h.Id("busy");
  const FileId targets[] = {h.Id("t0"), h.Id("t1")};
  for (int i = 0; i < 5; ++i) {
    h.table().Observe(busy, targets[i % 2], 1.0);
  }

  SeerParams lowered = h.params();
  lowered.aging_updates = 2;
  h.table().OverrideParams(lowered);
  const FileId newer = h.Id("newer");
  h.table().Observe(a, newer, 50.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, newer), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, nbs[0]), 0.0) << "oldest entry aged out";
}

TEST(RelationTable, SummaryDroppedWhenMeanKindSwitched) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const FileId x = h.Id("x");
  h.table().Observe(a, x, 1.0);
  h.table().Observe(a, x, 100.0);  // geometric mean 10, arithmetic 50.5
  h.table().Observe(a, h.Id("n1"), 5.0);
  h.table().Observe(a, h.Id("n2"), 5.0);
  const FileId first = h.Id("first");
  h.table().Observe(a, first, 20.0);  // geometric worst 10: rejected
  ASSERT_LT(h.table().DistanceOrNegative(a, first), 0.0);

  SeerParams arithmetic = h.params();
  arithmetic.mean_kind = MeanKind::kArithmetic;
  h.table().OverrideParams(arithmetic);
  const FileId second = h.Id("second");
  h.table().Observe(a, second, 20.0);  // arithmetic worst 50.5: replaces x
  EXPECT_GT(h.table().DistanceOrNegative(a, second), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, x), 0.0);
}

TEST(RelationTable, SummaryDroppedWhenHitFoldRaisesMean) {
  RelationHarness h;
  const FileId a = h.Id("a");
  const std::vector<FileId> nbs = FillAndReject(h, a, {2.0, 3.0, 3.0});

  // Folds push nb0's geometric mean from 2 to about 44.7.
  h.table().Observe(a, nbs[0], 1000.0);
  ASSERT_GT(h.table().DistanceOrNegative(a, nbs[0]), 40.0);

  const FileId closer = h.Id("closer");
  h.table().Observe(a, closer, 10.0);
  EXPECT_GT(h.table().DistanceOrNegative(a, closer), 0.0);
  EXPECT_LT(h.table().DistanceOrNegative(a, nbs[0]), 0.0) << "farthest entry replaced";
}

TEST(RelationTable, MemoryBytesCountsRowSummaries) {
  RelationHarness h;
  const size_t before = h.table().MemoryBytes();
  constexpr size_t kFiles = 1000;
  FileId last = h.Id("mem0");
  for (size_t i = 1; i < kFiles; ++i) {
    last = h.Id("mem" + std::to_string(i));
  }
  h.table().MarkSetChanged(last);  // sizes every per-file array at once
  // Slab stripe: id, log/linear sums, observations, ordinal, mean cache
  // and its stamp.
  const size_t per_file_slab =
      static_cast<size_t>(h.table().max_neighbors()) *
      (sizeof(FileId) + 3 * sizeof(double) + sizeof(uint32_t) + 2 * sizeof(uint64_t));
  // Entry count, reverse index, set stamp, and the rejection summary
  // (largest mean + oldest ordinal).
  const size_t per_file_rows = sizeof(uint32_t) + sizeof(std::vector<FileId>) +
                               sizeof(uint64_t) + sizeof(double) + sizeof(uint64_t);
  EXPECT_GE(h.table().MemoryBytes() - before, kFiles * (per_file_slab + per_file_rows));
}

// M arrives from a params file or a live `params set`, so it can be huge.
// The distance-term table is capped; distances past the cap compute their
// terms and fold the same as before.
TEST(RelationTable, HugeHorizonKeepsDistanceTableSmall) {
  SeerParams p = RelationHarness::MakeParams();
  p.distance_horizon = 2000000000;
  RelationHarness h(p);
  EXPECT_LT(h.table().MemoryBytes(), size_t{1} << 20);
  h.table().OverrideParams(p);
  EXPECT_LT(h.table().MemoryBytes(), size_t{1} << 20);

  const FileId a = h.Id("a");
  const FileId b = h.Id("b");
  const FileId c = h.Id("c");
  h.table().Observe(a, b, 5000.0);
  h.table().Observe(a, b, 20.0);
  h.table().Observe(a, c, 3.0);
  EXPECT_EQ(h.table().DistanceOrNegative(a, b), std::exp((std::log(5000.0) + std::log(20.0)) / 2));
  EXPECT_EQ(h.table().DistanceOrNegative(a, c), std::exp(std::log(3.0) / 1));
}

// Randomized trace over a small universe with deletes, renames and
// exclusions, tuned so that full rows, rejections and every replacement
// priority are common.
std::vector<IngestEvent> ChurnTrace(uint32_t seed, size_t count) {
  std::mt19937 rng(seed);
  std::vector<IngestEvent> events;
  Time time = 0;
  int next_rename = 0;
  auto path = [&]() { return GlobalPaths().Intern("/rs/f" + std::to_string(rng() % 48)); };
  for (size_t i = 0; i < count; ++i) {
    time += kMicrosPerSecond / 4;
    IngestEvent e;
    const uint32_t roll = rng() % 100;
    if (roll < 93) {
      e.kind = IngestEvent::Kind::kReference;
      e.ref.pid = 1 + rng() % 3;
      const uint32_t kind_roll = rng() % 10;
      e.ref.kind = kind_roll < 4 ? RefKind::kBegin : kind_roll < 7 ? RefKind::kEnd : RefKind::kPoint;
      e.ref.path = path();
      e.ref.time = time;
    } else if (roll < 96) {
      e.kind = IngestEvent::Kind::kDeleted;
      e.path = path();
      e.time = time;
    } else if (roll < 99) {
      e.kind = IngestEvent::Kind::kRenamed;
      e.path = path();
      e.path2 = rng() % 2 == 0 ? path()
                               : GlobalPaths().Intern("/rs/moved" + std::to_string(next_rename++));
      e.time = time;
    } else {
      e.kind = IngestEvent::Kind::kExcluded;
      e.path = path();
    }
    events.push_back(e);
  }
  return events;
}

// A correlator that round-trips through its snapshot every k events starts
// each stretch with every rejection summary cold; one that never does keeps
// them warm. Summaries are exact, so the two must stay byte-identical.
TEST(RelationTable, WarmSummariesMatchColdAfterSnapshotRoundTrips) {
  SeerParams p;
  p.max_neighbors = 4;
  p.distance_horizon = 20;
  p.delete_delay = 3;
  p.aging_updates = 300;
  for (const uint32_t seed : {1u, 2u, 3u}) {
    const std::vector<IngestEvent> events = ChurnTrace(seed, 6000);
    for (const size_t k : {37u, 500u}) {
      Correlator warm(p);
      std::unique_ptr<Correlator> cold = std::make_unique<Correlator>(p);
      for (size_t i = 0; i < events.size(); i += k) {
        const size_t n = std::min(k, events.size() - i);
        warm.IngestBatch(events.data() + i, n);
        cold->IngestBatch(events.data() + i, n);
        const std::string bytes = cold->EncodeSnapshot();
        ASSERT_EQ(warm.EncodeSnapshot(), bytes) << "seed " << seed << " k " << k << " at " << i;
        auto decoded = Correlator::DecodeSnapshot(bytes);
        ASSERT_TRUE(decoded.ok());
        cold = std::move(decoded).value();
      }
      EXPECT_EQ(warm.EncodeSnapshot(), cold->EncodeSnapshot()) << "seed " << seed << " k " << k;
    }
  }
}

}  // namespace
}  // namespace seer
