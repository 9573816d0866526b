// End-to-end integration tests: full SEER stack against the synthetic
// workload, checking the *direction* of the paper's headline results
// (Section 5.2): SEER's miss-free hoard tracks the working set while LRU
// needs more; live usage completes with sensible miss accounting and no
// severity-0 failures.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/live_sim.h"
#include "src/sim/machine_sim.h"

namespace seer {
namespace {

// A small machine so the test stays fast: ~2 weeks of daily periods.
MachineProfile TestProfile() {
  MachineProfile p = GetMachineProfile('D');
  p.days_measured = 16;
  p.active_hours_per_day = 0.4;
  p.env.num_projects = 5;
  p.env.size_scale = 3.0;
  return p;
}

TEST(Integration, MissFreeSimulationProducesSaneNumbers) {
  MissFreeSimConfig config;
  config.seed = 11;
  const MissFreeSimResult r = RunMissFreeSimulation(TestProfile(), config);

  ASSERT_GE(r.periods.size(), 10u);
  EXPECT_GT(r.trace_events, 1'000u);
  EXPECT_GT(r.files_tracked, 50u);

  for (const auto& p : r.periods) {
    // The working set is a lower bound for every algorithm.
    EXPECT_GE(p.seer_mb, p.working_set_mb - 1e-6);
    EXPECT_GE(p.lru_mb, p.working_set_mb - 1e-6);
    EXPECT_EQ(p.uncovered_seer, 0u);
    EXPECT_EQ(p.uncovered_lru, 0u);
  }
}

TEST(Integration, SeerBeatsLruOnAverage) {
  MissFreeSimConfig config;
  config.seed = 12;
  const MissFreeSimResult r = RunMissFreeSimulation(TestProfile(), config);
  ASSERT_GT(r.periods.size(), 0u);
  // The paper's central claim, directionally: the clustering manager needs
  // less space than strict LRU, and stays near the working set.
  EXPECT_LT(r.seer_mb.mean, r.lru_mb.mean);
  EXPECT_LT(r.seer_mb.mean, 3.0 * r.working_set_mb.mean + 1.0);
}

TEST(Integration, WeeklyPeriodsAggregateDays) {
  MachineProfile p = TestProfile();
  p.days_measured = 21;
  MissFreeSimConfig daily;
  daily.seed = 13;
  MissFreeSimConfig weekly;
  weekly.seed = 13;
  weekly.period = 7 * kMicrosPerDay;
  const auto rd = RunMissFreeSimulation(p, daily);
  const auto rw = RunMissFreeSimulation(p, weekly);
  ASSERT_GT(rw.periods.size(), 0u);
  // Weekly working sets are at least as large as daily ones on average.
  EXPECT_GE(rw.working_set_mb.mean, rd.working_set_mb.mean * 0.9);
  EXPECT_EQ(rw.periods.size(), 2u);  // 21 days, one warmup week
}

TEST(Integration, InvestigatorsRunWithoutBreakingResults) {
  MissFreeSimConfig with;
  with.seed = 14;
  with.use_investigators = true;
  const auto r = RunMissFreeSimulation(TestProfile(), with);
  ASSERT_GT(r.periods.size(), 0u);
  for (const auto& p : r.periods) {
    EXPECT_EQ(p.uncovered_seer, 0u);
  }
}

TEST(Integration, LiveUsageRunsAndAccountsMisses) {
  MachineProfile p = TestProfile();
  LiveSimConfig config;
  config.seed = 15;
  config.disconnections_override = 12;
  const LiveSimResult r = RunLiveUsage(p, config);

  ASSERT_EQ(r.disconnections.size(), 12u);
  EXPECT_GT(r.trace_events, 1'000u);
  EXPECT_GT(r.replication.files_fetched, 0u);
  for (const auto& d : r.disconnections) {
    EXPECT_GT(d.wall_hours, 0.0);
    EXPECT_LE(d.active_hours, d.wall_hours + 1e-9);
    for (const auto& m : d.misses) {
      EXPECT_GE(m.time, 0);  // offsets into the disconnection
    }
  }
  // The paper observed no severity-0 (machine unusable) misses, ever;
  // critical files are always hoarded, so none should appear here either.
  EXPECT_EQ(r.failures_by_severity()[0], 0u);
}

TEST(Integration, TinyHoardForcesMisses) {
  MachineProfile p = TestProfile();
  LiveSimConfig config;
  config.seed = 16;
  config.disconnections_override = 15;
  config.hoard_mb_override = 0.2;  // absurdly small: projects cannot fit
  const LiveSimResult r = RunLiveUsage(p, config);
  size_t total_misses = 0;
  for (const auto& d : r.disconnections) {
    total_misses += d.misses.size();
  }
  EXPECT_GT(total_misses, 0u);
}

TEST(Integration, GenerousHoardIsMissFree) {
  MachineProfile p = TestProfile();
  LiveSimConfig config;
  config.seed = 17;
  config.disconnections_override = 10;
  config.hoard_mb_override = 10'000.0;  // everything fits
  const LiveSimResult r = RunLiveUsage(p, config);
  EXPECT_EQ(r.failures_any_severity(), 0u);
}

TEST(Integration, CodaSubstrateServicesConnectedMissesRemotely) {
  MachineProfile p = TestProfile();
  LiveSimConfig config;
  config.seed = 18;
  config.disconnections_override = 6;
  config.replicator = ReplicatorKind::kCoda;
  const LiveSimResult r = RunLiveUsage(p, config);
  EXPECT_EQ(r.disconnections.size(), 6u);
}

TEST(Integration, CodaBaselineTracked) {
  MissFreeSimConfig config;
  config.seed = 21;
  config.include_coda = true;
  const MissFreeSimResult r = RunMissFreeSimulation(TestProfile(), config);
  ASSERT_GT(r.periods.size(), 0u);
  EXPECT_GT(r.coda_mb.count, 0u);
  for (const auto& p : r.periods) {
    EXPECT_GE(p.coda_mb, p.working_set_mb - 1e-6)
        << "the working set lower-bounds every manager";
  }
}

TEST(Integration, PartialHoardPolicyRuns) {
  MachineProfile p = TestProfile();
  LiveSimConfig config;
  config.seed = 22;
  config.disconnections_override = 8;
  config.hoard_mb_override = 2.0;  // force pressure
  config.allow_partial_projects = true;
  const LiveSimResult r = RunLiveUsage(p, config);
  EXPECT_EQ(r.disconnections.size(), 8u);
}

// A golden Figure 2 row: machine A, daily periods, 14 days, seed 977, with
// every PeriodStats field exactly as the fold produced it before the fold's
// fast paths (rejection summaries, tabled distance terms) existed. Those
// paths must be exact, so any change to them that moves a figure fails
// here, not only in the benchmark's digest.
TEST(Integration, Figure2GoldenRowMachineA) {
  MissFreeSimConfig config;
  config.seed = 977;
  config.days_override = 14;
  const MissFreeSimResult r = RunMissFreeSimulation(GetMachineProfile('A'), config);
  const std::vector<PeriodStats> golden = {
      {0x1.5f2ffp+2, 0x1.a22e7cp+3, 0x1.d0add8p+3, 0x0p+0, 42, 0, 0, "/usr/include/sys4.h",
       "/usr/include/sys4.h"},
      {0x1.f00f18p+1, 0x1.003597p+4, 0x1.02046ep+4, 0x0p+0, 33, 0, 0, "/usr/include/sys19.h",
       "/usr/include/sys19.h"},
      {0x1.62b7dcp+2, 0x1.e5d3fep+3, 0x1.02c046p+4, 0x0p+0, 38, 0, 0, "/home/a/proj2/mod7.o",
       "/usr/include/sys14.h"},
      {0x1.0e97c8p+2, 0x1.a366b8p+3, 0x1.2d457p+2, 0x0p+0, 35, 0, 0, "/home/a/proj2/prog",
       "/bin/ls"},
      {0x1.5427dp+2, 0x1.003597p+4, 0x1.0511aep+4, 0x0p+0, 37, 0, 0, "/home/a/proj1/mod7.o",
       "/usr/include/sys15.h"},
      {0x1.61d894p+2, 0x1.ba066cp+3, 0x1.55ca7ap+3, 0x0p+0, 39, 0, 0, "/home/a/mail/folder2",
       "/home/a/mail/folder2"},
      {0x1.72c488p+2, 0x1.aa09bcp+3, 0x1.5cbcfap+3, 0x0p+0, 40, 0, 0, "/home/a/mail/folder1",
       "/home/a/mail/folder1"},
      {0x1.1bf974p+2, 0x1.c40304p+3, 0x1.ccf4d2p+3, 0x0p+0, 32, 0, 0, "/usr/include/sys12.h",
       "/usr/include/sys8.h"},
      {0x1.916a64p+2, 0x1.c40304p+3, 0x1.c8048ap+3, 0x0p+0, 59, 0, 0, "/home/a/proj2/mod7.o",
       "/home/a/doc/paper2.refs"},
      {0x1.3a449cp+2, 0x1.aa0c56p+3, 0x1.72527cp+3, 0x0p+0, 34, 0, 0, "/var/spool/mail/a",
       "/home/a/mail/folder0"},
      {0x1.5018bp+2, 0x1.003597p+4, 0x1.0954f6p+4, 0x0p+0, 36, 0, 0, "/home/a/proj3/mod7.o",
       "/home/a/proj3/Makefile"},
      {0x1.847688p+2, 0x1.003597p+4, 0x1.0964c6p+4, 0x0p+0, 57, 0, 0, "/usr/include/sys9.h",
       "/home/a/proj3/NOTES"},
      {0x1.679d2p+2, 0x1.a2b132p+3, 0x1.09a58ep+4, 0x0p+0, 59, 0, 0, "/usr/include/sys2.h",
       "/home/a/proj3/README"},
  };
  ASSERT_EQ(r.periods.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    const PeriodStats& got = r.periods[i];
    const PeriodStats& want = golden[i];
    EXPECT_EQ(got.working_set_mb, want.working_set_mb) << "period " << i;
    EXPECT_EQ(got.seer_mb, want.seer_mb) << "period " << i;
    EXPECT_EQ(got.lru_mb, want.lru_mb) << "period " << i;
    EXPECT_EQ(got.coda_mb, want.coda_mb) << "period " << i;
    EXPECT_EQ(got.referenced_files, want.referenced_files) << "period " << i;
    EXPECT_EQ(got.uncovered_seer, want.uncovered_seer) << "period " << i;
    EXPECT_EQ(got.uncovered_lru, want.uncovered_lru) << "period " << i;
    EXPECT_EQ(got.deepest_seer, want.deepest_seer) << "period " << i;
    EXPECT_EQ(got.deepest_lru, want.deepest_lru) << "period " << i;
  }
}

TEST(Integration, DeterministicAcrossRuns) {
  MissFreeSimConfig config;
  config.seed = 19;
  const auto a = RunMissFreeSimulation(TestProfile(), config);
  const auto b = RunMissFreeSimulation(TestProfile(), config);
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (size_t i = 0; i < a.periods.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.periods[i].seer_mb, b.periods[i].seer_mb);
    EXPECT_DOUBLE_EQ(a.periods[i].lru_mb, b.periods[i].lru_mb);
  }
}

}  // namespace
}  // namespace seer
