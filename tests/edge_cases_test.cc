// Edge-case coverage across modules: boundary parameters, unusual call
// sequences, and corner semantics not exercised by the main suites.
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/correlator.h"
#include "src/core/hoard.h"
#include "src/core/reference_streams.h"
#include "src/observer/observer.h"
#include "src/process/syscall_tracer.h"
#include "src/sim/disconnect_model.h"
#include "src/util/stats.h"
#include "src/vfs/sim_filesystem.h"

namespace seer {
namespace {

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, RefKind kind, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = kind;
  r.path = P(path);
  r.time = time;
  return r;
}

// --- reference streams at boundary parameters -----------------------------------

TEST(EdgeCases, HorizonOfOne) {
  SeerParams params;
  params.distance_horizon = 1;
  FileTable files;
  ReferenceStreams streams(params);
  const FileId a = files.Intern(P("/a"));
  const FileId b = files.Intern(P("/b"));
  const FileId c = files.Intern(P("/c"));
  std::vector<DistanceObservation> scratch;
  streams.OnPoint(1, a, 1, &scratch);
  std::vector<DistanceObservation> at_b;
  streams.OnPoint(1, b, 2, &at_b);  // a is exactly 1 open back
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_DOUBLE_EQ(at_b[0].distance, 1.0);
  std::vector<DistanceObservation> at_c;
  streams.OnPoint(1, c, 3, &at_c);  // a now out of the window
  ASSERT_EQ(at_c.size(), 1u);
  EXPECT_EQ(at_c[0].from, b);
}

TEST(EdgeCases, NeighborListOfOne) {
  SeerParams params;
  params.max_neighbors = 1;
  FileTable files;
  RelationTable table(params, &files);
  const FileId a = files.Intern(P("/a"));
  const FileId close = files.Intern(P("/close"));
  const FileId far = files.Intern(P("/far"));
  table.Observe(a, far, 50.0);
  table.Observe(a, close, 1.0);  // closer candidate displaces the only slot
  EXPECT_LT(table.DistanceOrNegative(a, far), 0.0);
  EXPECT_GT(table.DistanceOrNegative(a, close), 0.0);
  EXPECT_EQ(table.NeighborsOf(a).size(), 1u);
}

TEST(EdgeCases, RepeatedOpenOnlyCountsClosestPair) {
  // Footnote 1: {A, A, ..., B} uses the closest pair.
  SeerParams params;
  FileTable files;
  ReferenceStreams streams(params);
  const FileId a = files.Intern(P("/a"));
  const FileId b = files.Intern(P("/b"));
  std::vector<DistanceObservation> scratch;
  for (int i = 0; i < 5; ++i) {
    streams.OnPoint(1, a, i + 1, &scratch);
    scratch.clear();
  }
  std::vector<DistanceObservation> obs;
  streams.OnPoint(1, b, 10, &obs);
  ASSERT_EQ(obs.size(), 1u);
  EXPECT_DOUBLE_EQ(obs[0].distance, 1.0);  // from the LAST open of a
}

// --- correlator rename chains -----------------------------------------------------

TEST(EdgeCases, RenameChainPreservesIdentity) {
  Correlator correlator;
  for (int i = 0; i < 4; ++i) {
    correlator.OnReference(Ref(1, RefKind::kPoint, "/p/v1", i * 2 + 1));
    correlator.OnReference(Ref(1, RefKind::kPoint, "/p/partner", i * 2 + 2));
  }
  correlator.OnFileRenamed(P("/p/v1"), P("/p/v2"), 100);
  correlator.OnFileRenamed(P("/p/v2"), P("/p/v3"), 101);
  correlator.OnFileRenamed(P("/p/v3"), P("/p/v1"), 102);  // full circle
  EXPECT_GE(correlator.Distance("/p/v1", "/p/partner"), 0.0);
  EXPECT_EQ(correlator.files().FindPath("/p/v2"), kInvalidFileId);
  EXPECT_EQ(correlator.files().FindPath("/p/v3"), kInvalidFileId);
}

TEST(EdgeCases, RenameOntoTrackedFileRetiresTarget) {
  Correlator correlator;
  correlator.OnReference(Ref(1, RefKind::kPoint, "/p/old", 1));
  correlator.OnReference(Ref(1, RefKind::kPoint, "/p/target", 2));
  correlator.OnFileRenamed(P("/p/old"), P("/p/target"), 3);
  const FileId id = correlator.files().FindPath("/p/target");
  ASSERT_NE(id, kInvalidFileId);
  // Exactly one live record answers for /p/target.
  size_t live_with_name = 0;
  for (const FileId candidate : correlator.files().LiveIds()) {
    if (correlator.files().Get(candidate).path == GlobalPaths().Find("/p/target")) {
      ++live_with_name;
    }
  }
  EXPECT_EQ(live_with_name, 1u);
}

// --- observer getcwd bookkeeping ---------------------------------------------------

TEST(EdgeCases, GetcwdDoesNotPoisonPotentialCounters) {
  SimFilesystem fs;
  fs.MkdirAll("/home/u/a/b/c");
  for (int i = 0; i < 50; ++i) {
    fs.CreateFile("/home/u/f" + std::to_string(i), 10);
  }
  fs.MkdirAll("/bin");
  fs.CreateFile("/bin/editor", 100);
  ProcessTable procs;
  SimClock clock;
  SyscallTracer tracer(&fs, &procs, &clock);
  ObserverConfig config;
  config.meaningless_min_potential = 10;
  Observer observer(config, &fs);
  tracer.AddSink(&observer);

  const Pid user = procs.SpawnInit(1000, "/home/u/a/b/c");
  const Pid ed = tracer.Fork(user).pid;
  tracer.Exec(ed, "/bin/editor");
  // getcwd climb from the deep cwd to root: /home/u has 50+ entries; if
  // these readdir results counted as "potential", the editor would look
  // like find.
  for (const char* dir : {"/home/u/a/b/c", "/home/u/a/b", "/home/u/a", "/home/u", "/home", "/"}) {
    const auto d = tracer.OpenDir(ed, dir);
    if (d.ok()) {
      tracer.ReadDir(ed, d.fd);
      tracer.CloseDir(ed, d.fd);
    }
  }
  const auto r = tracer.Open(ed, "/home/u/f0", false);
  if (r.ok()) {
    tracer.Close(ed, r.fd);
  }
  tracer.Exit(ed);
  EXPECT_FALSE(observer.IsMeaninglessProgram("/bin/editor"));
}

// --- hoard manager corner cases -----------------------------------------------------

TEST(EdgeCases, ZeroBudgetStillTakesUnconditionals) {
  Correlator correlator;
  correlator.OnReference(Ref(1, RefKind::kPoint, "/p/a", 1));
  HoardManager manager(0);
  const std::set<PathId> always = {P("/etc/passwd")};
  const auto sel = manager.ChooseHoard(correlator, correlator.BuildClusters(), always,
                                       [](PathId) { return 100ull; });
  EXPECT_TRUE(sel.Contains("/etc/passwd"));
  EXPECT_FALSE(sel.Contains("/p/a"));
}

TEST(EdgeCases, EmptyCorrelatorHoardsNothingButAlways) {
  Correlator correlator;
  HoardManager manager(1'000'000);
  const auto sel = manager.ChooseHoard(correlator, correlator.BuildClusters(), {P("/x")},
                                       [](PathId) { return 1ull; });
  EXPECT_EQ(sel.files.size(), 1u);
  EXPECT_EQ(sel.projects_hoarded, 0u);
}

// --- disconnect sampler clamps -------------------------------------------------------

TEST(EdgeCases, SamplerClampsToFilterFloorAndMax) {
  DisconnectionSampler sampler(2.0, 1.0, 3.0);
  Rng rng(3);
  for (int i = 0; i < 5'000; ++i) {
    const double h = sampler.SampleHours(rng);
    EXPECT_GE(h, 0.25);
    EXPECT_LE(h, 3.0);
  }
}

TEST(EdgeCases, DegenerateSamplerParameters) {
  // median >= mean would give sigma^2 <= 0; the sampler must stay sane.
  DisconnectionSampler sampler(1.0, 5.0, 10.0);
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const double h = sampler.SampleHours(rng);
    EXPECT_GE(h, 0.25);
    EXPECT_LE(h, 10.0);
  }
}

// --- stats singletons ---------------------------------------------------------------

TEST(EdgeCases, SummaryOfOneSample) {
  const Summary s = Summarize({7.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci99_half_width, 0.0);
}

// --- vfs pathological paths -----------------------------------------------------------

TEST(EdgeCases, VfsHandlesWeirdButLegalPaths) {
  SimFilesystem fs;
  EXPECT_EQ(fs.MkdirAll("/a/./b/../b/c"), VfsStatus::kOk);
  EXPECT_TRUE(fs.Exists("/a/b/c"));
  EXPECT_EQ(fs.CreateFile("/a/b/c//file", 1), VfsStatus::kOk);
  EXPECT_TRUE(fs.Exists("/a/b/c/file"));
  EXPECT_EQ(fs.Rmdir("/"), VfsStatus::kNotEmpty);
  EXPECT_EQ(fs.Remove("/"), VfsStatus::kIsDir);
}

// --- tracer fd exhaustion-ish behaviour -----------------------------------------------

TEST(EdgeCases, ManyOpenFilesInOneProcess) {
  SimFilesystem fs;
  fs.MkdirAll("/d");
  for (int i = 0; i < 200; ++i) {
    fs.CreateFile("/d/f" + std::to_string(i), 1);
  }
  ProcessTable procs;
  SimClock clock;
  SyscallTracer tracer(&fs, &procs, &clock);
  const Pid p = procs.SpawnInit(1000, "/d");
  std::vector<Fd> fds;
  for (int i = 0; i < 200; ++i) {
    const auto r = tracer.Open(p, std::string("f").append(std::to_string(i)), false);
    ASSERT_TRUE(r.ok());
    fds.push_back(r.fd);
  }
  // All fds distinct; closing in reverse order works.
  std::set<Fd> unique(fds.begin(), fds.end());
  EXPECT_EQ(unique.size(), fds.size());
  for (auto it = fds.rbegin(); it != fds.rend(); ++it) {
    EXPECT_TRUE(tracer.Close(p, *it).ok());
  }
  // Implicit close on exit leaks nothing after explicit closes.
  EXPECT_TRUE(procs.Exit(p).empty());
}

}  // namespace
}  // namespace seer
