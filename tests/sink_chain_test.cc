// Tests for the composable ReferenceSink decorators and their metrics
// (the observability layer over the observer-to-correlator data plane).
#include "src/observer/sink_chain.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace seer {
namespace {

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, RefKind kind, std::string_view path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = kind;
  r.path = P(path);
  r.time = time;
  return r;
}

// Terminal sink recording everything it receives.
class RecordingSink : public ReferenceSink {
 public:
  void OnReference(const FileReference& ref) override { refs.push_back(ref.path); }
  void OnProcessFork(Pid, Pid) override { ++forks; }
  void OnProcessExit(Pid) override { ++exits; }
  void OnFileDeleted(PathId path, Time) override { deleted.push_back(path); }
  void OnFileRenamed(PathId from, PathId to, Time) override {
    renames.push_back({from, to});
  }
  void OnFileExcluded(PathId path) override { excluded.push_back(path); }

  std::vector<PathId> refs;
  std::vector<PathId> deleted;
  std::vector<std::pair<PathId, PathId>> renames;
  std::vector<PathId> excluded;
  int forks = 0;
  int exits = 0;
};

void DriveAll(ReferenceSink* sink) {
  sink->OnReference(Ref(1, RefKind::kPoint, "/s/a", 1));
  sink->OnReference(Ref(1, RefKind::kBegin, "/s/b", 2));
  sink->OnReference(Ref(1, RefKind::kEnd, "/s/b", 3));
  sink->OnProcessFork(1, 2);
  sink->OnProcessExit(2);
  sink->OnFileDeleted(P("/s/a"), 4);
  sink->OnFileRenamed(P("/s/b"), P("/s/c"), 5);
  sink->OnFileExcluded(P("/s/c"));
}

TEST(InstrumentedSink, CountsEveryCallbackKind) {
  RecordingSink terminal;
  InstrumentedSink instrumented("stage", &terminal);
  DriveAll(&instrumented);

  const SinkCounters& c = instrumented.counters();
  EXPECT_EQ(c.references, 3u);
  EXPECT_EQ(c.forks, 1u);
  EXPECT_EQ(c.exits, 1u);
  EXPECT_EQ(c.deletes, 1u);
  EXPECT_EQ(c.renames, 1u);
  EXPECT_EQ(c.exclusions, 1u);
  EXPECT_EQ(c.total(), 8u);

  // Everything passed through untouched.
  EXPECT_EQ(terminal.refs.size(), 3u);
  EXPECT_EQ(terminal.deleted.size(), 1u);
  ASSERT_EQ(terminal.renames.size(), 1u);
  EXPECT_EQ(terminal.renames[0].first, P("/s/b"));
  EXPECT_EQ(terminal.renames[0].second, P("/s/c"));
}

TEST(InstrumentedSink, RecordsLatencyOfDownstreamCalls) {
  RecordingSink terminal;
  InstrumentedSink instrumented("timed", &terminal);
  for (int i = 0; i < 100; ++i) {
    instrumented.OnReference(Ref(1, RefKind::kPoint, "/t/f", i + 1));
  }
  EXPECT_EQ(instrumented.latency().count(), 100u);
  EXPECT_GT(instrumented.latency().max_ns(), 0u);
  EXPECT_GE(instrumented.latency().PercentileNs(0.99),
            instrumented.latency().PercentileNs(0.50));
}

TEST(LatencyHistogram, PercentileBoundsContainSamples) {
  LatencyHistogram h;
  for (uint64_t ns : {10, 100, 1'000, 10'000, 100'000}) {
    h.Record(ns);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.max_ns(), 100'000u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), (10 + 100 + 1'000 + 10'000 + 100'000) / 5.0);
  // The p100 bucket upper bound must cover the max sample.
  EXPECT_GE(h.PercentileNs(1.0), 100'000u);
  // The median bucket is far below the tail.
  EXPECT_LT(h.PercentileNs(0.5), h.PercentileNs(1.0));
}

TEST(SinkChain, ComposesProducerToConsumer) {
  RecordingSink terminal;
  SinkChain chain(&terminal);
  chain.Instrument("correlator", /*measure_latency=*/false);  // runs second
  chain.Instrument("observer");                               // runs first
  DriveAll(chain.head());

  const std::vector<const InstrumentedSink*> stages = chain.instrumented();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0]->label(), "observer");  // producer first
  EXPECT_EQ(stages[1]->label(), "correlator");
  EXPECT_EQ(stages[0]->counters().total(), 8u);
  EXPECT_EQ(stages[1]->counters().total(), 8u);
  // Only the producer-side stage was asked to time its downstream call,
  // which includes the consumer-side stage.
  EXPECT_EQ(stages[0]->latency().count(), 3u);
  EXPECT_EQ(stages[1]->latency().count(), 0u);
  EXPECT_EQ(terminal.refs.size(), 3u);
  EXPECT_EQ(terminal.forks, 1);
  EXPECT_EQ(terminal.excluded.size(), 1u);
}

TEST(SinkChain, FormatMetricsNamesEveryStage) {
  RecordingSink terminal;
  SinkChain chain(&terminal);
  chain.Instrument("correlator");
  chain.Instrument("observer");
  chain.head()->OnReference(Ref(1, RefKind::kPoint, "/m/x", 1));
  const std::string table = chain.FormatMetrics();
  EXPECT_NE(table.find("observer"), std::string::npos);
  EXPECT_NE(table.find("correlator"), std::string::npos);
}

}  // namespace
}  // namespace seer
