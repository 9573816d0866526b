// paper-sim: the Figure 2 sweep, driven through the whole in-process
// stack.
//
// For every machine A-I, daily and weekly disconnection periods, plus the
// starred investigator variants of B, F and G, the stack of
// src/sim/machine_sim.cc is assembled here from the public API: user
// model -> syscall tracer -> {observer -> correlator, LRU tracker,
// working-set tracker}. Assembling it here (rather than calling
// RunMissFreeSimulation) lets the benchmark time each simulated
// reconnection, and wrap each layer call in a span on the traced pass.
// The output check then runs RunMissFreeSimulation itself for every
// configuration and requires identical per-period statistics.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "span_trace.h"
#include "src/baselines/lru.h"
#include "src/core/correlator.h"
#include "src/core/investigator.h"
#include "src/observer/observer.h"
#include "src/process/syscall_tracer.h"
#include "src/sim/machine_sim.h"
#include "src/sim/missfree.h"
#include "src/sim/trackers.h"
#include "src/workload/environment.h"
#include "src/workload/machine_profile.h"
#include "src/workload/user_model.h"

namespace seerbench {
namespace {

using seer::ClusterSet;
using seer::MachineProfile;
using seer::MissFreeResult;
using seer::MissFreeSimConfig;
using seer::PeriodStats;
using seer::Time;

constexpr double kMb = 1024.0 * 1024.0;
// Figure 2's default scale: at most 56 simulated days per machine.
constexpr int kMaxDays = 56;

// One simulation of the sweep: a machine, a period length, with or
// without investigators, and a generator seed.
struct SweepConfig {
  MachineProfile profile;
  bool weekly = false;
  bool investigators = false;
  uint64_t seed = 1;

  // The Figure 2 row this simulation contributes to.
  std::string Row() const {
    return std::string(1, profile.name) + (investigators ? "*" : " ") +
           (weekly ? " weekly" : " daily ");
  }
  std::string Label() const { return Row() + " seed " + std::to_string(seed); }
};

// Figure 2's rows, in its order, once per seed.
std::vector<SweepConfig> Sweep(const std::vector<uint64_t>& seeds) {
  std::vector<SweepConfig> sweep;
  for (const uint64_t seed : seeds) {
    for (const MachineProfile& profile : seer::AllMachineProfiles()) {
      for (const bool investigators : {false, true}) {
        if (investigators && !profile.investigator_variant) {
          continue;
        }
        for (const bool weekly : {false, true}) {
          sweep.push_back(SweepConfig{profile, weekly, investigators, seed});
        }
      }
    }
  }
  return sweep;
}

// An untraced run sweeps kSeedsPerSweep generator seeds, 977 * k for
// k = 3n + 1 .. 3n + 3 at benchmark seed n: enough work that host noise
// averages out. Figure 2's bench averages 977 * 1 and 977 * 2, the first
// two seeds of benchmark seed 0.
constexpr uint64_t kSeedsPerSweep = 3;

std::vector<uint64_t> SweepSeeds(uint64_t seed, uint64_t count) {
  std::vector<uint64_t> seeds;
  for (uint64_t k = 0; k < count; ++k) {
    seeds.push_back(977 * (kSeedsPerSweep * seed + k + 1));
  }
  return seeds;
}

MissFreeSimConfig SimConfigFor(const SweepConfig& c) {
  MissFreeSimConfig config;
  config.period = c.weekly ? 7 * seer::kMicrosPerDay : seer::kMicrosPerDay;
  config.use_investigators = c.investigators;
  config.seed = c.seed;
  config.days_override = std::min(c.profile.days_measured, kMaxDays);
  return config;
}

seer::UserEnvironment BuildEnvironmentSpanned(seer::SimFilesystem* fs,
                                              const MachineProfile& profile, seer::Rng* rng) {
  Span span(SpanName::kWorkload);
  return seer::BuildEnvironment(fs, profile.env, rng);
}

// machine_sim.cc's stack. On the traced pass every sink the tracer fans
// out to, and the observer's correlator sink, sits behind a span wrapper;
// on the untraced pass the sinks are wired directly.
struct Stack {
  Stack(const MachineProfile& profile, const MissFreeSimConfig& config, bool traced)
      : env_rng(config.seed ^ profile.seed_base),
        env(BuildEnvironmentSpanned(&fs, profile, &env_rng)),
        tracer(&fs, &processes, &clock),
        observer(config.observer, &fs),
        correlator(config.params, config.seed ^ profile.seed_base),
        spanned_correlator(SpanName::kCorrelator, &correlator),
        spanned_observer(SpanName::kObserver, &observer),
        spanned_lru(SpanName::kBaselinesLru, &lru),
        spanned_working_set(SpanName::kSimTracker, &working_set) {
    observer.PretrainProgramHistory(env.find, 10'000, 9'000);
    observer.set_sink(traced ? static_cast<seer::ReferenceSink*>(&spanned_correlator)
                             : &correlator);
    if (config.use_investigators) {
      correlator.AddInvestigator(std::make_unique<seer::IncludeScanner>());
      correlator.AddInvestigator(std::make_unique<seer::MakefileInvestigator>());
      correlator.AddInvestigator(std::make_unique<seer::HotLinkInvestigator>());
    }
    if (traced) {
      tracer.AddSink(&spanned_observer);
      tracer.AddSink(&spanned_lru);
      tracer.AddSink(&spanned_working_set);
    } else {
      tracer.AddSink(&observer);
      tracer.AddSink(&lru);
      tracer.AddSink(&working_set);
    }
    // Last: the user model's constructor already issues syscalls, which
    // every sink must see.
    user = std::make_unique<seer::UserModel>(&tracer, &env, profile.user,
                                             config.seed ^ (profile.seed_base << 1));
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  seer::SimFilesystem fs;
  seer::Rng env_rng;
  seer::UserEnvironment env;
  seer::ProcessTable processes;
  seer::SimClock clock;
  seer::SyscallTracer tracer;
  seer::Observer observer;
  seer::Correlator correlator;
  seer::LruTracker lru;
  seer::WorkingSetTracker working_set;
  SpannedReferenceSink spanned_correlator;
  SpannedTraceSink spanned_observer;
  SpannedTraceSink spanned_lru;
  SpannedTraceSink spanned_working_set;
  std::unique_ptr<seer::UserModel> user;
};

struct ConfigRun {
  std::vector<PeriodStats> periods;
  uint64_t events_total = 0;     // setup history + simulated periods
  uint64_t events_measured = 0;  // simulated periods only
  uint64_t references = 0;       // observer -> correlator
  double loop_s = 0.0;           // wall time of the simulated periods
  std::vector<double> setup_s;   // one per setup repeat
  std::vector<double> reconnect_ms;
};

std::unique_ptr<Stack> SetUp(const SweepConfig& c, const MissFreeSimConfig& config, bool traced) {
  auto stack = std::make_unique<Stack>(c.profile, config, traced);
  // Pre-trace history: both managers start from a mature reference
  // history, as in machine_sim.cc.
  Span span(SpanName::kWorkload);
  stack->user->SeedHistory();
  return stack;
}

ConfigRun RunConfig(const SweepConfig& c, bool traced, int setup_repeats) {
  const MissFreeSimConfig config = SimConfigFor(c);
  const MachineProfile& profile = c.profile;
  ConfigRun run;

  std::unique_ptr<Stack> stack;
  for (int r = 0; r < setup_repeats; ++r) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    stack = SetUp(c, config, traced);
    run.setup_s.push_back(SecondsSince(start));
  }
  Stack& s = *stack;
  const uint64_t setup_events = s.tracer.events_emitted();

  const seer::SizeOfFn size_of = [&s, &config](const std::string& path) -> uint64_t {
    const auto info = s.fs.Stat(path);
    if (info.has_value()) {
      return info->size;
    }
    return seer::GeometricSizeForPath(path, config.seed);
  };

  const Clock::time_point loop_start = Clock::now();
  const Time origin = s.clock.now();
  const int days = config.days_override;
  const int period_days = static_cast<int>(config.period / seer::kMicrosPerDay);
  const int total_periods = std::max(1, days / std::max(1, period_days));

  for (int p = 0; p < total_periods; ++p) {
    // Infinitesimal reconnection: both managers recompute their fill
    // orders from everything seen so far.
    std::vector<std::string> seer_order;
    std::vector<std::string> lru_order;
    const bool measured = p >= config.warmup_periods;
    if (measured) {
      if (config.use_investigators) {
        Span span(SpanName::kCorrelator);
        s.correlator.RunInvestigators(s.fs);
      }
      const Clock::time_point reconnect = Clock::now();
      ClusterSet clusters;
      {
        Span span(SpanName::kClustering);
        clusters = s.correlator.BuildClusters();
      }
      {
        Span span(SpanName::kHoard);
        seer_order = seer::SeerCoverageOrder(s.correlator, clusters, s.observer.always_hoard());
      }
      run.reconnect_ms.push_back(MillisBetween(reconnect, Clock::now()));
      std::vector<std::string> universe;
      {
        Span span(SpanName::kWorkload);
        universe = s.fs.AllRegularFiles();
      }
      {
        Span span(SpanName::kBaselinesLruOrder);
        lru_order = s.lru.CoverageOrder();
      }
      Span span(SpanName::kSimMissFree);
      seer_order = seer::WithTail(std::move(seer_order), universe);
      lru_order = seer::WithTail(std::move(lru_order), universe);
    }
    {
      Span span(SpanName::kSimTracker);
      s.working_set.Reset();
    }

    // The disconnection period: active hours each day, idle otherwise.
    for (int d = 0; d < period_days; ++d) {
      {
        Span span(SpanName::kWorkload);
        s.user->RunActiveHours(profile.active_hours_per_day);
      }
      const Time day_end = origin + static_cast<Time>(p) * config.period +
                           static_cast<Time>(d + 1) * seer::kMicrosPerDay;
      if (s.clock.now() < day_end) {
        s.clock.Advance(day_end - s.clock.now());
      }
    }

    if (!measured) {
      continue;
    }
    std::set<std::string> referenced;
    {
      Span span(SpanName::kSimTracker);
      referenced = s.working_set.ReferencedPreexisting();
    }
    Span span(SpanName::kSimMissFree);
    PeriodStats stats;
    stats.referenced_files = referenced.size();
    stats.working_set_mb =
        static_cast<double>(seer::WorkingSetBytes(referenced, size_of)) / kMb;
    const MissFreeResult seer_mf = seer::ComputeMissFree(seer_order, referenced, size_of);
    const MissFreeResult lru_mf = seer::ComputeMissFree(lru_order, referenced, size_of);
    stats.seer_mb = static_cast<double>(seer_mf.bytes) / kMb;
    stats.lru_mb = static_cast<double>(lru_mf.bytes) / kMb;
    stats.uncovered_seer = seer_mf.uncovered;
    stats.uncovered_lru = lru_mf.uncovered;
    stats.deepest_seer = seer_mf.deepest;
    stats.deepest_lru = lru_mf.deepest;
    run.periods.push_back(stats);
  }

  run.loop_s = SecondsSince(loop_start);
  run.events_total = s.tracer.events_emitted();
  run.events_measured = run.events_total - setup_events;
  run.references = s.observer.references_emitted();
  return run;
}

struct Round {
  std::vector<ConfigRun> configs;
  double wall_s = 0.0;
};

Round RunRound(const std::vector<SweepConfig>& sweep, bool traced, int setup_repeats) {
  Round round;
  const Clock::time_point start = Clock::now();
  for (const SweepConfig& c : sweep) {
    round.configs.push_back(RunConfig(c, traced, setup_repeats));
  }
  round.wall_s = SecondsSince(start);
  return round;
}

// Empty when equal; otherwise names the first differing period and field.
std::string ComparePeriods(const std::vector<PeriodStats>& a, const std::vector<PeriodStats>& b) {
  if (a.size() != b.size()) {
    return "period count " + std::to_string(a.size()) + " vs " + std::to_string(b.size());
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const PeriodStats& x = a[i];
    const PeriodStats& y = b[i];
    const char* field = nullptr;
    if (x.working_set_mb != y.working_set_mb) {
      field = "working_set_mb";
    } else if (x.seer_mb != y.seer_mb) {
      field = "seer_mb";
    } else if (x.lru_mb != y.lru_mb) {
      field = "lru_mb";
    } else if (x.coda_mb != y.coda_mb) {
      field = "coda_mb";
    } else if (x.referenced_files != y.referenced_files) {
      field = "referenced_files";
    } else if (x.uncovered_seer != y.uncovered_seer) {
      field = "uncovered_seer";
    } else if (x.uncovered_lru != y.uncovered_lru) {
      field = "uncovered_lru";
    } else if (x.deepest_seer != y.deepest_seer) {
      field = "deepest_seer";
    } else if (x.deepest_lru != y.deepest_lru) {
      field = "deepest_lru";
    }
    if (field != nullptr) {
      return std::string(field) + " of period " + std::to_string(i);
    }
  }
  return "";
}

double MeanOf(const std::vector<PeriodStats>& periods, double PeriodStats::*field) {
  if (periods.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const PeriodStats& p : periods) {
    sum += p.*field;
  }
  return sum / static_cast<double>(periods.size());
}

// The figure rows of one round: per row, the mean over seeds of each
// seed's mean working set and miss-free hoard sizes, as Figure 2's bench
// prints them.
std::vector<std::string> FigureRows(const std::vector<SweepConfig>& sweep, const Round& round) {
  struct Row {
    std::string name;
    double ws = 0.0;
    double seer_mb = 0.0;
    double lru_mb = 0.0;
    size_t seeds = 0;
    size_t periods = 0;
    uint64_t events = 0;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < sweep.size(); ++i) {
    const std::string name = sweep[i].Row();
    auto row = std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.name == name; });
    if (row == rows.end()) {
      rows.push_back(Row{name});
      row = rows.end() - 1;
    }
    const std::vector<PeriodStats>& periods = round.configs[i].periods;
    row->ws += MeanOf(periods, &PeriodStats::working_set_mb);
    row->seer_mb += MeanOf(periods, &PeriodStats::seer_mb);
    row->lru_mb += MeanOf(periods, &PeriodStats::lru_mb);
    row->seeds += 1;
    row->periods += periods.size();
    row->events += round.configs[i].events_total;
  }
  std::vector<std::string> lines;
  for (const Row& r : rows) {
    const double n = static_cast<double>(r.seeds);
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%s  ws %.6f MB  seer %.6f MB  lru %.6f MB  periods %zu  events %" PRIu64,
                  r.name.c_str(), r.ws / n, r.seer_mb / n, r.lru_mb / n, r.periods, r.events);
    lines.push_back(line);
  }
  return lines;
}

// Notes the figure rows and their digest: the figure is a function of the
// seed, so two commits that print different digests for one seed changed it.
void NoteFigure(const std::vector<SweepConfig>& sweep, const Round& round, uint64_t seed,
                Result* result) {
  const std::vector<std::string> rows = FigureRows(sweep, round);
  uint64_t digest = Fnv1a("");
  for (const std::string& row : rows) {
    result->notes.push_back("figure2 " + row);
    digest = Fnv1a(row + "\n", digest);
  }
  char line[128];
  std::snprintf(line, sizeof(line),
                "figure2 digest %016" PRIx64 " over %zu rows (seed %" PRIu64
                ", %zu generator seeds)",
                digest, rows.size(), seed, sweep.size() / rows.size());
  result->notes.push_back(line);
}

// Runs RunMissFreeSimulation for every configuration (in parallel, after
// measurement) and checks it against the benchmark's own stack.
void CheckAgainstLibrary(const std::vector<SweepConfig>& sweep, const Round& round,
                         Result* result) {
  std::vector<seer::MissFreeSimResult> want(sweep.size());
  std::atomic<size_t> next{0};
  const unsigned workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < sweep.size(); i = next.fetch_add(1)) {
        want[i] = seer::RunMissFreeSimulation(sweep[i].profile, SimConfigFor(sweep[i]));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (size_t i = 0; i < sweep.size(); ++i) {
    if (const std::string diff = ComparePeriods(round.configs[i].periods, want[i].periods);
        !diff.empty()) {
      result->Fail("paper-sim: " + sweep[i].Label() + ": " + diff +
                   " differs from RunMissFreeSimulation");
    }
    if (round.configs[i].events_total != want[i].trace_events) {
      result->Fail("paper-sim: trace event count of " + sweep[i].Label() +
                   " differs from RunMissFreeSimulation");
    }
  }
}

void CheckRoundsAgree(const std::vector<SweepConfig>& sweep, const Round& a, const Round& b,
                      const char* what, Result* result) {
  for (size_t i = 0; i < sweep.size(); ++i) {
    if (const std::string diff = ComparePeriods(a.configs[i].periods, b.configs[i].periods);
        !diff.empty()) {
      result->Fail("paper-sim: " + sweep[i].Label() + ": " + diff + " differs in " + what);
    }
  }
}

uint64_t Events(const Round& round, uint64_t ConfigRun::*field) {
  uint64_t total = 0;
  for (const ConfigRun& c : round.configs) {
    total += c.*field;
  }
  return total;
}

// Tracer events per wall second of the simulated periods (set-up excluded).
double EventsPerSecond(const Round& round) {
  double loop_s = 0.0;
  for (const ConfigRun& c : round.configs) {
    loop_s += c.loop_s;
  }
  return static_cast<double>(Events(round, &ConfigRun::events_measured)) / loop_s;
}

std::vector<double> ReconnectMs(const Round& round) {
  std::vector<double> ms;
  for (const ConfigRun& c : round.configs) {
    ms.insert(ms.end(), c.reconnect_ms.begin(), c.reconnect_ms.end());
  }
  return ms;
}

}  // namespace

Result RunPaperSim(const Options& options) {
  Result result;
  // Untraced runs sweep kSeedsPerSweep seeds; the traced run the first.
  const std::vector<SweepConfig> sweep =
      Sweep(SweepSeeds(options.seed, options.trace ? 1 : kSeedsPerSweep));

  if (!options.trace) {
    // One sweep: a fixed amount of work, sized to take about the
    // benchmark's run_seconds on a 4-CPU host; it is not repeated.
    const Round round = RunRound(sweep, /*traced=*/false, kSetupRepeats);
    const double peak_rss_mb = PeakRssMb();  // before the check's own simulations
    CheckAgainstLibrary(sweep, round, &result);
    NoteFigure(sweep, round, options.seed, &result);

    std::vector<double> setup_s(kSetupRepeats, 0.0);
    for (const ConfigRun& c : round.configs) {
      for (int r = 0; r < kSetupRepeats; ++r) {
        setup_s[r] += c.setup_s[r];
      }
    }
    const std::vector<double> reconnect_ms = ReconnectMs(round);
    result.attempted = reconnect_ms.size();
    result.failed = 0;
    result.Set("setup_s", Median(setup_s), "s", setup_s.size());
    result.Set("peak_rss_mb", peak_rss_mb, "MB", 1);
    result.Set("success_ratio", 1.0, "ratio", result.attempted);
    result.Set("events_per_s", EventsPerSecond(round), "1/s", round.configs.size());
    result.Set("op_p50_ms", Quantile(reconnect_ms, 0.50), "ms", reconnect_ms.size());
    result.Set("op_tail_ms", Quantile(reconnect_ms, 0.95), "ms", reconnect_ms.size());
    result.notes.push_back("op = one simulated reconnection (BuildClusters + SeerCoverageOrder); "
                           "tail = p95, samples beyond it: " +
                           std::to_string(SamplesBeyond(reconnect_ms, 0.95)));
    return result;
  }

  // Traced run: one untraced sweep and one traced sweep, back to back,
  // from the same seed.
  const Round plain = RunRound(sweep, /*traced=*/false, 1);
  SpanTrace trace(size_t{1} << 22);
  Round traced;
  double traced_wall_s = 0.0;
  {
    ScopedTrace install(&trace);
    const Clock::time_point start = Clock::now();
    {
      Span root(SpanName::kBench);
      traced = RunRound(sweep, /*traced=*/true, 1);
    }
    traced_wall_s = SecondsSince(start);
  }
  CheckRoundsAgree(sweep, plain, traced, "the traced sweep", &result);
  CheckAgainstLibrary(sweep, plain, &result);
  NoteFigure(sweep, plain, options.seed, &result);
  ReportTrace(trace, traced_wall_s, plain.wall_s, options, &result);

  const double events = static_cast<double>(Events(traced, &ConfigRun::events_total));
  const double refs = static_cast<double>(Events(traced, &ConfigRun::references));
  size_t periods = 0;
  for (const ConfigRun& c : traced.configs) {
    periods += c.periods.size();
  }
  const auto per_event = [&](int64_t ns) { return static_cast<double>(ns) / events; };
  result.attempted = periods;
  result.Set("workload.self_ns_per_event", per_event(trace.self_ns(SpanName::kWorkload)),
             "ns", static_cast<uint64_t>(events));
  result.Set("observer.self_ns_per_event", per_event(trace.self_ns(SpanName::kObserver)), "ns",
             static_cast<uint64_t>(events));
  result.Set("observer.refs_per_event", refs / events, "ratio", static_cast<uint64_t>(events));
  result.Set("correlator.ns_per_ref",
             static_cast<double>(trace.self_ns(SpanName::kCorrelator)) / refs, "ns",
             static_cast<uint64_t>(refs));
  result.Set("baselines.lru_ns_per_event",
             per_event(trace.self_ns(SpanName::kBaselinesLru) +
                       trace.self_ns(SpanName::kBaselinesLruOrder)),
             "ns", static_cast<uint64_t>(events));
  result.Set("sim.tracker_ns_per_event", per_event(trace.self_ns(SpanName::kSimTracker)), "ns",
             static_cast<uint64_t>(events));
  result.Set("sim.missfree_ms",
             static_cast<double>(trace.self_ns(SpanName::kSimMissFree)) / 1e6 /
                 static_cast<double>(periods),
             "ms", periods);
  const std::vector<double> builds = trace.DurationsMs(SpanName::kClustering);
  result.Set("clustering.build_ms_p50", Quantile(builds, 0.50), "ms", builds.size());
  result.Set("clustering.build_ms_p95", Quantile(builds, 0.95), "ms", builds.size());
  const std::vector<double> orders = trace.DurationsMs(SpanName::kHoard);
  result.Set("hoard.order_ms_p50", Quantile(orders, 0.50), "ms", orders.size());

  // The untraced sweep's user-facing figures, under their own names.
  const std::vector<double> reconnect_ms = ReconnectMs(plain);
  result.Set("sim_events_per_s", EventsPerSecond(plain), "1/s", plain.configs.size());
  result.Set("reconnect_p50_ms", Quantile(reconnect_ms, 0.50), "ms", reconnect_ms.size());
  result.Set("reconnect_p95_ms", Quantile(reconnect_ms, 0.95), "ms", reconnect_ms.size());
  result.Set("failed_ratio", 0.0, "ratio", result.attempted);
  return result;
}

}  // namespace seerbench
