// seerctl — command-line front end to the SEER library.
//
// Commands are dispatched through a small registry; `seerctl help` lists
// them and `seerctl help CMD` (or `seerctl CMD --help`) prints the
// per-command reference. Highlights:
//
//   seerctl gen-trace --machine F --hours 2 --seed 7 -o trace.txt
//       Generate a synthetic reference trace for one of the paper's nine
//       machine profiles.
//
//   seerctl replay trace.txt [--params params.txt] [--save store/]
//       Replay a trace through the observer and correlator (the paper's
//       "simulation mode"), print what was learned, optionally save it as
//       a snapshot store.
//
//   seerctl db {save,dump,verify,compact,info} DIR ...
//       Operate on a crash-safe snapshot+WAL store directory (see
//       src/core/snapshot_store.h): build one from a trace, dump one as
//       text, check its integrity, compact its generations, or describe
//       its contents. Every command that reads a database (clusters,
//       hoard, ...) reads such a store.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/async_pipeline.h"
#include "src/core/correlator.h"
#include "src/core/hoard.h"
#include "src/core/params_io.h"
#include "src/core/reorganizer.h"
#include "src/core/snapshot_codec.h"
#include "src/core/snapshot_store.h"
#include "src/observer/control_file.h"
#include "src/observer/observer.h"
#include "src/observer/sink_chain.h"
#include "src/process/syscall_tracer.h"
#include "src/server/client.h"
#include "src/server/service.h"
#include "src/server/tenant_router.h"
#include "src/sim/machine_sim.h"
#include "src/trace/binary_trace.h"
#include "src/trace/trace_io.h"
#include "src/util/fs.h"
#include "src/util/thread_count.h"
#include "src/workload/environment.h"
#include "src/workload/machine_profile.h"
#include "src/workload/user_model.h"

namespace seer {
namespace {

// --- subcommand registry -----------------------------------------------------

// A registered subcommand. `run` receives the index of the first argument
// after the command name(s), so nested registries (`seerctl db save`)
// reuse the same shape one level down.
struct Subcommand {
  const char* name;
  const char* synopsis;  // one line, shown by the global usage
  const char* help;      // full reference, shown by `help CMD` / `--help`
  int (*run)(int argc, char** argv, int start);
  // The flags `run` reads, space-separated: those that take a value
  // (`--name VALUE` or `--name=VALUE`) and bare ones. Any other flag is
  // rejected before `run` starts.
  const char* value_flags = "";
  const char* bare_flags = "";
  // True when `run` is itself a registry: a trailing --help then belongs
  // to the nested sub-command (`seerctl db save --help`), so dispatch must
  // not intercept it here.
  bool has_subcommands = false;
};

int UsageFor(const char* program, const std::vector<Subcommand>& commands) {
  std::fprintf(stderr, "usage:\n");
  for (const Subcommand& command : commands) {
    std::fprintf(stderr, "  %s %s\n", program, command.synopsis);
  }
  std::fprintf(stderr, "\nrun `%s help COMMAND` for details on one command\n", program);
  return 2;
}

// True when the space-separated `list` names `flag` exactly.
bool ListsFlag(std::string_view list, std::string_view flag) {
  const std::string padded = std::string(" ").append(list).append(" ");
  return padded.find(std::string(" ").append(flag).append(" ")) != std::string::npos;
}

// The first argument at or after `start` that looks like a flag but is not
// one `command` declares, or nullptr. A declared value flag's value is
// skipped, so it may itself start with '-'; `--name=value` is checked by
// its name.
const char* UnknownFlag(const Subcommand& command, int argc, char** argv, int start) {
  for (int i = start; i < argc; ++i) {
    if (argv[i][0] != '-') {
      continue;
    }
    const std::string_view arg = argv[i];
    const std::string_view name = arg.substr(0, arg.find('='));
    if (ListsFlag(command.value_flags, name)) {
      if (name.size() == arg.size()) {
        ++i;  // the value
      }
    } else if (!ListsFlag(command.bare_flags, name)) {
      return argv[i];
    }
  }
  return nullptr;
}

int RunRegistry(const char* program, const std::vector<Subcommand>& commands, int argc,
                char** argv, int start) {
  if (start >= argc) {
    return UsageFor(program, commands);
  }
  std::string name = argv[start];
  char** help_target = nullptr;
  if (name == "help" || name == "--help" || name == "-h") {
    if (start + 1 >= argc) {
      return UsageFor(program, commands);
    }
    name = argv[start + 1];
    help_target = argv + start + 1;
  }
  for (const Subcommand& command : commands) {
    if (name != command.name) {
      continue;
    }
    bool want_help = help_target != nullptr;
    for (int i = start + 1; i < argc && !want_help && !command.has_subcommands; ++i) {
      want_help = std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0;
    }
    if (want_help) {
      std::printf("usage: %s %s\n\n%s", program, command.synopsis, command.help);
      return 0;
    }
    if (!command.has_subcommands) {
      if (const char* unknown = UnknownFlag(command, argc, argv, start + 1)) {
        // The synopsis starts with the full command path ("db save ...").
        const std::string_view synopsis = command.synopsis;
        const std::string_view path =
            synopsis.substr(0, synopsis.find(command.name) + std::strlen(command.name));
        std::fprintf(stderr, "%s %.*s: unknown flag '%s'\n", program,
                     static_cast<int>(path.size()), path.data(), unknown);
        return 2;
      }
    }
    return command.run(argc, argv, start + 1);
  }
  std::fprintf(stderr, "%s: unknown command '%s'\n\n", program, name.c_str());
  return UsageFor(program, commands);
}

// --- argument scanning -------------------------------------------------------

// Returns the value of `flag`, spelled `flag VALUE` or `flag=VALUE`, or
// nullptr.
const char* FlagValue(int argc, char** argv, int start, const char* flag) {
  const size_t length = std::strlen(flag);
  for (int i = start; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, length) != 0) {
      continue;
    }
    if (argv[i][length] == '=') {
      return argv[i] + length + 1;
    }
    if (argv[i][length] == '\0' && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, int start, const char* flag) {
  for (int i = start; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

// Flags that take no value, for positional scanning. A flag spelled
// --name=value carries its value inline and is also bare.
bool IsBareFlag(const char* arg) {
  return std::strcmp(arg, "--binary") == 0 || std::strcmp(arg, "--stats") == 0 ||
         std::strcmp(arg, "--deep") == 0 || std::strcmp(arg, "--help") == 0 ||
         std::strcmp(arg, "-h") == 0 || std::strchr(arg, '=') != nullptr;
}

// First non-flag positional argument at or after `start`.
const char* Positional(int argc, char** argv, int start) {
  for (int i = start; i < argc; ++i) {
    if (argv[i][0] == '-') {
      if (!IsBareFlag(argv[i])) {
        ++i;  // skip the flag's value
      }
      continue;
    }
    return argv[i];
  }
  return nullptr;
}

// The `index`-th (0-based) non-flag positional at or after `start`.
const char* PositionalAt(int argc, char** argv, int start, int index) {
  int seen = 0;
  for (int i = start; i < argc; ++i) {
    if (argv[i][0] == '-') {
      if (!IsBareFlag(argv[i])) {
        ++i;  // skip the flag's value
      }
      continue;
    }
    if (seen++ == index) {
      return argv[i];
    }
  }
  return nullptr;
}

// Validated value of --io-threads K; 0 when absent (serve then sizes the
// I/O plane with DefaultThreadCount()).
int IoThreadsFlagOrDie(int argc, char** argv, int start) {
  const char* value = FlagValue(argc, argv, start, "--io-threads");
  if (value == nullptr) {
    return 0;
  }
  const StatusOr<int> threads = ParseThreadCount(value);
  if (!threads.ok()) {
    std::fprintf(stderr, "seerctl: --io-threads: %s\n", threads.status().message().c_str());
    std::exit(2);
  }
  return *threads;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "seerctl: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

SeerParams ParamsFromFlagOrDie(int argc, char** argv, int start) {
  const char* params_path = FlagValue(argc, argv, start, "--params");
  if (params_path == nullptr) {
    return {};
  }
  const auto parsed = ParseSeerParams(ReadFileOrDie(params_path));
  if (!parsed.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", params_path, parsed.status().message().c_str());
    std::exit(1);
  }
  return *parsed;
}

ObserverConfig ControlFromFlagOrDie(int argc, char** argv, int start) {
  const char* control_path = FlagValue(argc, argv, start, "--control");
  if (control_path == nullptr) {
    return {};
  }
  const auto parsed = ParseObserverControlFile(ReadFileOrDie(control_path));
  if (!parsed.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", control_path, parsed.status().message().c_str());
    std::exit(1);
  }
  return *parsed;
}

// Applies `fn` to every event of a trace file, auto-detecting the text or
// binary format from the magic header.
template <typename Fn>
bool ForEachTraceEvent(const char* path, Fn&& fn, size_t* malformed = nullptr) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "seerctl: cannot open %s\n", path);
    return false;
  }
  char magic[8] = {};
  in.read(magic, 8);
  in.seekg(0);
  if (std::string_view(magic, 8) == "SEERBT1\n") {
    BinaryTraceReader reader(in);
    for (;;) {
      auto event = reader.Next();
      if (!event.ok()) {
        // A torn tail is what a crash-interrupted trace looks like: warn
        // and keep what decoded, mirroring WAL torn-tail recovery.
        std::fprintf(stderr, "seerctl: %s: %s (kept %zu events)\n", path,
                     event.status().ToString().c_str(), reader.events_read());
        break;
      }
      if (!event->has_value()) {
        break;
      }
      fn(**event);
    }
  } else {
    TraceReader reader(in);
    for (;;) {
      auto event = reader.Next();
      if (!event.ok()) {
        continue;  // malformed line: counted by the reader, keep going
      }
      if (!event->has_value()) {
        break;
      }
      fn(**event);
    }
    if (malformed != nullptr) {
      *malformed = reader.malformed_lines();
    }
  }
  return true;
}

// --- gen-trace ----------------------------------------------------------------

class TraceFileSink : public TraceSink {
 public:
  TraceFileSink(std::ostream& out, bool binary) {
    if (binary) {
      binary_.emplace(out);
    } else {
      text_.emplace(out);
    }
  }
  void OnEvent(const TraceEvent& event) override {
    if (binary_.has_value()) {
      binary_->Write(event);
    } else {
      text_->Write(event);
    }
  }
  size_t count() const {
    return binary_.has_value() ? binary_->events_written() : text_->events_written();
  }

 private:
  std::optional<TraceWriter> text_;
  std::optional<BinaryTraceWriter> binary_;
};

int GenTrace(int argc, char** argv, int start) {
  const char* machine = FlagValue(argc, argv, start, "--machine");
  const char* hours = FlagValue(argc, argv, start, "--hours");
  const char* seed = FlagValue(argc, argv, start, "--seed");
  const char* out_path = FlagValue(argc, argv, start, "-o");
  if (out_path == nullptr) {
    std::fprintf(stderr, "seerctl: gen-trace requires -o FILE\n");
    return 2;
  }
  const MachineProfile profile = GetMachineProfile(machine != nullptr ? machine[0] : 'D');
  const double active_hours = hours != nullptr ? std::atof(hours) : 1.0;
  const uint64_t seed_value = seed != nullptr ? std::strtoull(seed, nullptr, 10) : 1;

  SimFilesystem fs;
  Rng rng(seed_value ^ profile.seed_base);
  const UserEnvironment env = BuildEnvironment(&fs, profile.env, &rng);
  ProcessTable processes;
  SimClock clock;
  SyscallTracer tracer(&fs, &processes, &clock);
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "seerctl: cannot write %s\n", out_path);
    return 1;
  }
  TraceFileSink sink(out, HasFlag(argc, argv, start, "--binary"));
  tracer.AddSink(&sink);
  UserModel user(&tracer, &env, profile.user, seed_value);
  user.SeedHistory();
  user.RunActiveHours(active_hours);
  std::printf("wrote %zu events (%c profile, %.1f active hours, seed %llu) to %s\n",
              sink.count(), profile.name, active_hours,
              static_cast<unsigned long long>(seed_value), out_path);
  return 0;
}

// --- stats ---------------------------------------------------------------------

int Stats(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  if (path == nullptr) {
    std::fprintf(stderr, "seerctl: stats requires a TRACE argument\n");
    return 2;
  }
  std::map<Op, size_t> by_op;
  std::map<OpStatus, size_t> by_status;
  std::map<std::string, size_t> by_file;
  std::map<Pid, size_t> by_pid;
  size_t total = 0;
  Time first = 0;
  Time last = 0;
  size_t malformed = 0;
  const bool opened = ForEachTraceEvent(path, [&](const TraceEvent& event) {
    ++total;
    ++by_op[event.op];
    ++by_status[event.status];
    ++by_pid[event.pid];
    if (!event.path.empty()) {
      ++by_file[event.path];
    }
    if (total == 1) {
      first = event.time;
    }
    last = event.time;
  }, &malformed);
  if (!opened) {
    return 1;
  }
  std::printf("%zu events over %.2f hours, %zu processes, %zu distinct files"
              " (%zu malformed lines)\n\n",
              total, static_cast<double>(last - first) / kMicrosPerHour, by_pid.size(),
              by_file.size(), malformed);
  std::printf("by operation:\n");
  for (const auto& [op, count] : by_op) {
    std::printf("  %-9s %8zu\n", std::string(OpName(op)).c_str(), count);
  }
  std::printf("by status:\n");
  for (const auto& [status, count] : by_status) {
    std::printf("  %-9s %8zu\n", std::string(OpStatusName(status)).c_str(), count);
  }
  std::printf("busiest files:\n");
  std::vector<std::pair<size_t, std::string>> busiest;
  for (const auto& [file, count] : by_file) {
    busiest.emplace_back(count, file);
  }
  std::sort(busiest.rbegin(), busiest.rend());
  for (size_t i = 0; i < busiest.size() && i < 10; ++i) {
    std::printf("  %6zu  %s\n", busiest[i].first, busiest[i].second.c_str());
  }
  return 0;
}

// --- replay ---------------------------------------------------------------------

// Replays a trace file into a fresh observer + correlator pair.
bool ReplayTraceInto(const char* path, const ObserverConfig& observer_config,
                     Correlator* correlator, size_t* events_out) {
  Observer observer(observer_config, nullptr);
  observer.set_sink(correlator);
  size_t events = 0;
  if (!ForEachTraceEvent(path, [&](const TraceEvent& event) {
        observer.OnEvent(event);
        ++events;
      })) {
    return false;
  }
  if (events_out != nullptr) {
    *events_out = events;
  }
  return true;
}

// Commits `correlator` as one new generation of the store at `dir`, the
// one write path of `replay --save` and `db save`.
int SaveToStore(const char* dir, const Correlator& correlator,
                const SnapshotStoreOptions& options) {
  SnapshotStore store(&DefaultFs(), dir, options);
  Status status = store.Open();
  if (status.ok()) {
    const auto result = store.Checkpoint(correlator);
    status = result.status();
    if (result.ok()) {
      std::printf("%s: wrote generation %llu (%zu files tracked)\n", dir,
                  static_cast<unsigned long long>(result->generation),
                  correlator.files().size());
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", dir, status.ToString().c_str());
    return 1;
  }
  return 0;
}

int Replay(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  if (path == nullptr) {
    std::fprintf(stderr, "seerctl: replay requires a TRACE argument\n");
    return 2;
  }

  const SeerParams params = ParamsFromFlagOrDie(argc, argv, start);
  const ObserverConfig observer_config = ControlFromFlagOrDie(argc, argv, start);

  Observer observer(observer_config, nullptr);
  Correlator correlator(params);
  observer.set_sink(&correlator);
  size_t events = 0;
  const auto replay_start = std::chrono::steady_clock::now();
  if (!ForEachTraceEvent(path, [&](const TraceEvent& event) {
        observer.OnEvent(event);
        ++events;
      })) {
    return 1;
  }
  const double replay_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - replay_start)
          .count();
  std::printf("replayed %zu events: %llu references kept, %llu filtered\n", events,
              static_cast<unsigned long long>(observer.references_emitted()),
              static_cast<unsigned long long>(observer.references_filtered()));
  std::printf("%zu files tracked, %zu always-hoard, ~%zu KB database\n",
              correlator.files().size(), observer.always_hoard().size(),
              correlator.MemoryBytes() / 1024);
  const ClusterSet clusters = correlator.BuildClusters();
  size_t multi = 0;
  for (const Cluster& c : clusters.clusters) {
    if (c.members.size() > 1) {
      ++multi;
    }
  }
  std::printf("%zu clusters (%zu multi-file)\n", clusters.clusters.size(), multi);

  if (HasFlag(argc, argv, start, "--stats")) {
    // Wall time covers trace parsing, the observer and the correlator.
    std::printf("ingest: %.2f ms", replay_ms);
    if (replay_ms > 0.0) {
      std::printf(" (%.0f refs/sec)",
                  static_cast<double>(observer.references_emitted()) * 1000.0 / replay_ms);
    }
    std::printf("\n");
  }

  if (const char* dir = FlagValue(argc, argv, start, "--save")) {
    return SaveToStore(dir, correlator, SnapshotStoreOptions());
  }
  return 0;
}

// --- clusters --------------------------------------------------------------------

// Recovers the newest consistent state of the store at `dir`. A directory
// with no snapshot holds no database, so it is an error rather than an
// empty correlator.
SnapshotStore::RecoveryResult LoadDbOrDie(const char* dir) {
  SnapshotStore store(&DefaultFs(), dir);
  auto recovered = store.Recover();
  if (recovered.ok() && recovered->fresh) {
    recovered = Status::NotFound("no snapshot in store");
  }
  if (!recovered.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", dir, recovered.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(recovered);
}

int Clusters(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  if (path == nullptr) {
    std::fprintf(stderr, "seerctl: clusters requires a DIR argument\n");
    return 2;
  }
  const auto correlator = LoadDbOrDie(path).correlator;
  const char* min_size_arg = FlagValue(argc, argv, start, "--min-size");
  const size_t min_size = min_size_arg != nullptr ? std::strtoull(min_size_arg, nullptr, 10) : 2;

  const ClusterSet clusters = correlator->BuildClusters();
  size_t shown = 0;
  for (size_t i = 0; i < clusters.clusters.size(); ++i) {
    const Cluster& c = clusters.clusters[i];
    if (c.members.size() < min_size) {
      continue;
    }
    uint64_t priority = 0;
    for (const FileId id : c.members) {
      priority = std::max(priority, correlator->files().Get(id).last_ref_seq);
    }
    std::printf("cluster %zu (%zu files, activity %llu):\n", i, c.members.size(),
                static_cast<unsigned long long>(priority));
    for (const FileId id : c.members) {
      std::printf("  %s\n", std::string(correlator->files().PathOf(id)).c_str());
    }
    ++shown;
  }
  std::printf("%zu clusters with >= %zu members (of %zu total)\n", shown, min_size,
              clusters.clusters.size());
  return 0;
}

// --- cluster ---------------------------------------------------------------------

int ClusterStats(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  if (path == nullptr) {
    std::fprintf(stderr, "seerctl: cluster requires a DIR argument\n");
    return 2;
  }
  auto correlator = LoadDbOrDie(path).correlator;
  const ClusterSet clusters = correlator->BuildClusters();
  const ClusterBuildStats& stats = correlator->last_cluster_stats();
  size_t multi = 0;
  for (const Cluster& c : clusters.clusters) {
    if (c.members.size() > 1) {
      ++multi;
    }
  }
  std::printf("%zu clusters (%zu multi-file) from %zu candidates in %.2f ms\n",
              clusters.clusters.size(), multi, stats.candidates, stats.build_ms);
  if (HasFlag(argc, argv, start, "--stats")) {
    std::printf("  build mode:     %s\n", stats.incremental ? "incremental" : "full");
    std::printf("  dirty files:    %zu\n", stats.dirty_files);
    std::printf("  files rescored: %zu\n", stats.files_rescored);
    std::printf("  edges scored:   %zu\n", stats.edges_scored);
    const auto pct = [&](double ms) {
      return stats.build_ms > 0.0 ? 100.0 * ms / stats.build_ms : 0.0;
    };
    std::printf("  pack:           %.2f ms (%.0f%% of build)\n", stats.pack_ms,
                pct(stats.pack_ms));
    std::printf("  plan:           %.2f ms (%.0f%% of build)\n", stats.plan_ms,
                pct(stats.plan_ms));
    std::printf("  score:          %.2f ms (%.0f%% of build)\n", stats.score_ms,
                pct(stats.score_ms));
    std::printf("  merge:          %.2f ms (%.0f%% of build)\n", stats.merge_ms,
                pct(stats.merge_ms));
  }
  return 0;
}

// --- hoard -----------------------------------------------------------------------

int Hoard(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  const char* budget_arg = FlagValue(argc, argv, start, "--budget-mb");
  if (path == nullptr || budget_arg == nullptr) {
    std::fprintf(stderr, "seerctl: hoard requires DIR and --budget-mb MB\n");
    return 2;
  }
  const auto correlator = LoadDbOrDie(path).correlator;
  const double budget_mb = std::atof(budget_arg);

  HoardManager manager(static_cast<uint64_t>(budget_mb * 1024.0 * 1024.0));
  const ClusterSet clusters = correlator->BuildClusters();
  // Sizes are not stored in the database; fall back to the paper's
  // geometric distribution, deterministic per path.
  const auto size_of = [](PathId p) {
    return GeometricSizeForPath(std::string(GlobalPaths().PathOf(p)), 1);
  };
  const HoardSelection sel = manager.ChooseHoard(*correlator, clusters, {}, size_of);
  std::printf("# hoard: %.2f of %.2f MB, %zu projects (%zu skipped)\n",
              static_cast<double>(sel.bytes_used) / 1048576.0, budget_mb, sel.projects_hoarded,
              sel.projects_skipped);
  if (HasFlag(argc, argv, start, "--stats")) {
    const HoardFillStats& stats = manager.last_fill_stats();
    std::printf("# fill: %.2f ms\n", stats.fill_ms);
    std::printf("#   fill mode:      %s\n", stats.incremental ? "incremental" : "scratch");
    std::printf("#   clusters:       %zu\n", stats.clusters);
    std::printf("#   reused aggs:    %zu\n", stats.reused_aggregates);
    std::printf("#   dirty clusters: %zu\n", stats.dirty_clusters);
    std::printf("#   touched files:  %zu\n", stats.touched_files);
    std::printf("#   sizes resolved: %zu\n", stats.sizes_resolved);
    const auto pct = [&](double ms) {
      return stats.fill_ms > 0.0 ? 100.0 * ms / stats.fill_ms : 0.0;
    };
    std::printf("#   aggregate:      %.2f ms (%.0f%% of fill)\n", stats.agg_ms,
                pct(stats.agg_ms));
    std::printf("#   rank:           %.2f ms (%.0f%% of fill)\n", stats.rank_ms,
                pct(stats.rank_ms));
    std::printf("#   select:         %.2f ms (%.0f%% of fill)\n", stats.select_ms,
                pct(stats.select_ms));
  }
  for (const auto& file : sel.PathStrings()) {
    std::printf("%s\n", file.c_str());
  }
  return 0;
}

// --- pipeline --------------------------------------------------------------------

// Replays a trace through the full instrumented data plane — observer ->
// sink chain -> async correlator — and prints the per-stage reference
// counters, the latency histogram, and the queue statistics. This is the
// observability surface for the Section 5.3 overhead claims.
int Pipeline(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  if (path == nullptr) {
    std::fprintf(stderr, "seerctl: pipeline requires a TRACE argument\n");
    return 2;
  }
  const ObserverConfig observer_config = ControlFromFlagOrDie(argc, argv, start);

  AsyncCorrelator correlator;
  SinkChain chain(&correlator);
  chain.Instrument("correlator");
  chain.Instrument("observer");
  Observer observer(observer_config, nullptr);
  observer.set_sink(chain.head());

  size_t events = 0;
  if (!ForEachTraceEvent(path, [&](const TraceEvent& event) {
        observer.OnEvent(event);
        ++events;
      })) {
    return 1;
  }
  correlator.Drain();
  std::printf("replayed %zu events (%llu references kept, %llu filtered)\n\n", events,
              static_cast<unsigned long long>(observer.references_emitted()),
              static_cast<unsigned long long>(observer.references_filtered()));
  std::printf("%s", chain.FormatMetrics().c_str());
  std::printf("\nqueue: %zu enqueued, %zu processed, depth %zu, high-water %zu of %zu\n",
              correlator.enqueued(), correlator.processed(), correlator.queue_depth(),
              correlator.high_watermark(), correlator.queue_capacity());
  std::printf("interned paths: %zu, files tracked: %zu\n", GlobalPaths().size(),
              correlator.KnownFiles());
  return 0;
}

// --- suggest-reorg ----------------------------------------------------------------

int SuggestReorg(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  if (path == nullptr) {
    std::fprintf(stderr, "seerctl: suggest-reorg requires a DIR argument\n");
    return 2;
  }
  const auto correlator = LoadDbOrDie(path).correlator;
  ReorganizerConfig config;
  if (const char* min_conf = FlagValue(argc, argv, start, "--min-confidence")) {
    config.min_confidence = std::atof(min_conf);
  }
  const auto suggestions =
      SuggestReorganization(*correlator, correlator->BuildClusters(), config);
  for (const auto& s : suggestions) {
    std::printf("%.0f%%  %-40s ->  %s/   (cluster of %zu)\n", s.confidence * 100.0,
                s.path.c_str(), s.to_dir.c_str(), s.cluster_size);
  }
  std::printf("# %zu suggestions\n", suggestions.size());
  return 0;
}

// --- check-config ---------------------------------------------------------------

int CheckConfig(int argc, char** argv, int start) {
  const char* path = Positional(argc, argv, start);
  if (path == nullptr) {
    std::fprintf(stderr, "seerctl: check-config requires a FILE argument\n");
    return 2;
  }
  const auto config = ParseObserverControlFile(ReadFileOrDie(path));
  if (!config.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", path, config.status().message().c_str());
    return 1;
  }
  std::printf("%s: OK\n", path);
  std::printf("%s", FormatObserverControlFile(*config).c_str());
  return 0;
}

// --- db --------------------------------------------------------------------------

SnapshotStoreOptions StoreOptions(int argc, char** argv, int start) {
  SnapshotStoreOptions options;
  if (const char* keep = FlagValue(argc, argv, start, "--keep")) {
    options.keep_generations = std::strtoull(keep, nullptr, 10);
  }
  return options;
}

int DbSave(int argc, char** argv, int start) {
  const char* dir = Positional(argc, argv, start);
  const char* from_trace = FlagValue(argc, argv, start, "--from-trace");
  if (dir == nullptr || from_trace == nullptr) {
    std::fprintf(stderr, "seerctl: db save requires DIR and --from-trace TRACE\n");
    return 2;
  }
  Correlator correlator(ParamsFromFlagOrDie(argc, argv, start));
  size_t events = 0;
  if (!ReplayTraceInto(from_trace, ControlFromFlagOrDie(argc, argv, start), &correlator,
                       &events)) {
    return 1;
  }
  std::fprintf(stderr, "replayed %zu events from %s\n", events, from_trace);
  return SaveToStore(dir, correlator, StoreOptions(argc, argv, start));
}

int DbDump(int argc, char** argv, int start) {
  const char* dir = Positional(argc, argv, start);
  if (dir == nullptr) {
    std::fprintf(stderr, "seerctl: db dump requires a DIR argument\n");
    return 2;
  }
  const SnapshotStore::RecoveryResult recovered = LoadDbOrDie(dir);
  std::fprintf(stderr,
               "recovered generation %llu (%llu wal records replayed%s%s)\n",
               static_cast<unsigned long long>(recovered.generation),
               static_cast<unsigned long long>(recovered.wal_records_replayed),
               recovered.torn_wal_tail ? ", torn wal tail" : "",
               recovered.snapshots_discarded > 0 ? ", damaged snapshots skipped" : "");
  if (const char* out_path = FlagValue(argc, argv, start, "-o")) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "seerctl: cannot write %s\n", out_path);
      return 1;
    }
    recovered.correlator->DumpText(out);
    std::printf("dump written to %s\n", out_path);
  } else {
    std::ostringstream out;
    recovered.correlator->DumpText(out);
    std::fputs(out.str().c_str(), stdout);
  }
  return 0;
}

int DbVerify(int argc, char** argv, int start) {
  const char* dir = Positional(argc, argv, start);
  if (dir == nullptr) {
    std::fprintf(stderr, "seerctl: db verify requires a DIR argument\n");
    return 2;
  }
  const bool deep = HasFlag(argc, argv, start, "--deep");
  SnapshotStore store(&DefaultFs(), dir);
  const Status status = store.Verify(deep);
  if (!status.ok()) {
    std::printf("%s: %s\n", dir, status.ToString().c_str());
    return 1;
  }
  std::printf("%s: OK%s\n", dir, deep ? " (deep)" : "");
  return 0;
}

int DbCompact(int argc, char** argv, int start) {
  const char* dir = Positional(argc, argv, start);
  if (dir == nullptr) {
    std::fprintf(stderr, "seerctl: db compact requires a DIR argument\n");
    return 2;
  }
  SnapshotStore store(&DefaultFs(), dir, StoreOptions(argc, argv, start));
  const auto recovered = store.Recover();
  if (!recovered.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", dir, recovered.status().ToString().c_str());
    return 1;
  }
  const auto result = store.Checkpoint(*recovered->correlator);
  if (!result.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", dir, result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s: compacted into generation %llu (%llu wal records folded in)\n", dir,
              static_cast<unsigned long long>(result->generation),
              static_cast<unsigned long long>(recovered->wal_records_replayed));
  return 0;
}

int DbInfo(int argc, char** argv, int start) {
  const char* dir = Positional(argc, argv, start);
  if (dir == nullptr) {
    std::fprintf(stderr, "seerctl: db info requires a DIR argument\n");
    return 2;
  }
  SnapshotStore store(&DefaultFs(), dir);
  const auto info = store.GetInfo();
  if (!info.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", dir, info.status().ToString().c_str());
    return 1;
  }
  if (info->generations.empty()) {
    std::printf("%s: empty store\n", dir);
    return 0;
  }
  std::printf("%-10s  %-30s  %s\n", "generation", "snapshot", "wal");
  for (const auto& gen : info->generations) {
    std::string snapshot = "-";
    if (gen.has_snapshot) {
      snapshot = std::string(gen.is_delta ? "delta " : "full  ") +
                 std::to_string(gen.snapshot_bytes) + " B " +
                 (gen.snapshot_ok ? "(ok)" : "(DAMAGED)");
    }
    std::string wal = "-";
    if (gen.has_wal) {
      wal = std::to_string(gen.wal_bytes) + " B, " + std::to_string(gen.wal_records) +
            " records";
      switch (gen.wal_tail) {
        case WalReplayStats::Tail::kClean:
          break;
        case WalReplayStats::Tail::kTorn:
          wal += " (torn tail)";
          break;
        case WalReplayStats::Tail::kCorrupt:
          wal += " (CORRUPT)";
          break;
      }
    }
    std::printf("%-10llu  %-30s  %s\n", static_cast<unsigned long long>(gen.generation),
                snapshot.c_str(), wal.c_str());
  }

  if (HasFlag(argc, argv, start, "--stats")) {
    // On-disk delta economics from the table rows...
    uint64_t last_full_bytes = 0;
    uint64_t delta_bytes = 0;
    size_t delta_count = 0;
    for (const auto& gen : info->generations) {
      if (!gen.has_snapshot) {
        continue;
      }
      if (gen.is_delta) {
        delta_bytes += gen.snapshot_bytes;
        ++delta_count;
      } else {
        last_full_bytes = gen.snapshot_bytes;
      }
    }
    // ...plus a live checkpoint-plane measurement: recover the store and
    // time the seal (the only part that stalls ingest) and the encode of a
    // full snapshot.
    const auto recovered = store.Recover();
    if (!recovered.ok()) {
      std::fprintf(stderr, "seerctl: %s: %s\n", dir, recovered.status().ToString().c_str());
      return 1;
    }
    const auto seal_begin = std::chrono::steady_clock::now();
    const SealedSnapshot seal = recovered->correlator->SealSnapshot();
    const auto seal_end = std::chrono::steady_clock::now();
    const std::string encoded = EncodeSealedSnapshot(seal);
    const auto encode_end = std::chrono::steady_clock::now();
    const auto micros = [](auto a, auto b) {
      return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
    };
    std::printf("\ncheckpoint stats (%zu files):\n", static_cast<size_t>(seal.file_count));
    std::printf("  seal stall      %lld us\n",
                static_cast<long long>(micros(seal_begin, seal_end)));
    std::printf("  full encode     %.3f ms (%zu B)\n",
                static_cast<double>(micros(seal_end, encode_end)) / 1000.0, encoded.size());
    if (delta_count > 0 && last_full_bytes > 0) {
      std::printf("  delta ratio     %.3f (%zu deltas on disk, avg %llu B vs full %llu B)\n",
                  static_cast<double>(delta_bytes) / static_cast<double>(delta_count) /
                      static_cast<double>(last_full_bytes),
                  delta_count,
                  static_cast<unsigned long long>(delta_bytes / delta_count),
                  static_cast<unsigned long long>(last_full_bytes));
    }
  }
  return 0;
}

const std::vector<Subcommand>& DbCommands() {
  static const std::vector<Subcommand> commands = {
      {"save", "db save DIR --from-trace TRACE [--params FILE] [--control FILE] [--keep N]",
       "Build (or extend) a snapshot store at DIR from a replayed trace,\n"
       "committing one new generation.\n\n"
       "  --from-trace TRACE  replay TRACE through observer + correlator\n"
       "  --params FILE       correlator parameters\n"
       "  --control FILE      observer control file\n"
       "  --keep N            snapshot generations to retain (default 2)\n",
       DbSave, "--from-trace --params --control --keep"},
      {"dump", "db dump DIR [-o FILE]",
       "Recover the newest consistent state from the store at DIR (snapshot\n"
       "plus WAL replay, falling back past torn generations) and write it\n"
       "as human-readable text to FILE, or stdout. The dump is for reading\n"
       "and diffing; no command loads it back.\n",
       DbDump, "-o"},
      {"verify", "db verify DIR [--deep]",
       "Check the store's integrity: the newest snapshot chain (nearest\n"
       "full plus its deltas) must decode, the WAL chain must be gapless\n"
       "and undamaged except for a possible torn tail on the last log.\n"
       "Per-section CRC failures name the damaged section. Exit 0 iff\n"
       "healthy.\n\n"
       "  --deep   also CRC-check every snapshot file's sections, decode\n"
       "           every full, and validate every delta's base linkage\n",
       DbVerify, "", "--deep"},
      {"compact", "db compact DIR [--keep N]",
       "Fold the WAL chain into a fresh snapshot generation and prune old\n"
       "generations, bounding recovery replay time.\n\n"
       "  --keep N   snapshot generations to retain (default 2)\n",
       DbCompact, "--keep"},
      {"info", "db info DIR [--stats]",
       "Describe every generation in the store: snapshot kind (full or\n"
       "delta), size and health, WAL size, record count, and tail state.\n\n"
       "  --stats  also recover the store and report checkpoint-plane\n"
       "           numbers: seal stall, full-encode time, and the\n"
       "           on-disk delta-to-full byte ratio\n",
       DbInfo, "", "--stats"},
  };
  return commands;
}

int Db(int argc, char** argv, int start) {
  return RunRegistry("seerctl", DbCommands(), argc, argv, start);
}

// --- tenant ----------------------------------------------------------------------
//
// A multi-tenant service root (src/server/tenant_router.h) is a directory
// of tenant-NNNNNNNN subdirectories, each an ordinary single-instance
// snapshot+WAL store. Every verb has two backends behind one output
// layer: with --socket SPEC it speaks the control protocol (wire.h) to a
// live `seerctl serve` process; without it, it works offline — read-only
// Recover for list/stats, an ad-hoc TenantRouter for checkpoint/evict —
// exercising the same code paths the live service runs.

// --socket SPEC / --socket=SPEC: the live-service endpoint (net.h spec
// syntax); nullptr selects the offline backend.
SeerClient ConnectOrDie(const char* socket_spec) {
  StatusOr<SeerClient> client = SeerClient::Connect(socket_spec);
  if (!client.ok()) {
    std::fprintf(stderr, "seerctl: %s: %s\n", socket_spec, client.status().message().c_str());
    std::exit(1);
  }
  return *std::move(client);
}

TenantId TenantIdOrDie(const char* text) {
  uint32_t id = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, id);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "seerctl: invalid tenant id '%s'\n", text);
    std::exit(2);
  }
  return id;
}

std::vector<TenantId> ListTenantsOrDie(Fs* fs, const std::string& root) {
  StatusOr<std::vector<TenantId>> tenants = SnapshotStore::ListTenants(fs, root);
  if (!tenants.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", tenants.status().message().c_str());
    std::exit(1);
  }
  return *std::move(tenants);
}

// The tenant whose id is the positional after ROOT (offline) or the first
// positional (--socket). Offline, the tenant must already exist on disk —
// a typo'd id must not create a fresh store; the live server enforces the
// same rule itself.
struct TenantTarget {
  std::string root;          // empty in socket mode
  const char* socket = nullptr;
  TenantId tenant = kInvalidTenantId;
};

TenantTarget TenantTargetOrDie(const char* command, int argc, char** argv, int start) {
  TenantTarget target;
  target.socket = FlagValue(argc, argv, start, "--socket");
  const char* id = nullptr;
  if (target.socket != nullptr) {
    id = PositionalAt(argc, argv, start, 0);
    if (id == nullptr) {
      std::fprintf(stderr, "seerctl: tenant %s --socket requires a TENANT argument\n",
                   command);
      std::exit(2);
    }
  } else {
    const char* root = PositionalAt(argc, argv, start, 0);
    id = PositionalAt(argc, argv, start, 1);
    if (root == nullptr || id == nullptr) {
      std::fprintf(stderr, "seerctl: tenant %s requires ROOT and TENANT arguments\n", command);
      std::exit(2);
    }
    target.root = root;
  }
  target.tenant = TenantIdOrDie(id);
  if (target.socket == nullptr) {
    const std::vector<TenantId> present = ListTenantsOrDie(&DefaultFs(), target.root);
    if (std::find(present.begin(), present.end(), target.tenant) == present.end()) {
      std::fprintf(stderr, "seerctl: no tenant %u under %s (try `seerctl tenant list %s`)\n",
                   target.tenant, target.root.c_str(), target.root.c_str());
      std::exit(1);
    }
  }
  return target;
}

// --- the one formatting layer both backends feed -----------------------------

struct TenantRow {
  TenantStats stats;
  std::string state;
};

void PrintTenantRows(const std::vector<TenantRow>& rows) {
  // New columns go on the right: scripts (and CI smoke) address the
  // generation/files columns positionally.
  std::printf("%10s %10s %8s %12s %-9s %8s %12s\n", "tenant", "generation", "files", "memory",
              "state", "refills", "refill_us");
  for (const TenantRow& row : rows) {
    std::printf("%10u %10llu %8llu %12llu %-9s %8llu %12llu\n", row.stats.tenant,
                static_cast<unsigned long long>(row.stats.generation),
                static_cast<unsigned long long>(row.stats.files),
                static_cast<unsigned long long>(row.stats.memory_bytes), row.state.c_str(),
                static_cast<unsigned long long>(row.stats.refills),
                static_cast<unsigned long long>(row.stats.refill_us_total));
  }
}

void PrintCheckpointed(TenantId tenant, const TenantStats& stats) {
  std::printf("tenant %u: checkpointed at generation %llu (%llu files, %llu B resident)\n",
              tenant, static_cast<unsigned long long>(stats.generation),
              static_cast<unsigned long long>(stats.files),
              static_cast<unsigned long long>(stats.memory_bytes));
}

void PrintEvicted(TenantId tenant, uint64_t memory) {
  std::printf("tenant %u: WAL folded, %llu B of in-memory state released\n", tenant,
              static_cast<unsigned long long>(memory));
}

void PrintTenantIds(const std::vector<TenantId>& tenants, const std::string& where) {
  for (const TenantId tenant : tenants) {
    std::printf("%10u\n", tenant);
  }
  std::printf("# %zu tenant%s %s\n", tenants.size(), tenants.size() == 1 ? "" : "s",
              where.c_str());
}

// Single-tenant stats over the socket (the server's Stats view).
StatusOr<TenantStats> LiveStatsOrDie(SeerClient& client, TenantId tenant) {
  SEER_ASSIGN_OR_RETURN(std::vector<TenantStats> stats, client.Stats(tenant));
  if (stats.size() != 1) {
    return Status::Internal("server returned " + std::to_string(stats.size()) +
                            " stats records for one tenant");
  }
  return stats[0];
}

int TenantList(int argc, char** argv, int start) {
  if (const char* socket = FlagValue(argc, argv, start, "--socket")) {
    SeerClient client = ConnectOrDie(socket);
    const StatusOr<std::vector<TenantId>> tenants = client.TenantList();
    if (!tenants.ok()) {
      std::fprintf(stderr, "seerctl: %s\n", tenants.status().message().c_str());
      return 1;
    }
    PrintTenantIds(*tenants, std::string("served at ") + socket);
    return 0;
  }
  const char* root = Positional(argc, argv, start);
  if (root == nullptr) {
    std::fprintf(stderr, "seerctl: tenant list requires a ROOT argument (or --socket)\n");
    return 2;
  }
  PrintTenantIds(ListTenantsOrDie(&DefaultFs(), root), std::string("under ") + root);
  return 0;
}

int TenantStatsCmd(int argc, char** argv, int start) {
  const char* one = FlagValue(argc, argv, start, "--tenant");
  if (const char* socket = FlagValue(argc, argv, start, "--socket")) {
    SeerClient client = ConnectOrDie(socket);
    const StatusOr<std::vector<TenantStats>> stats =
        client.Stats(one != nullptr ? TenantIdOrDie(one) : kInvalidTenantId);
    if (!stats.ok()) {
      std::fprintf(stderr, "seerctl: %s\n", stats.status().message().c_str());
      return 1;
    }
    std::vector<TenantRow> rows;
    for (const TenantStats& s : *stats) {
      rows.push_back({s, s.resident ? "resident" : "evicted"});
    }
    PrintTenantRows(rows);
    return 0;
  }
  const char* root = Positional(argc, argv, start);
  if (root == nullptr) {
    std::fprintf(stderr, "seerctl: tenant stats requires a ROOT argument (or --socket)\n");
    return 2;
  }
  std::vector<TenantId> tenants;
  if (one != nullptr) {
    tenants.push_back(TenantIdOrDie(one));
  } else {
    tenants = ListTenantsOrDie(&DefaultFs(), root);
  }
  // Recover() never writes.
  std::vector<TenantRow> rows;
  int rc = 0;
  for (const TenantId tenant : tenants) {
    const std::string dir = SnapshotStore::TenantDirectory(root, tenant);
    SnapshotStore store(&DefaultFs(), dir);
    const auto recovered = store.Recover();
    if (!recovered.ok()) {
      std::fprintf(stderr, "seerctl: tenant %u: UNREADABLE: %s\n", tenant,
                   recovered.status().message().c_str());
      rc = 1;
      continue;
    }
    TenantRow row;
    row.stats.tenant = tenant;
    row.stats.generation = recovered->generation;
    row.stats.files = recovered->correlator->files().size();
    row.stats.memory_bytes = recovered->correlator->MemoryBytes();
    row.state = recovered->torn_wal_tail ? "torn-wal-tail"
                : recovered->fresh       ? "empty"
                                         : "healthy";
    rows.push_back(std::move(row));
  }
  PrintTenantRows(rows);
  return rc;
}

int TenantCheckpoint(int argc, char** argv, int start) {
  const TenantTarget target = TenantTargetOrDie("checkpoint", argc, argv, start);
  if (target.socket != nullptr) {
    SeerClient client = ConnectOrDie(target.socket);
    const Status status = client.Checkpoint(target.tenant);
    if (!status.ok()) {
      std::fprintf(stderr, "seerctl: %s\n", status.message().c_str());
      return 1;
    }
    const StatusOr<TenantStats> stats = LiveStatsOrDie(client, target.tenant);
    if (stats.ok()) {
      PrintCheckpointed(target.tenant, *stats);
    }
    return 0;
  }
  TenantRouter router(&DefaultFs(), target.root, TenantRouterConfig());
  const Status status = router.CheckpointTenant(target.tenant);
  if (!status.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", status.message().c_str());
    return 1;
  }
  auto stats = router.Stats(target.tenant);
  const StatusOr<Correlator*> live = router.CorrelatorFor(target.tenant);
  if (stats.ok() && live.ok()) {
    stats->memory_bytes = (*live)->MemoryBytes();
    PrintCheckpointed(target.tenant, *stats);
  }
  return 0;
}

int TenantEvict(int argc, char** argv, int start) {
  const TenantTarget target = TenantTargetOrDie("evict", argc, argv, start);
  if (target.socket != nullptr) {
    SeerClient client = ConnectOrDie(target.socket);
    const StatusOr<TenantStats> before = LiveStatsOrDie(client, target.tenant);
    if (!before.ok()) {
      std::fprintf(stderr, "seerctl: %s\n", before.status().message().c_str());
      return 1;
    }
    const Status status = client.Evict(target.tenant);
    if (!status.ok()) {
      std::fprintf(stderr, "seerctl: %s\n", status.message().c_str());
      return 1;
    }
    PrintEvicted(target.tenant, before->memory_bytes);
    return 0;
  }
  TenantRouter router(&DefaultFs(), target.root, TenantRouterConfig());
  // The router materialises tenants lazily; restore first so the evict
  // path (settle -> fold WAL -> release) runs against live state.
  const StatusOr<Correlator*> live = router.CorrelatorFor(target.tenant);
  if (!live.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", live.status().message().c_str());
    return 1;
  }
  const uint64_t memory = (*live)->MemoryBytes();
  const Status status = router.EvictTenant(target.tenant);
  if (!status.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", status.message().c_str());
    return 1;
  }
  PrintEvicted(target.tenant, memory);
  return 0;
}

int TenantParams(int argc, char** argv, int start) {
  const TenantTarget target = TenantTargetOrDie("params", argc, argv, start);
  const char* set_path = FlagValue(argc, argv, start, "--set");
  if (target.socket != nullptr) {
    SeerClient client = ConnectOrDie(target.socket);
    if (set_path != nullptr) {
      const Status status = client.ParamsSet(target.tenant, ReadFileOrDie(set_path));
      if (!status.ok()) {
        std::fprintf(stderr, "seerctl: %s\n", status.message().c_str());
        return 1;
      }
      std::printf("tenant %u: params override applied and persisted\n", target.tenant);
      return 0;
    }
    const StatusOr<std::string> text = client.ParamsGet(target.tenant);
    if (!text.ok()) {
      std::fprintf(stderr, "seerctl: %s\n", text.status().message().c_str());
      return 1;
    }
    std::fputs(text->c_str(), stdout);
    return 0;
  }
  TenantRouter router(&DefaultFs(), target.root, TenantRouterConfig());
  if (set_path != nullptr) {
    const Status status = router.SetTenantParams(target.tenant, ReadFileOrDie(set_path));
    if (!status.ok()) {
      std::fprintf(stderr, "seerctl: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("tenant %u: params override applied and persisted\n", target.tenant);
    return 0;
  }
  const StatusOr<std::string> text = router.GetTenantParams(target.tenant);
  if (!text.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", text.status().message().c_str());
    return 1;
  }
  std::fputs(text->c_str(), stdout);
  return 0;
}

int TenantShutdown(int argc, char** argv, int start) {
  const char* socket = FlagValue(argc, argv, start, "--socket");
  if (socket == nullptr) {
    std::fprintf(stderr, "seerctl: tenant shutdown requires --socket SPEC\n");
    return 2;
  }
  SeerClient client = ConnectOrDie(socket);
  const Status status = client.Shutdown();
  if (!status.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", status.message().c_str());
    return 1;
  }
  std::printf("server at %s draining: sealing and checkpointing every resident tenant\n",
              socket);
  return 0;
}

const std::vector<Subcommand>& TenantCommands() {
  static const std::vector<Subcommand> commands = {
      {"list", "tenant list {ROOT | --socket SPEC}",
       "List the tenants of a multi-tenant service root: one\n"
       "tenant-NNNNNNNN store directory per tenant, each an ordinary\n"
       "single-instance store that `seerctl db` reads unchanged.\n"
       "With --socket, ask a live `seerctl serve` process instead.\n",
       TenantList, "--socket"},
      {"stats", "tenant stats {ROOT | --socket SPEC} [--tenant ID]",
       "Per-tenant durable generation, tracked files, memory bytes, and\n"
       "state. Offline, each store is recovered read-only; with --socket,\n"
       "a live server reports the same counters from its router. On a\n"
       "quiesced (checkpointed) tenant the two backends agree exactly.\n\n"
       "  --socket SPEC live-service endpoint (unix:PATH, tcp:HOST:PORT)\n"
       "  --tenant ID   only this tenant\n",
       TenantStatsCmd, "--socket --tenant"},
      {"checkpoint", "tenant checkpoint {ROOT | --socket SPEC} TENANT",
       "Synchronously checkpoint one tenant through the router: fold its\n"
       "WAL into a fresh snapshot generation and prune, exactly as the\n"
       "live service's staggered scheduler would.\n",
       TenantCheckpoint, "--socket"},
      {"evict", "tenant evict {ROOT | --socket SPEC} TENANT",
       "Run the seal-and-release eviction path for one tenant: settle any\n"
       "in-flight checkpoint, fold the WAL into a synchronous snapshot,\n"
       "release the in-memory state. The store is left with an empty WAL,\n"
       "so the next restore replays nothing.\n",
       TenantEvict, "--socket"},
      {"params", "tenant params {ROOT | --socket SPEC} TENANT [--set FILE]",
       "Print one tenant's effective correlator parameters (params_io\n"
       "text), or with --set FILE install a persisted per-tenant override\n"
       "parsed over the service defaults. Overrides live in the tenant's\n"
       "store directory (params.seer), survive eviction and restart, and\n"
       "apply live when set through a running server (max_neighbors stays\n"
       "pinned until restore; it bakes the relation-table slab geometry).\n",
       TenantParams, "--socket --set"},
      {"shutdown", "tenant shutdown --socket SPEC",
       "Gracefully stop a live server: it acknowledges, drains buffered\n"
       "frames, then seals and checkpoints every resident tenant before\n"
       "exiting.\n",
       TenantShutdown, "--socket"},
  };
  return commands;
}

int Tenant(int argc, char** argv, int start) {
  return RunRegistry("seerctl", TenantCommands(), argc, argv, start);
}

// --- serve / stream ------------------------------------------------------------

uint64_t U64FlagOr(int argc, char** argv, int start, const char* flag, uint64_t fallback) {
  const char* value = FlagValue(argc, argv, start, flag);
  if (value == nullptr) {
    return fallback;
  }
  uint64_t parsed = 0;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "seerctl: %s: invalid value '%s'\n", flag, value);
    std::exit(2);
  }
  return parsed;
}

int ServeCmd(int argc, char** argv, int start) {
  const char* root = Positional(argc, argv, start);
  const char* socket = FlagValue(argc, argv, start, "--socket");
  if (root == nullptr || socket == nullptr) {
    std::fprintf(stderr, "seerctl: serve requires ROOT and --socket SPEC\n");
    return 2;
  }
  HoardServiceConfig config;
  config.io_threads = IoThreadsFlagOrDie(argc, argv, start);
  config.router.defaults = ParamsFromFlagOrDie(argc, argv, start);
  config.observer = ControlFromFlagOrDie(argc, argv, start);
  config.router.checkpoint_interval =
      static_cast<Time>(U64FlagOr(argc, argv, start, "--checkpoint-interval-s",
                                  config.router.checkpoint_interval / kMicrosPerSecond)) *
      kMicrosPerSecond;
  config.router.max_resident_tenants = static_cast<size_t>(
      U64FlagOr(argc, argv, start, "--max-resident", config.router.max_resident_tenants));
  config.router.max_resident_bytes =
      U64FlagOr(argc, argv, start, "--max-resident-mb",
                config.router.max_resident_bytes >> 20) << 20;
  HoardService service(&DefaultFs(), root, config);
  const Status listening = service.Listen(socket);
  if (!listening.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", listening.message().c_str());
    return 1;
  }
  std::printf("seerctl: serving %s on %s\n", root, socket);
  std::fflush(stdout);
  const Status served = service.Serve();
  std::printf("seerctl: server drained: %llu connection%s, %llu frame%s, %llu event%s, "
              "%llu protocol error%s\n",
              static_cast<unsigned long long>(service.connections_accepted()),
              service.connections_accepted() == 1 ? "" : "s",
              static_cast<unsigned long long>(service.frames_received()),
              service.frames_received() == 1 ? "" : "s",
              static_cast<unsigned long long>(service.events_ingested()),
              service.events_ingested() == 1 ? "" : "s",
              static_cast<unsigned long long>(service.protocol_errors()),
              service.protocol_errors() == 1 ? "" : "s");
  if (!served.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", served.message().c_str());
    return 1;
  }
  return 0;
}

int StreamCmd(int argc, char** argv, int start) {
  const char* trace = Positional(argc, argv, start);
  const char* socket = FlagValue(argc, argv, start, "--socket");
  const char* tenant_flag = FlagValue(argc, argv, start, "--tenant");
  if (trace == nullptr || socket == nullptr || tenant_flag == nullptr) {
    std::fprintf(stderr, "seerctl: stream requires TRACE, --socket SPEC, and --tenant ID\n");
    return 2;
  }
  const TenantId tenant = TenantIdOrDie(tenant_flag);
  std::vector<TraceEvent> events;
  if (!ForEachTraceEvent(trace, [&](const TraceEvent& event) { events.push_back(event); })) {
    return 1;
  }
  SeerClient client = ConnectOrDie(socket);
  const Status streamed = client.StreamEvents(tenant, events);
  if (!streamed.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", streamed.message().c_str());
    return 1;
  }
  // Frames are processed in connection order, so a control round-trip is
  // a delivery barrier: once it returns, every event above is ingested.
  const Status synced = client.Ping();
  if (!synced.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", synced.message().c_str());
    return 1;
  }
  std::printf("streamed %zu events to tenant %u at %s\n", events.size(), tenant, socket);
  return 0;
}

// --- registry --------------------------------------------------------------------

const std::vector<Subcommand>& Commands() {
  static const std::vector<Subcommand> commands = {
      {"gen-trace", "gen-trace [--machine A..I] [--hours H] [--seed S] [--binary] -o FILE",
       "Generate a synthetic reference trace for one of the paper's nine\n"
       "machine profiles (Section 5).\n\n"
       "  --machine A..I  machine profile (default D)\n"
       "  --hours H       active hours to simulate (default 1.0)\n"
       "  --seed S        RNG seed (default 1)\n"
       "  --binary        write the compact binary trace format\n"
       "  -o FILE         output file (required)\n",
       GenTrace, "--machine --hours --seed -o", "--binary"},
      {"stats", "stats TRACE",
       "Per-operation, per-status, and per-file statistics for a trace.\n", Stats},
      {"replay", "replay TRACE [--params FILE] [--control FILE] [--stats] [--save DIR]",
       "Replay a trace through the observer and correlator (simulation\n"
       "mode), print what was learned, optionally save it as a store.\n\n"
       "  --params FILE   correlator parameters\n"
       "  --control FILE  observer control file\n"
       "  --stats         print replay wall time and references/sec\n"
       "  --save DIR      commit the learned database to the snapshot\n"
       "                  store DIR as one new generation\n",
       Replay, "--params --control --save", "--stats"},
      {"clusters", "clusters DIR [--min-size N]",
       "Dump the project clusters of the database in store DIR.\n\n"
       "  --min-size N   only clusters with at least N members (default 2)\n",
       Clusters, "--min-size"},
      {"cluster", "cluster DIR [--stats]",
       "Build project clusters and print build statistics.\n\n"
       "  --stats        also print dirty-set size, rescored files, edges\n",
       ClusterStats, "", "--stats"},
      {"hoard", "hoard DIR --budget-mb MB [--stats]",
       "Compute hoard contents from the database in store DIR under a space\n"
       "budget. --stats prints the fill-plane breakdown (aggregate cache\n"
       "hits, phase times).\n",
       Hoard, "--budget-mb", "--stats"},
      {"check-config", "check-config FILE",
       "Validate a system control file and echo the parsed configuration.\n", CheckConfig},
      {"suggest-reorg", "suggest-reorg DIR [--min-confidence F]",
       "Suggest directory reorganisations from the cluster structure.\n", SuggestReorg,
       "--min-confidence"},
      {"pipeline", "pipeline TRACE [--control FILE]",
       "Replay a trace through the instrumented observer -> sink-chain ->\n"
       "async-correlator data plane and print per-stage counters, latency\n"
       "percentiles, and queue statistics.\n",
       Pipeline, "--control"},
      {"db", "db {save|dump|verify|compact|info} DIR ...",
       "Operate on a crash-safe snapshot+WAL store directory.\n"
       "Run `seerctl db` for the sub-command list.\n",
       Db, "", "", /*has_subcommands=*/true},
      {"tenant", "tenant {list|stats|evict|checkpoint|params|shutdown} ...",
       "Operate on a multi-tenant hoard-service root: a directory of\n"
       "tenant-NNNNNNNN single-instance stores driven by one TenantRouter\n"
       "(see src/server/tenant_router.h). Every verb works offline against\n"
       "ROOT or live against a server via --socket SPEC. Run\n"
       "`seerctl tenant` for the sub-command list.\n",
       Tenant, "", "", /*has_subcommands=*/true},
      {"serve", "serve ROOT --socket SPEC [--io-threads K] [--params FILE] [--control FILE]",
       "Run the hoard service: listen on SPEC (unix:PATH, tcp:HOST:PORT,\n"
       "or a bare UDS path), shard connections over the I/O threads, route\n"
       "kEvents frames into per-tenant correlators, and answer the control\n"
       "protocol (src/server/service.h). Runs until\n"
       "`seerctl tenant shutdown --socket SPEC`, then seals and\n"
       "checkpoints every resident tenant.\n\n"
       "  --socket SPEC             endpoint to listen on (required)\n"
       "  --io-threads K            connection shards (default: SEER_THREADS,\n"
       "                            else all cores)\n"
       "  --params FILE             fleet-default correlator parameters\n"
       "  --control FILE            observer control file\n"
       "  --checkpoint-interval-s N per-tenant checkpoint period\n"
       "  --max-resident N          tenant residency budget (0 = unbounded)\n"
       "  --max-resident-mb MB      resident-memory budget (0 = unbounded)\n",
       ServeCmd,
       "--socket --io-threads --params --control --checkpoint-interval-s --max-resident "
       "--max-resident-mb"},
      {"stream", "stream TRACE --socket SPEC --tenant ID",
       "Stream a trace file (text or binary) to a live server as one\n"
       "tenant's reference stream, batched into self-contained event\n"
       "frames, and wait until every event is ingested.\n",
       StreamCmd, "--socket --tenant"},
  };
  return commands;
}

int Main(int argc, char** argv) {
  // Fail fast on a malformed SEER_THREADS before `serve` sizes its I/O
  // shards from it.
  if (const StatusOr<int> env = SeerThreadsFromEnv(); !env.ok()) {
    std::fprintf(stderr, "seerctl: %s\n", env.status().message().c_str());
    return 2;
  }
  return RunRegistry("seerctl", Commands(), argc, argv, 1);
}

}  // namespace
}  // namespace seer

int main(int argc, char** argv) { return seer::Main(argc, argv); }
