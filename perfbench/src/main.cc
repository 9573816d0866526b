// seerbench: the repository benchmark.
//
//   seerbench --workload <paper-sim|fleet-stream|fleet-churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload from the seed, checks its outputs, prints a
// human-readable report, and prints as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics. Exits 1
// when an output check fails, 2 on bad arguments.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"

namespace seerbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"}, {"success_ratio", "ratio"},
    {"events_per_s", "1/s"},   {"op_p50_ms", "ms"},   {"op_tail_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workload.self_ns_per_event", "ns"},
    {"observer.self_ns_per_event", "ns"},
    {"observer.refs_per_event", "ratio"},
    {"correlator.ns_per_ref", "ns"},
    {"baselines.lru_ns_per_event", "ns"},
    {"sim.tracker_ns_per_event", "ns"},
    {"sim.missfree_ms", "ms"},
    {"clustering.build_ms_p50", "ms"},
    {"clustering.build_ms_p95", "ms"},
    {"hoard.order_ms_p50", "ms"},
    {"wire.decode_ns_per_event", "ns"},
    {"router.ingest_ns_per_ref", "ns"},
    {"router.tick_ms_p50", "ms"},
    {"router.tick_ms_p99", "ms"},
    {"router.refill_ms", "ms"},
    {"router.seal_stall_us_p99", "us"},
    {"router.checkpoints", "count"},
    {"router.refills", "count"},
    {"router.evict_ms_p50", "ms"},
    {"router.restore_ms_p50", "ms"},
    {"router.evictions", "count"},
    {"router.restores", "count"},
    {"persistence.bytes_written_per_ref", "B"},
    {"persistence.bytes_read_per_restore", "B"},
    {"persistence.syncs", "count"},
    {"service.frames", "count"},
    {"service.protocol_errors", "count"},
    {"trace.overhead_ratio", "ratio"},
    {"sim_events_per_s", "1/s"},
    {"reconnect_p50_ms", "ms"},
    {"reconnect_p95_ms", "ms"},
    {"wire_events_per_s", "1/s"},
    {"ping_p50_ms", "ms"},
    {"ping_p99_ms", "ms"},
    {"burst_ack_p50_ms", "ms"},
    {"burst_ack_p99_ms", "ms"},
    {"client.ping_late_ms_max", "ms"},
    {"client.ping_samples", "count"},
    {"failed_ratio", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: seerbench --workload <paper-sim|fleet-stream|fleet-churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

const Metric* Find(const Result& result, const char* name) {
  for (const Metric& m : result.metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

}  // namespace
}  // namespace seerbench

int main(int argc, char** argv) {
  using namespace seerbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        return Usage();
      }
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || !(options.seconds > 0)) {
    return Usage();
  }

  Result result;
  if (options.workload == "paper-sim") {
    result = RunPaperSim(options);
  } else if (options.workload == "fleet-stream") {
    result = RunFleet(options, /*churn=*/false);
  } else if (options.workload == "fleet-churn") {
    result = RunFleet(options, /*churn=*/true);
  } else {
    return Usage();
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  const auto* specs = options.trace ? kPerLayer : kEndToEnd;
  const size_t count = options.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string json;
  for (size_t i = 0; i < count; ++i) {
    const Metric* m = Find(result, specs[i].name);
    if (m == nullptr && !options.trace) {
      result.Fail(std::string("no value for end-to-end metric ") + specs[i].name);
    }
    // A per-layer metric a workload does not exercise reads 0.
    const double value = m != nullptr ? m->value : 0.0;
    if (!std::isfinite(value)) {
      result.Fail(std::string("non-finite value for ") + specs[i].name);
    }
    std::printf("metric %-36s %.6g %s (samples %" PRIu64 ")\n", specs[i].name,
                std::isfinite(value) ? value : 0.0, specs[i].unit,
                m != nullptr ? m->samples : 0);
    char item[160];
    std::snprintf(item, sizeof(item), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", specs[i].name, std::isfinite(value) ? value : 0.0,
                  specs[i].unit);
    json += item;
  }
  for (const std::string& error : result.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted, result.failed, json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
