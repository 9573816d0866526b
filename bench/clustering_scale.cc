// Section 3.3.2 — Clustering time complexity, plus the incremental engine.
//
// SEER's variation of Jarvis-Patrick avoids the O(N^2) all-pairs neighbor
// comparison by reusing the relation table's per-file lists, giving O(N)
// time. This bench measures wall-clock clustering time across a range of
// file counts in two configurations:
//
//   full       — every edge rescored (incremental rebuilds off);
//   incremental— warm edge cache, ~1% of files touched with fresh
//                observations, rebuild rescoring only the dirty set.
//
// Both produce bit-identical ClusterSets (checked here); per-file cost
// should stay roughly flat as N grows (the O(N) claim).
//
// In addition to the interactive table, the binary always writes
// BENCH_clustering.json — rows of {files, clusters, serial_ms,
// us_per_file} plus the incremental measurement — so future changes have a
// machine-readable perf trajectory to compare against.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/correlator.h"

namespace seer {
namespace {

constexpr int kProjectSize = 16;

std::unique_ptr<Correlator> LoadedCorrelator(int n_files, int project_size) {
  auto correlator = std::make_unique<Correlator>();
  Time t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int f = 0; f < n_files; ++f) {
      FileReference ref;
      ref.pid = 1 + f / project_size;  // one process stream per project
      ref.kind = RefKind::kPoint;
      ref.path = GlobalPaths().Intern("/p" + std::to_string(f / project_size) + "/f" +
                                      std::to_string(f % project_size));
      ref.time = (t += 1000);
      correlator->OnReference(ref);
    }
  }
  return correlator;
}

double TimedBuildMs(Correlator* correlator, ClusterSet* out) {
  const auto start = std::chrono::steady_clock::now();
  ClusterSet clusters = correlator->BuildClusters();
  const auto stop = std::chrono::steady_clock::now();
  if (out != nullptr) {
    *out = std::move(clusters);
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

bool SameClusters(const ClusterSet& a, const ClusterSet& b) {
  if (a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].members != b.clusters[i].members) {
      return false;
    }
  }
  return true;
}

// Touches ~1% of files with fresh cross-project observations: one shared
// reference stream over every touched file creates new neighbor-list
// entries (set changes), dirtying the touched files and their reverse
// neighbors — the steady-state "a bit of work happened since the last
// refill" shape.
int TouchOnePercent(Correlator* correlator, int n_files, Time* t) {
  const int touched = n_files / 100 > 0 ? n_files / 100 : 1;
  const int stride = n_files / touched;
  for (int k = 0; k < touched; ++k) {
    const int f = k * stride;
    FileReference ref;
    ref.pid = 77'000;  // one fresh stream crossing project boundaries
    ref.kind = RefKind::kPoint;
    ref.path = GlobalPaths().Intern("/p" + std::to_string(f / kProjectSize) + "/f" +
                                    std::to_string(f % kProjectSize));
    ref.time = (*t += 1000);
    correlator->OnReference(ref);
  }
  return touched;
}

}  // namespace
}  // namespace seer

int main() {
  using namespace seer;
  bench::PrintHeader(
      "Clustering scalability (Section 3.3.2): per-file cost should stay\n"
      "roughly flat with N (the O(N) shared-neighbor variation); incremental\n"
      "rescore cuts the constant");

  std::printf("%8s %9s %11s %9s\n", "files", "clusters", "serial(ms)", "us/file");
  bench::PrintRule();

  const int reps = bench::FullScale() ? 3 : 2;
  const int max_n = bench::FullScale() ? 65'536 : 16'384;

  struct Row {
    int files = 0;
    size_t clusters = 0;
    double serial_ms = 0.0;
  };
  std::vector<Row> rows;

  for (int n = 1024; n <= max_n; n *= 2) {
    auto correlator = LoadedCorrelator(n, kProjectSize);
    correlator->SetIncrementalClustering(false);

    Row row;
    row.files = n;
    ClusterSet set;
    for (int r = 0; r < reps; ++r) {
      const double s = TimedBuildMs(correlator.get(), &set);
      row.serial_ms = r == 0 ? s : std::min(row.serial_ms, s);
    }
    row.clusters = set.clusters.size();

    std::printf("%8d %9zu %11.2f %9.2f\n", row.files, row.clusters, row.serial_ms,
                row.serial_ms * 1000.0 / row.files);
    rows.push_back(row);
  }

  // Incremental rescore at the largest N: warm the cache with a full
  // build, touch ~1% of files, rebuild.
  const int n = max_n;
  auto correlator = LoadedCorrelator(n, kProjectSize);
  (void)correlator->BuildClusters();  // warm the edge cache (full build)
  Time t = 1'000'000'000;
  const int touched = TouchOnePercent(correlator.get(), n, &t);
  ClusterSet incremental_set;
  const double incremental_ms = TimedBuildMs(correlator.get(), &incremental_set);
  const ClusterBuildStats inc_stats = correlator->last_cluster_stats();
  // Same state, full rescore: the apples-to-apples baseline and the
  // determinism cross-check for the incremental result.
  correlator->SetIncrementalClustering(false);
  ClusterSet full_after;
  const double full_after_ms = TimedBuildMs(correlator.get(), &full_after);
  const bool identical = SameClusters(incremental_set, full_after);

  bench::PrintRule();
  std::printf(
      "incremental @ N=%d: touched %d files (+%zu dirty, %zu rescored),\n"
      "  full build %.2f ms, incremental rebuild %.2f ms (%.1f%% of full)\n"
      "  phase split: pack %.2f, plan %.2f, score %.2f, merge %.2f ms\n",
      n, touched, inc_stats.dirty_files, inc_stats.files_rescored, full_after_ms,
      incremental_ms, 100.0 * incremental_ms / full_after_ms, inc_stats.pack_ms,
      inc_stats.plan_ms, inc_stats.score_ms, inc_stats.merge_ms);
  std::printf("incremental output identical to a full build: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf(
      "paper reference: ~2 CPU minutes for a typical user's ~20,000 files\n"
      "on a 133 MHz Pentium; a rare, deferrable event.\n");

  const char* path = "BENCH_clustering.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "clustering_scale: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"clustering_scale\",\n");
  bench::WriteJsonMachineMeta(out);
  std::fprintf(out, "  \"outputs_identical\": %s,\n", identical ? "true" : "false");
  std::fprintf(out, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"files\": %d, \"clusters\": %zu, \"serial_ms\": %.3f, "
                 "\"us_per_file\": %.3f}%s\n",
                 row.files, row.clusters, row.serial_ms, row.serial_ms * 1000.0 / row.files,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"incremental\": {\n");
  std::fprintf(out, "    \"files\": %d,\n", n);
  std::fprintf(out, "    \"touched\": %d,\n", touched);
  std::fprintf(out, "    \"dirty_files\": %zu,\n", inc_stats.dirty_files);
  std::fprintf(out, "    \"files_rescored\": %zu,\n", inc_stats.files_rescored);
  std::fprintf(out, "    \"full_ms\": %.3f,\n", full_after_ms);
  std::fprintf(out, "    \"incremental_ms\": %.3f,\n", incremental_ms);
  std::fprintf(out, "    \"ratio\": %.4f\n", incremental_ms / full_after_ms);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return identical ? 0 : 1;
}
