// Multi-tenant server plane at fleet scale.
//
// Drives the TenantRouter with a synthetic fleet of tenants streaming
// interleaved references through one router, with the staggered
// checkpoint scheduler and the memory-budget eviction pass running on a
// periodic Tick — the production shape of the hoard service. Reports the
// aggregate numbers that matter for capacity planning: fleet ingest rate,
// checkpoint seal stalls (the only ingest-visible cost of a background
// checkpoint), per-tenant memory, and evict/restore traffic.
//
// The backing store is MemFs: the subject here is the server plane, not
// the disk, and a thousand tenants' genesis checkpoints would otherwise
// turn the run into an fsync benchmark.
//
// Scale knobs:
//   SEER_MT_TENANTS  fleet size        (default 1000; CI smoke uses 64)
//   SEER_MT_REFS     references/tenant (default 400)
//   SEER_MT_SOCKET   1 = stream over a real UDS through HoardService
//                    (wire framing + per-tenant Observer pipeline included)
//   SEER_BENCH_FULL  10k tenants, more refs
//
// Output: BENCH_multitenant.json
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/correlator.h"
#include "src/server/client.h"
#include "src/server/service.h"
#include "src/server/tenant_router.h"
#include "src/util/fs.h"

namespace seer {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  const long long n = std::atoll(v);
  return n > 0 ? static_cast<size_t>(n) : fallback;
}

// Current VmRSS in bytes, 0 when /proc is unavailable.
uint64_t ReadVmRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %" SCNu64 " kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

// Per-tenant reference stream: a small working set plus a long tail, times
// advancing per event. Tenants share the path universe (shared interner —
// the worst case for isolation) but walk it in tenant-specific orders.
std::vector<FileReference> TenantStream(uint32_t seed, size_t refs) {
  std::mt19937 rng(seed);
  std::vector<FileReference> out;
  out.reserve(refs);
  Time time = 0;
  for (size_t i = 0; i < refs; ++i) {
    time += kMicrosPerSecond / 8;
    FileReference r;
    r.pid = 1 + static_cast<Pid>(rng() % 3);
    r.kind = RefKind::kPoint;
    const uint32_t roll = rng() % 100;
    const uint32_t file = roll < 75 ? rng() % 32 : rng() % 512;
    r.path = GlobalPaths().Intern("/fleet/f" + std::to_string(file));
    r.time = time;
    out.push_back(r);
  }
  return out;
}

// The same stream slice as TenantStream, rendered as syscall events for
// the socket transport: each reference becomes an open/close pair, which
// the server-side Observer collapses back into a point reference.
std::vector<TraceEvent> TenantStreamEvents(uint32_t seed, size_t base, size_t n) {
  const std::vector<FileReference> refs = TenantStream(seed, base + n);
  std::vector<TraceEvent> events;
  events.reserve(2 * n);
  Fd fd = 1000;
  for (size_t i = base; i < base + n; ++i) {
    const FileReference& r = refs[i];
    TraceEvent open;
    open.seq = 2 * i;
    open.time = r.time;
    open.pid = r.pid;
    open.op = Op::kOpen;
    open.path = std::string(GlobalPaths().PathOf(r.path));
    open.fd = fd;
    TraceEvent close;
    close.seq = 2 * i + 1;
    close.time = r.time;
    close.pid = r.pid;
    close.op = Op::kClose;
    close.fd = fd;
    ++fd;
    events.push_back(std::move(open));
    events.push_back(close);
  }
  return events;
}

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[idx];
}

}  // namespace
}  // namespace seer

int main() {
  using namespace seer;
  bench::PrintHeader(
      "Multi-tenant hoard service: one router, staggered checkpoints,\n"
      "budgeted residency — fleet ingest rate and per-tenant footprint");

  const size_t tenants =
      EnvSize("SEER_MT_TENANTS", bench::FullScale() ? 10'000 : 1'000);
  const size_t refs_per_tenant = EnvSize("SEER_MT_REFS", bench::FullScale() ? 1'000 : 400);
  const bool socket_mode = EnvSize("SEER_MT_SOCKET", 0) != 0;
  std::printf("tenants: %zu, refs/tenant: %zu, transport: %s\n\n", tenants, refs_per_tenant,
              socket_mode ? "unix socket" : "in-process");

  MemFs fs;
  TenantRouterConfig config;
  config.checkpoint_interval = 20 * kMicrosPerSecond;  // sim-time: many cycles
  config.max_checkpoints_inflight = 2;
  // Keep at most ~1/4 of the fleet resident so the evict/restore path runs
  // at scale (capacity servers oversubscribe memory exactly like this).
  config.max_resident_tenants = std::max<size_t>(8, tenants / 4);

  // Socket mode wraps the router in HoardService; in-process mode drives
  // it directly. Either way `router` below is the plane under test.
  std::unique_ptr<TenantRouter> inproc;
  std::unique_ptr<HoardService> service;
  if (socket_mode) {
    HoardServiceConfig service_config;
    service_config.router = config;
    service = std::make_unique<HoardService>(&fs, "/srv", service_config);
  } else {
    inproc = std::make_unique<TenantRouter>(&fs, "/srv", config);
  }

  const uint64_t rss_before = ReadVmRssBytes();
  const auto start = std::chrono::steady_clock::now();

  // Interleave the fleet round-robin in chunks, ticking the control plane
  // between rounds. Chunked delivery is what a transport would do; the
  // chunk size keeps the schedule tenant-interleaved rather than serial.
  // Each tenant's sink batches internally (IngestBatcher -> IngestBatch)
  // and folds each batch serially on the thread that flushes it.
  constexpr size_t kChunk = 100;
  const auto run_fleet = [&](TenantRouter* r) -> uint64_t {
    uint64_t delivered = 0;
    Time now = 0;
    for (size_t base = 0; base < refs_per_tenant; base += kChunk) {
      const size_t n = std::min(kChunk, refs_per_tenant - base);
      for (size_t t = 0; t < tenants; ++t) {
        // Regenerate the stream slice from the seed: holding tenants × refs
        // FileReferences resident would dominate the bench's own RSS.
        const std::vector<FileReference> stream =
            TenantStream(0x5eed + static_cast<uint32_t>(t), base + n);
        ReferenceSink* sink = r->SinkFor(static_cast<TenantId>(t + 1));
        for (size_t i = base; i < base + n; ++i) {
          sink->OnReference(stream[i]);
        }
        delivered += n;
      }
      now += 5 * kMicrosPerSecond;
      (void)r->Tick(now);
    }
    (void)r->DrainCheckpoints();
    return delivered;
  };
  uint64_t total_refs = 0;
  uint64_t resident_at_peak = 0;
  if (socket_mode) {
    const std::string socket_path =
        "/tmp/seer-mt-" + std::to_string(::getpid()) + ".sock";
    const Status listening = service->Listen("unix:" + socket_path);
    if (!listening.ok()) {
      std::fprintf(stderr, "listen: %s\n", listening.message().c_str());
      return 1;
    }
    Status serve_status;
    std::thread server([&] { serve_status = service->Serve(); });
    auto client = SeerClient::Connect("unix:" + socket_path);
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n", client.status().message().c_str());
      service->RequestStop();
      server.join();
      return 1;
    }
    for (size_t base = 0; base < refs_per_tenant; base += kChunk) {
      const size_t n = std::min(kChunk, refs_per_tenant - base);
      for (size_t t = 0; t < tenants; ++t) {
        const std::vector<TraceEvent> events =
            TenantStreamEvents(0x5eed + static_cast<uint32_t>(t), base, n);
        const Status streamed =
            client->StreamEvents(static_cast<TenantId>(t + 1), events);
        if (!streamed.ok()) {
          std::fprintf(stderr, "stream: %s\n", streamed.message().c_str());
          return 1;
        }
        total_refs += n;
      }
    }
    // Delivery barrier: frames are processed in connection order, so the
    // ping ack means every streamed event has been ingested.
    if (const Status ping = client->Ping(); !ping.ok()) {
      std::fprintf(stderr, "ping: %s\n", ping.message().c_str());
      return 1;
    }
    const auto fleet_stats = client->Stats();
    if (fleet_stats.ok()) {
      for (const TenantStats& s : *fleet_stats) {
        resident_at_peak += s.resident ? 1 : 0;
      }
    }
    if (const Status stop = client->Shutdown(); !stop.ok()) {
      std::fprintf(stderr, "shutdown: %s\n", stop.message().c_str());
      return 1;
    }
    server.join();
    if (!serve_status.ok()) {
      std::fprintf(stderr, "serve: %s\n", serve_status.message().c_str());
      return 1;
    }
  } else {
    total_refs = run_fleet(inproc.get());
  }

  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const uint64_t rss_after = ReadVmRssBytes();

  TenantRouter& router = socket_mode ? service->router() : *inproc;
  if (!router.last_error().ok()) {
    std::fprintf(stderr, "router error: %s\n", router.last_error().message().c_str());
    return 1;
  }

  const std::vector<uint64_t>& stalls = router.seal_stall_micros();
  const uint64_t p50 = Percentile(stalls, 0.50);
  const uint64_t p99 = Percentile(stalls, 0.99);
  const double refs_per_sec = total_refs / elapsed;
  // Socket mode drains on shutdown (0 resident after Serve returns), so
  // residency is sampled over the wire just before the shutdown verb.
  const uint64_t resident = socket_mode ? resident_at_peak : router.resident_tenants();
  const uint64_t mem_per_resident =
      router.resident_tenants() > 0 ? router.resident_bytes() / router.resident_tenants()
                                    : 0;
  const uint64_t rss_delta = rss_after > rss_before ? rss_after - rss_before : 0;

  std::printf("fleet ingest:      %.0f refs/s (%" PRIu64 " refs, %.2f s)\n",
              refs_per_sec, total_refs, elapsed);
  std::printf("checkpoints:       %" PRIu64 " harvested, seal stall p50 %" PRIu64
              " us, p99 %" PRIu64 " us\n",
              router.checkpoints_harvested(), p50, p99);
  std::printf("residency:         %" PRIu64 "/%zu tenants, %" PRIu64
              " bytes/resident tenant\n",
              resident, tenants, mem_per_resident);
  std::printf("evict/restore:     %" PRIu64 " evictions, %" PRIu64 " restores\n",
              router.evictions(), router.restores());
  if (socket_mode) {
    std::printf("wire:              %" PRIu64 " frames, %" PRIu64
                " events ingested, %" PRIu64 " protocol errors\n",
                service->frames_received(), service->events_ingested(),
                service->protocol_errors());
  }
  std::printf("process RSS delta: %" PRIu64 " bytes (%.1f KB/tenant)\n", rss_delta,
              tenants > 0 ? rss_delta / 1024.0 / tenants : 0.0);
  std::printf("store footprint:   %" PRIu64 " bytes in MemFs\n", fs.TotalBytes());

  const char* path = "BENCH_multitenant.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "multitenant: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"multitenant\",\n");
  bench::WriteJsonMachineMeta(out);
  std::fprintf(out, "  \"transport\": \"%s\",\n", socket_mode ? "socket" : "inproc");
  if (socket_mode) {
    std::fprintf(out, "  \"frames_received\": %" PRIu64 ",\n", service->frames_received());
    std::fprintf(out, "  \"events_ingested\": %" PRIu64 ",\n", service->events_ingested());
  }
  std::fprintf(out, "  \"tenants\": %zu,\n", tenants);
  std::fprintf(out, "  \"refs_per_tenant\": %zu,\n", refs_per_tenant);
  std::fprintf(out, "  \"total_refs\": %" PRIu64 ",\n", total_refs);
  std::fprintf(out, "  \"elapsed_sec\": %.3f,\n", elapsed);
  std::fprintf(out, "  \"aggregate_refs_per_sec\": %.0f,\n", refs_per_sec);
  std::fprintf(out, "  \"checkpoints_harvested\": %" PRIu64 ",\n",
               router.checkpoints_harvested());
  std::fprintf(out, "  \"seal_stall_p50_us\": %" PRIu64 ",\n", p50);
  std::fprintf(out, "  \"seal_stall_p99_us\": %" PRIu64 ",\n", p99);
  std::fprintf(out, "  \"resident_tenants\": %" PRIu64 ",\n", resident);
  std::fprintf(out, "  \"memory_bytes_per_resident_tenant\": %" PRIu64 ",\n",
               mem_per_resident);
  std::fprintf(out, "  \"rss_delta_bytes\": %" PRIu64 ",\n", rss_delta);
  std::fprintf(out, "  \"rss_kb_per_tenant\": %.1f,\n",
               tenants > 0 ? rss_delta / 1024.0 / tenants : 0.0);
  std::fprintf(out, "  \"store_bytes\": %" PRIu64 ",\n", fs.TotalBytes());
  std::fprintf(out, "  \"evictions\": %" PRIu64 ",\n", router.evictions());
  std::fprintf(out, "  \"restores\": %" PRIu64 "\n", router.restores());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return 0;
}
