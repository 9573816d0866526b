// Serving-plane scaling: the sharded multi-threaded HoardService.
//
// Stands the real service up on a unix socket over MemFs and streams
// pre-encoded kEvents frames from concurrent sender connections (one
// tenant per connection — the deployment shape), sweeping the I/O shard
// count 1/2/4/8. Frames are encoded before the clock starts, so the
// measured path is the server's: poll, frame scan, arena decode,
// observer, relation fold. Each sender ends with its own Ping
// barrier on its own connection, so "elapsed" covers ingest of every
// event, not just the writes.
//
// While the fleet streams, a dedicated control connection pings the
// server and records round-trip latency — the control plane must stay
// responsive while the data plane is saturated (verbs execute on shard 0
// via the mailbox; this measures that path under load).
//
// Scale knobs:
//   SEER_SVC_TENANTS  concurrent sender connections (default 8)
//   SEER_SVC_REFS     references per tenant         (default 20000)
//   SEER_BENCH_FULL   4x the references
//
// Output: BENCH_service.json
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/server/client.h"
#include "src/server/net.h"
#include "src/server/service.h"
#include "src/server/wire.h"
#include "src/util/fs.h"
#include "src/util/path_interner.h"

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

// One tenant's syscall stream: open/close pairs over a zipf-ish mix of a
// hot working set and a long tail, tenant-specific order (seeded), times
// advancing per reference. 2 events = 1 reference.
std::vector<TraceEvent> TenantEvents(uint32_t seed, size_t refs) {
  std::vector<TraceEvent> events;
  events.reserve(2 * refs);
  uint64_t state = seed * 2654435761u + 1;
  Time time = 0;
  Fd fd = 1000;
  for (size_t i = 0; i < refs; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t roll = static_cast<uint32_t>(state >> 33) % 100;
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const uint32_t file = roll < 75 ? static_cast<uint32_t>(state >> 33) % 32
                                    : static_cast<uint32_t>(state >> 33) % 512;
    time += kMicrosPerSecond / 8;
    TraceEvent open;
    open.seq = 2 * i;
    open.time = time;
    open.pid = 1 + static_cast<Pid>(i % 3);
    open.op = Op::kOpen;
    open.path = "/fleet/f" + std::to_string(file);
    open.fd = fd;
    TraceEvent close;
    close.seq = 2 * i + 1;
    close.time = time;
    close.pid = open.pid;
    close.op = Op::kClose;
    close.fd = fd;
    ++fd;
    events.push_back(std::move(open));
    events.push_back(close);
  }
  return events;
}

// Pre-encodes a tenant's stream into ready-to-send kEvents frames of
// kEventsPerFrame events each (compact paths: ~100 KiB per frame, well
// under the 4 MiB cap and in the client library's batching regime).
constexpr size_t kEventsPerFrame = 4096;

std::vector<std::string> EncodeFrames(TenantId tenant,
                                      const std::vector<TraceEvent>& events) {
  std::vector<std::string> frames;
  for (size_t i = 0; i < events.size(); i += kEventsPerFrame) {
    const size_t n = std::min(kEventsPerFrame, events.size() - i);
    const std::vector<TraceEvent> batch(events.begin() + i, events.begin() + i + n);
    frames.push_back(
        wire::EncodeFrame(wire::FrameType::kEvents, tenant, wire::EncodeEvents(batch)));
  }
  return frames;
}

// Sends every frame, then barriers with a Ping on the same connection —
// frames are processed in connection order, so the ack means this
// tenant's stream is fully ingested.
bool SendAndBarrier(const net::Endpoint& endpoint, const std::vector<std::string>& frames) {
  StatusOr<net::OwnedFd> fd = net::Connect(endpoint);
  if (!fd.ok()) {
    std::fprintf(stderr, "sender connect: %s\n", fd.status().message().c_str());
    return false;
  }
  for (const std::string& frame : frames) {
    if (const Status sent = net::SendAll(fd->get(), frame); !sent.ok()) {
      std::fprintf(stderr, "sender send: %s\n", sent.message().c_str());
      return false;
    }
  }
  wire::ControlRequest ping;
  ping.verb = wire::ControlVerb::kPing;
  if (const Status sent = net::SendAll(
          fd->get(), wire::EncodeFrame(wire::FrameType::kRequest, 1,
                                       wire::EncodeControlRequest(ping)));
      !sent.ok()) {
    std::fprintf(stderr, "sender ping: %s\n", sent.message().c_str());
    return false;
  }
  wire::FrameDecoder decoder;
  char buf[4096];
  for (;;) {
    StatusOr<std::optional<wire::Frame>> next = decoder.Next();
    if (!next.ok()) {
      std::fprintf(stderr, "sender decode: %s\n", next.status().message().c_str());
      return false;
    }
    if (next->has_value()) {
      return (*next)->type == wire::FrameType::kResponse;
    }
    bool would_block = false;
    StatusOr<size_t> n = net::ReadSome(fd->get(), buf, sizeof(buf), &would_block);
    if (!n.ok() || *n == 0) {
      std::fprintf(stderr, "sender read: connection lost awaiting barrier\n");
      return false;
    }
    decoder.Append(std::string_view(buf, *n));
  }
}

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[idx];
}

struct SweepPoint {
  int io_threads = 0;
  double refs_per_sec = 0.0;
  uint64_t events_ingested = 0;
  uint64_t frames = 0;
  double elapsed_sec = 0.0;
  uint64_t ping_p50_us = 0;
  uint64_t ping_p99_us = 0;
};

// One sweep point: fresh MemFs + service at `io_threads`, the whole fleet
// streamed concurrently, Ping latency sampled throughout.
bool RunSweepPoint(int io_threads, const std::vector<std::vector<std::string>>& fleets,
                   SweepPoint* out) {
  MemFs fs;
  HoardServiceConfig config;
  config.io_threads = io_threads;
  HoardService service(&fs, "/srv", config);
  const std::string socket_path = "/tmp/seer-svc-" + std::to_string(::getpid()) + "-" +
                                  std::to_string(io_threads) + ".sock";
  if (const Status listening = service.Listen("unix:" + socket_path); !listening.ok()) {
    std::fprintf(stderr, "listen: %s\n", listening.message().c_str());
    return false;
  }
  Status serve_status;
  std::thread server([&] { serve_status = service.Serve(); });

  StatusOr<net::Endpoint> endpoint = net::ParseEndpoint("unix:" + socket_path);
  if (!endpoint.ok()) {
    service.RequestStop();
    server.join();
    return false;
  }
  auto control = SeerClient::Connect("unix:" + socket_path);
  if (!control.ok()) {
    std::fprintf(stderr, "control connect: %s\n", control.status().message().c_str());
    service.RequestStop();
    server.join();
    return false;
  }

  std::atomic<bool> streaming{true};
  std::atomic<bool> failed{false};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> senders;
  senders.reserve(fleets.size());
  for (const std::vector<std::string>& frames : fleets) {
    senders.emplace_back([&, frames = &frames] {
      if (!SendAndBarrier(*endpoint, *frames)) {
        failed.store(true);
      }
    });
  }
  // Control-plane latency under load: ping until the fleet finishes.
  std::vector<uint64_t> ping_us;
  std::thread pinger([&] {
    while (streaming.load()) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!control->Ping().ok()) {
        return;
      }
      ping_us.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& t : senders) {
    t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  streaming.store(false);
  pinger.join();

  out->io_threads = service.io_threads();
  out->events_ingested = service.events_ingested();
  out->frames = service.frames_received();
  out->elapsed_sec = elapsed;
  out->refs_per_sec = elapsed > 0 ? (out->events_ingested / 2.0) / elapsed : 0.0;
  out->ping_p50_us = Percentile(ping_us, 0.50);
  out->ping_p99_us = Percentile(ping_us, 0.99);

  const Status stop = control->Shutdown();
  server.join();
  ::unlink(socket_path.c_str());
  if (!stop.ok()) {
    std::fprintf(stderr, "shutdown: %s\n", stop.message().c_str());
    return false;
  }
  if (!serve_status.ok()) {
    std::fprintf(stderr, "serve: %s\n", serve_status.message().c_str());
    return false;
  }
  if (failed.load() || service.protocol_errors() != 0) {
    std::fprintf(stderr, "sweep point io_threads=%d: sender failure or protocol errors\n",
                 io_threads);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace seer

int main() {
  using namespace seer;
  bench::PrintHeader(
      "Serving-plane scaling: sharded I/O threads, zero-copy ingest,\n"
      "control-plane latency under data-plane load");

  const size_t tenants = EnvSize("SEER_SVC_TENANTS", 8);
  const size_t refs_per_tenant =
      EnvSize("SEER_SVC_REFS", bench::FullScale() ? 80'000 : 20'000);
  constexpr int kMaxIoThreads = 8;
  std::printf("tenants: %zu, refs/tenant: %zu, host cpus: %d\n\n", tenants,
              refs_per_tenant, bench::HostCpus());
  bench::WarnIfScalingInvalid("service_scale", kMaxIoThreads);

  // Pre-encode every tenant's frames once; the sweep reuses them.
  std::vector<std::vector<std::string>> fleets;
  fleets.reserve(tenants);
  size_t total_frames = 0;
  for (size_t t = 0; t < tenants; ++t) {
    fleets.push_back(EncodeFrames(static_cast<TenantId>(t + 1),
                                  TenantEvents(0x5eed + static_cast<uint32_t>(t),
                                               refs_per_tenant)));
    total_frames += fleets.back().size();
  }
  std::printf("pre-encoded %zu frames across %zu connections\n\n", total_frames, tenants);

  std::vector<SweepPoint> sweep;
  for (const int io : {1, 2, 4, kMaxIoThreads}) {
    SweepPoint point;
    if (!RunSweepPoint(io, fleets, &point)) {
      return 1;
    }
    sweep.push_back(point);
    std::printf("io_threads=%d: %12.0f refs/s  (%.2f s, %" PRIu64 " events, %" PRIu64
                " frames)  ping p50 %" PRIu64 " us p99 %" PRIu64 " us\n",
                point.io_threads, point.refs_per_sec, point.elapsed_sec,
                point.events_ingested, point.frames, point.ping_p50_us,
                point.ping_p99_us);
  }

  const char* path = "BENCH_service.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "service_scale: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"service_scale\",\n");
  bench::WriteJsonMachineMeta(out);
  bench::WriteJsonScalingValid(out, kMaxIoThreads);
  std::fprintf(out, "  \"tenants\": %zu,\n", tenants);
  std::fprintf(out, "  \"refs_per_tenant\": %zu,\n", refs_per_tenant);
  std::fprintf(out, "  \"io_sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(out,
                 "    {\"threads\": %d, \"refs_per_sec\": %.0f, \"elapsed_sec\": %.3f, "
                 "\"events_ingested\": %" PRIu64 ", \"frames_received\": %" PRIu64
                 ", \"ping_p50_us\": %" PRIu64 ", \"ping_p99_us\": %" PRIu64 "}%s\n",
                 p.io_threads, p.refs_per_sec, p.elapsed_sec, p.events_ingested, p.frames,
                 p.ping_p50_us, p.ping_p99_us, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path);
  return 0;
}
