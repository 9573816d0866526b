// fleet-stream and fleet-churn: a HoardService on a unix socket over
// MemFs, fed paper-shaped traces through the wire.
//
// Set-up generates one trace per tenant with the workload generators
// (user model -> syscall tracer) and encodes it into kEvents frames. A
// tenant's machine profile and file environment are fixed by its id; the
// seed picks what its user does, so the amount of state a round builds
// changes little from seed to seed. The measured part is the
// server: it is started fresh for every round, fed every frame, and shut
// down, which seals every tenant. The server's clock follows the trace
// time of the frames sent, so checkpoints, hoard refills and evictions
// fire at their deployed pace relative to user activity.
//
//   fleet-stream  8 tenants, resident for the whole round. One sender
//                 connection streams every tenant's frames in trace-time
//                 order, flat out, then barriers with a ping.
//   fleet-churn   48 tenants over a 4-tenant residency budget. Each trace
//                 is cut into 24 bursts; the sender visits the tenants in
//                 trace-time order and sends one burst (one frame, then a
//                 ping barrier) per visit, so almost every burst restores
//                 one tenant and evicts another.
//
// A second connection pings the server open-loop at a fixed rate; each
// ping is timed from its due time.
//
// Output checks: every tenant's snapshot, recovered from the server's
// store after the round, must equal the snapshot of an in-process
// Observer -> router replay of the same frames.
//
// The traced run adds a serial replay of the same frames through the
// layers' public functions (FrameDecoder::NextView, EventArena::Decode,
// Observer::OnInternedEvent, TenantRouter::SinkFor(t), plus Tick,
// EvictTenant and CorrelatorFor), once untraced and once traced, for the
// per-layer self times.
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "counting_fs.h"
#include "span_trace.h"
#include "src/observer/observer.h"
#include "src/process/syscall_tracer.h"
#include "src/server/net.h"
#include "src/server/service.h"
#include "src/server/tenant_router.h"
#include "src/server/wire.h"
#include "src/sim/machine_sim.h"
#include "src/util/fs.h"
#include "src/util/path_interner.h"
#include "src/workload/environment.h"
#include "src/workload/machine_profile.h"
#include "src/workload/user_model.h"

namespace seerbench {
namespace {

using seer::Status;
using seer::TenantId;
using seer::Time;
using seer::TraceEvent;
namespace wire = seer::wire;

// --- fixed budget ----------------------------------------------------------------
// Server: Shape::io_threads I/O shards and a one-thread worker pool.
// Client: one sender thread and connection, one pinger thread and
// connection. None of it depends on the host. Few busy threads on purpose:
// with every vCPU of a shared 4-vCPU host busy, a fixed CPU loop ran 22%
// slower on average and its per-second rate spread over 660-1940 against
// 1350-1890 for one busy thread.
constexpr int kPoolThreads = 1;
// A ping answered later than this after its due time counts as failed.
constexpr double kPingDeadlineMs = 1000.0;
constexpr int kResponseTimeoutMs = 30'000;
constexpr char kRoot[] = "/srv";
constexpr char kMachines[] = "ABCDEFGHI";

struct Shape {
  const char* name;
  int io_threads;
  size_t tenants;
  size_t events_per_tenant;  // each trace is cut to exactly this many events
  size_t events_per_frame;   // fleet-churn: one frame is one burst
  size_t max_resident;       // residency budget (0 = unbounded)
  std::chrono::microseconds ping_interval;
  bool churn;                // a ping barrier after every frame
};

// Ping intervals, tried at 2, 5, 10 and 20 ms: fleet-stream's ping latency
// does not depend on the rate, so it takes the fastest; under churn the
// ping backlog grows at 2 and 5 ms, so it takes 10 ms.
//
// I/O shards: fleet-stream's sender is flat out, and a shard reads a
// connection until its socket runs dry, so the pinger needs a shard of its
// own (shard 0; the sender connects first and gets shard 1). fleet-churn's
// sender waits for every ack, so its socket runs dry after each burst, and
// one shard serves both without cross-thread hand-offs.
constexpr Shape kStream{"fleet-stream", 2, 8, 20 * 1024, 1024, 0,
                        std::chrono::microseconds(2000), false};
constexpr Shape kChurn{"fleet-churn", 1, 48, 24 * 167, 167, 4,
                       std::chrono::microseconds(10000), true};

// --- set-up: traces and frames ----------------------------------------------------

class Recorder : public seer::TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

// One device's trace: its pre-trace history, then whole days of use
// until the trace holds `events` events; cut to exactly that many.
std::vector<TraceEvent> GenerateTrace(const seer::MachineProfile& profile, uint64_t env_seed,
                                      uint64_t seed, size_t events) {
  seer::SimFilesystem fs;
  seer::Rng env_rng(env_seed ^ profile.seed_base);
  const seer::UserEnvironment env = seer::BuildEnvironment(&fs, profile.env, &env_rng);
  seer::ProcessTable processes;
  seer::SimClock clock;
  seer::SyscallTracer tracer(&fs, &processes, &clock);
  Recorder recorder;
  tracer.AddSink(&recorder);
  seer::UserModel user(&tracer, &env, profile.user, seed ^ (profile.seed_base << 1));
  user.SeedHistory();
  const Time origin = clock.now();
  for (int d = 0; recorder.events.size() < events; ++d) {
    user.RunActiveHours(profile.active_hours_per_day);
    const Time day_end = origin + static_cast<Time>(d + 1) * seer::kMicrosPerDay;
    if (clock.now() < day_end) {
      clock.Advance(day_end - clock.now());
    }
  }
  recorder.events.resize(events);
  return std::move(recorder.events);
}

struct Frame {
  TenantId tenant = 0;
  Time end_time = 0;  // trace time of the frame's last event
  std::string bytes;  // header + payload, ready to send
};

struct FleetInput {
  std::vector<std::vector<Frame>> frames;  // [tenant - 1], in trace order
  std::vector<const Frame*> order;         // all frames, in send (and replay) order
  std::vector<char> machines;                       // [tenant - 1]
  uint64_t events = 0;
  uint64_t generated_events = 0;
  double generate_s = 0.0;
};

std::vector<Frame> EncodeTenant(TenantId tenant, const std::vector<TraceEvent>& events,
                                size_t per_frame) {
  std::vector<Frame> frames;
  for (size_t i = 0; i < events.size(); i += per_frame) {
    const size_t n = std::min(per_frame, events.size() - i);
    const std::vector<TraceEvent> batch(events.begin() + static_cast<ptrdiff_t>(i),
                                        events.begin() + static_cast<ptrdiff_t>(i + n));
    Frame frame;
    frame.tenant = tenant;
    frame.end_time = batch.back().time;
    frame.bytes = wire::EncodeFrame(wire::FrameType::kEvents, tenant, wire::EncodeEvents(batch));
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::unique_ptr<FleetInput> SetUpFleet(const Shape& shape, uint64_t seed) {
  auto in = std::make_unique<FleetInput>();
  for (size_t i = 0; i < shape.tenants; ++i) {
    const TenantId tenant = static_cast<TenantId>(i + 1);
    const char machine = kMachines[i % 9];
    const Clock::time_point start = Clock::now();
    const std::vector<TraceEvent> events = GenerateTrace(
        seer::GetMachineProfile(machine), tenant, seed * 1'000'003 + tenant,
        shape.events_per_tenant);
    in->generate_s += SecondsSince(start);
    in->generated_events += events.size();
    in->machines.push_back(machine);
    in->frames.push_back(EncodeTenant(tenant, events, shape.events_per_frame));
    in->events += events.size();
  }

  // Frames go out in trace-time order, so every tenant advances through
  // simulated time together and the server's clock moves with nearly
  // every frame (stable: a tenant's own order is kept).
  for (const std::vector<Frame>& tenant_frames : in->frames) {
    for (const Frame& f : tenant_frames) {
      in->order.push_back(&f);
    }
  }
  std::stable_sort(in->order.begin(), in->order.end(),
                   [](const Frame* a, const Frame* b) { return a->end_time < b->end_time; });
  return in;
}

// --- server configuration ---------------------------------------------------------

uint64_t FileSize(seer::PathId path) {
  return seer::GeometricSizeForPath(std::string(seer::GlobalPaths().PathOf(path)), 0);
}

seer::HoardServiceConfig ServiceConfig(const Shape& shape, const std::atomic<Time>* clock) {
  seer::HoardServiceConfig config;
  config.io_threads = shape.io_threads;
  config.router.threads = kPoolThreads;
  config.router.max_resident_tenants = shape.max_resident;
  // Checkpoints come from the scheduler (hourly, trace time) and from WAL
  // growth past 256 KiB.
  config.router.wal_checkpoint_bytes = 256u << 10;
  // Every machine profile's default hoard size (Table 4).
  config.router.hoard_budget_bytes = 50ull << 20;
  config.router.size_of = FileSize;
  config.clock = [clock] { return clock->load(std::memory_order_relaxed); };
  return config;
}

void AdvanceClock(std::atomic<Time>* clock, Time t) {
  Time seen = clock->load(std::memory_order_relaxed);
  while (seen < t && !clock->compare_exchange_weak(seen, t, std::memory_order_relaxed)) {
  }
}

// --- output check -----------------------------------------------------------------

std::vector<std::string> RecoveredSnapshots(seer::Fs* fs, size_t tenants,
                                            const seer::SeerParams& params, Result* result) {
  std::vector<std::string> out;
  for (size_t i = 0; i < tenants; ++i) {
    const TenantId tenant = static_cast<TenantId>(i + 1);
    seer::SnapshotStore store(fs, seer::SnapshotStore::TenantDirectory(kRoot, tenant));
    const auto recovered = store.Recover(params);
    if (!recovered.ok()) {
      result->Fail("recover tenant " + std::to_string(tenant) + ": " +
                   recovered.status().message());
      out.emplace_back();
      continue;
    }
    out.push_back(recovered->correlator->EncodeSnapshot());
  }
  return out;
}

// The in-process reference: the acknowledged frames, decoded with the
// owning decoder, through one Observer per tenant into a plain router
// (no eviction, no refills), each tenant's frames applied in order.
std::vector<std::string> ReferenceSnapshots(const FleetInput& in,
                                            const seer::HoardServiceConfig& base,
                                            Result* result) {
  seer::MemFs fs;
  seer::TenantRouterConfig config = base.router;
  config.max_resident_tenants = 0;
  config.hoard_budget_bytes = 0;
  seer::TenantRouter router(&fs, kRoot, config);
  for (const std::vector<Frame>& tenant_frames : in.frames) {
    if (tenant_frames.empty()) {
      continue;
    }
    const TenantId tenant = tenant_frames.front().tenant;
    seer::Observer observer(base.observer, /*fs=*/nullptr);
    observer.set_sink(router.SinkFor(tenant));
    observer.set_miss_listener(router.MissLogFor(tenant));
    for (const Frame& f : tenant_frames) {
      const auto events =
          wire::DecodeEvents(std::string_view(f.bytes).substr(wire::kFrameHeaderSize));
      if (!events.ok()) {
        result->Fail("reference decode: " + events.status().message());
        return {};
      }
      for (const TraceEvent& e : *events) {
        observer.OnEvent(e);
      }
    }
  }
  if (!router.last_error().ok()) {
    result->Fail("reference router: " + router.last_error().message());
  }
  if (const Status s = router.Shutdown(); !s.ok()) {
    result->Fail("reference shutdown: " + s.message());
  }
  return RecoveredSnapshots(&fs, in.frames.size(), config.defaults, result);
}

// --- client side --------------------------------------------------------------------

// Waits for the response to request `id` on a blocking connection.
Status AwaitResponse(int fd, wire::FrameDecoder* decoder, uint32_t id) {
  const Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(kResponseTimeoutMs);
  char buf[4096];
  for (;;) {
    auto next = decoder->Next();
    if (!next.ok()) {
      return next.status();
    }
    if (next->has_value()) {
      const wire::Frame& frame = **next;
      if (frame.type != wire::FrameType::kResponse || frame.channel != id) {
        return Status::IoError("unexpected frame awaiting a response");
      }
      const auto response = wire::DecodeControlResponse(frame.payload);
      return response.ok() ? response->ToStatus() : response.status();
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return Status::IoError("response timed out");
    }
    bool would_block = false;
    const auto n = seer::net::ReadSome(fd, buf, sizeof(buf), &would_block);
    if (!n.ok()) {
      return n.status();
    }
    if (*n == 0 && !would_block) {
      return Status::IoError("connection closed awaiting a response");
    }
    decoder->Append(std::string_view(buf, *n));
  }
}

std::string PingFrame(uint32_t id) {
  wire::ControlRequest ping;
  ping.verb = wire::ControlVerb::kPing;
  return wire::EncodeFrame(wire::FrameType::kRequest, id, wire::EncodeControlRequest(ping));
}

struct SenderResult {
  Clock::time_point done;
  std::vector<double> burst_ms;  // fleet-churn: first send to barrier ack
  uint64_t barriers = 0;
  uint64_t barriers_failed = 0;
  std::string error;
};

// Sends every frame in order. fleet-stream: then one barrier.
// fleet-churn: one barrier after every frame (burst).
void RunSender(int fd, const std::vector<const Frame*>& order, bool churn,
               std::atomic<Time>* clock, SenderResult* out) {
  wire::FrameDecoder decoder;
  uint32_t next_id = 1;
  const auto barrier = [&]() {
    ++out->barriers;
    const uint32_t id = next_id++;
    Status s = seer::net::SendAll(fd, PingFrame(id));
    if (s.ok()) {
      s = AwaitResponse(fd, &decoder, id);
    }
    if (!s.ok()) {
      ++out->barriers_failed;
      if (out->error.empty()) {
        out->error = s.message();
      }
    }
    return s.ok();
  };
  for (const Frame* f : order) {
    const Clock::time_point start = Clock::now();
    AdvanceClock(clock, f->end_time);
    if (const Status s = seer::net::SendAll(fd, f->bytes); !s.ok()) {
      out->error = "send: " + s.message();
      ++out->barriers_failed;
      break;
    }
    if (churn) {
      if (!barrier()) {
        break;
      }
      out->burst_ms.push_back(MillisBetween(start, Clock::now()));
    }
  }
  if (!churn && out->error.empty()) {
    barrier();
  }
  out->done = Clock::now();
}

// Open-loop control pings at a fixed rate on their own connection, each
// timed from its due time; pipelined, so a stalled server delays the
// responses, never the schedule.
struct PingResult {
  std::vector<double> latency_ms;
  uint64_t sent = 0;
  uint64_t failed = 0;  // unanswered, errored, or later than kPingDeadlineMs
  double late_ms_max = 0.0;  // how far behind its schedule the pinger sent
};

void RunPinger(int fd, std::chrono::microseconds interval, const std::atomic<bool>* stop,
               PingResult* out) {
  std::vector<Clock::time_point> due;
  uint64_t answered = 0;
  wire::FrameDecoder decoder;
  char buf[4096];
  Clock::time_point next = Clock::now();
  Clock::time_point drain_deadline{};
  bool stopping = false;
  for (;;) {
    Clock::time_point now = Clock::now();
    if (!stopping && stop->load(std::memory_order_acquire)) {
      stopping = true;
      drain_deadline = now + std::chrono::milliseconds(static_cast<int>(2 * kPingDeadlineMs));
    }
    if (stopping && (answered == due.size() || now >= drain_deadline)) {
      break;
    }
    while (!stopping && now >= next) {
      due.push_back(next);
      out->late_ms_max = std::max(out->late_ms_max, MillisBetween(next, now));
      if (!seer::net::SendAll(fd, PingFrame(static_cast<uint32_t>(due.size()))).ok()) {
        stopping = true;
        drain_deadline = now;
        break;
      }
      next += interval;
      now = Clock::now();
    }
    const Clock::time_point wake = stopping ? drain_deadline : next;
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(wake - Clock::now());
    timespec ts{0, 0};
    if (wait.count() > 0) {
      ts.tv_sec = static_cast<time_t>(wait.count() / 1'000'000'000);
      ts.tv_nsec = static_cast<long>(wait.count() % 1'000'000'000);
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::ppoll(&pfd, 1, &ts, nullptr) <= 0) {
      continue;
    }
    bool would_block = false;
    const auto n = seer::net::ReadSome(fd, buf, sizeof(buf), &would_block);
    if (!n.ok() || (*n == 0 && !would_block)) {
      break;
    }
    decoder.Append(std::string_view(buf, *n));
    const Clock::time_point received = Clock::now();
    for (;;) {
      auto frame = decoder.Next();
      if (!frame.ok() || !frame->has_value()) {
        break;
      }
      const uint32_t id = (*frame)->channel;
      const auto response = wire::DecodeControlResponse((*frame)->payload);
      if (id == 0 || id > due.size() || !response.ok() || !response->ToStatus().ok()) {
        continue;  // never answered correctly: counted as failed below
      }
      ++answered;
      out->latency_ms.push_back(MillisBetween(due[id - 1], received));
    }
  }
  out->sent = due.size();
  uint64_t late = 0;
  for (const double ms : out->latency_ms) {
    late += ms > kPingDeadlineMs ? 1 : 0;
  }
  out->failed = (out->sent - answered) + late;
}

// --- one measured server round -------------------------------------------------------

struct RoundResult {
  double stream_s = 0.0;  // first send to the last barrier ack
  PingResult ping;
  std::vector<double> burst_ms;
  uint64_t barriers = 0;
  uint64_t barriers_failed = 0;
  // Server counters, read once Serve returns.
  uint64_t frames = 0;
  uint64_t events_ingested = 0;
  uint64_t protocol_errors = 0;
  uint64_t evictions = 0;
  uint64_t restores = 0;
  uint64_t checkpoints = 0;
  std::vector<uint64_t> seal_stall_us;
  uint64_t refills = 0;
  uint64_t refill_us = 0;
  uint64_t references = 0;
  FsCounts fs;
};

RoundResult RunServerRound(const FleetInput& in, const Shape& shape, const Options& options,
                           const std::vector<std::string>& want, Result* result) {
  RoundResult round;
  seer::MemFs mem;
  CountingFs fs(&mem);
  std::atomic<Time> clock{0};
  const seer::HoardServiceConfig config = ServiceConfig(shape, &clock);
  const std::string socket =
      options.out_dir + "/fleet-" + std::to_string(::getpid()) + ".sock";
  auto service = std::make_unique<seer::HoardService>(&fs, kRoot, config);
  if (const Status s = service->Listen("unix:" + socket); !s.ok()) {
    result->Fail("listen: " + s.message());
    return round;
  }
  Status serve_status;
  std::thread serve([&] { serve_status = service->Serve(); });

  // Accept order fixes each connection's shard, round-robin from shard 1
  // (see Shape): the sender connects first.
  const auto endpoint = seer::net::ParseEndpoint("unix:" + socket);
  std::vector<seer::net::OwnedFd> conns;
  for (int i = 0; i < 2 && endpoint.ok(); ++i) {
    auto fd = seer::net::Connect(*endpoint);
    if (!fd.ok()) {
      result->Fail("connect: " + fd.status().message());
      break;
    }
    conns.push_back(std::move(*fd));
  }
  if (conns.size() == 2) {
    std::atomic<bool> stop_pings{false};
    std::thread pinger(RunPinger, conns[1].get(), shape.ping_interval, &stop_pings,
                       &round.ping);
    SenderResult sender;
    const Clock::time_point start = Clock::now();
    RunSender(conns[0].get(), in.order, shape.churn, &clock, &sender);
    stop_pings.store(true, std::memory_order_release);
    pinger.join();
    round.stream_s = std::chrono::duration<double>(sender.done - start).count();
    round.barriers = sender.barriers;
    round.barriers_failed = sender.barriers_failed;
    round.burst_ms = std::move(sender.burst_ms);
    if (!sender.error.empty()) {
      result->Fail(std::string(shape.name) + " sender: " + sender.error);
    }
  }
  conns.clear();
  service->RequestStop();
  serve.join();
  if (!serve_status.ok()) {
    result->Fail("serve: " + serve_status.message());
  }

  const seer::TenantRouter& router = service->router();
  round.frames = service->frames_received();
  round.events_ingested = service->events_ingested();
  round.protocol_errors = service->protocol_errors();
  round.evictions = router.evictions();
  round.restores = router.restores();
  round.checkpoints = router.checkpoints_harvested();
  round.seal_stall_us = router.seal_stall_micros();
  for (const TenantId tenant : router.ListTenants()) {
    const auto stats = router.Stats(tenant);
    if (stats.ok()) {
      round.refills += stats->refills;
      round.refill_us += stats->refill_us_total;
      round.references += stats->references;
    }
  }
  service.reset();
  round.fs = fs.counts();

  if (round.events_ingested != in.events) {
    result->Fail(std::string(shape.name) + ": server ingested " +
                 std::to_string(round.events_ingested) + " of " + std::to_string(in.events) +
                 " events");
  }
  const std::vector<std::string> got =
      RecoveredSnapshots(&mem, in.frames.size(), config.router.defaults, result);
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (got[i] != want[i]) {
      result->Fail(std::string(shape.name) + ": tenant " + std::to_string(i + 1) +
                   " recovered snapshot differs from the in-process replay");
    }
  }
  return round;
}

// --- serial replay (traced run) --------------------------------------------------------

struct ReplayResult {
  double wall_s = 0.0;
  uint64_t events = 0;
  uint64_t references = 0;
  uint64_t correlator_us = 0;  // IngestStats measure + fold, all tenants
};

struct ReplayLane {
  explicit ReplayLane(seer::ReferenceSink* ingress)
      : observer(seer::ObserverConfig{}, /*fs=*/nullptr),
        spanned(SpanName::kRouterIngest, ingress) {}
  seer::Observer observer;
  SpannedReferenceSink spanned;
  bool seen = false;
  uint64_t last_use = 0;
};

// The server's data path, one frame at a time on this thread, through
// the layers' public functions. Eviction follows the server's policy
// (least recently used past the residency budget) but is called
// explicitly, so its cost is a span of its own.
ReplayResult Replay(const FleetInput& in, const Shape& shape, bool traced, Result* result) {
  ReplayResult out;
  seer::MemFs mem;
  CountingFs fs(&mem);
  std::atomic<Time> unused_clock{0};
  seer::TenantRouterConfig config = ServiceConfig(shape, &unused_clock).router;
  config.max_resident_tenants = 0;
  const Clock::time_point start = Clock::now();
  seer::TenantRouter router(&fs, kRoot, config);

  std::vector<std::unique_ptr<ReplayLane>> lanes;
  for (size_t i = 0; i < in.frames.size(); ++i) {
    const TenantId tenant = static_cast<TenantId>(i + 1);
    auto lane = std::make_unique<ReplayLane>(router.SinkFor(tenant));
    lane->observer.set_sink(traced ? static_cast<seer::ReferenceSink*>(&lane->spanned)
                                   : router.SinkFor(tenant));
    lane->observer.set_miss_listener(router.MissLogFor(tenant));
    lanes.push_back(std::move(lane));
  }
  const auto harvest_correlator = [&](TenantId tenant) {
    Span span(SpanName::kRouterCorrelatorFor);
    const auto correlator = router.CorrelatorFor(tenant);
    if (correlator.ok()) {
      const seer::IngestStats& stats = (*correlator)->ingest_stats();
      out.correlator_us += stats.measure_us + stats.fold_us;
    }
  };

  wire::FrameDecoder decoder;
  wire::EventArena arena;
  std::vector<TenantId> resident;
  uint64_t use = 0;
  Time clock = 0;
  Time last_tick = -1;
  for (const Frame* f : in.order) {
    clock = std::max(clock, f->end_time);
    std::string_view payload;
    {
      Span span(SpanName::kWireFrame);
      decoder.Append(f->bytes);
      const auto view = decoder.NextView();
      if (!view.ok() || !view->has_value()) {
        result->Fail("replay: frame decode failed");
        return out;
      }
      payload = (*view)->payload;
    }
    {
      Span span(SpanName::kWireDecode);
      if (const Status s = arena.Decode(payload); !s.ok()) {
        result->Fail("replay: " + s.message());
        return out;
      }
    }
    ReplayLane& lane = *lanes[f->tenant - 1];
    if (shape.churn && lane.seen && !router.TenantResident(f->tenant)) {
      Span span(SpanName::kRouterRestore);
      (void)router.CorrelatorFor(f->tenant);
    }
    lane.seen = true;
    for (const seer::InternedEvent& e : arena.events()) {
      Span span(SpanName::kObserver);
      lane.observer.OnInternedEvent(e);
    }
    out.events += arena.events().size();
    if (shape.churn) {
      lane.last_use = ++use;
      if (std::find(resident.begin(), resident.end(), f->tenant) == resident.end()) {
        resident.push_back(f->tenant);
      }
      while (resident.size() > shape.max_resident) {
        const auto victim = std::min_element(
            resident.begin(), resident.end(), [&](TenantId a, TenantId b) {
              return lanes[a - 1]->last_use < lanes[b - 1]->last_use;
            });
        harvest_correlator(*victim);
        {
          Span span(SpanName::kRouterEvict);
          if (const Status s = router.EvictTenant(*victim); !s.ok()) {
            result->Fail("replay evict: " + s.message());
          }
        }
        resident.erase(victim);
      }
    }
    if (clock != last_tick) {
      Span span(SpanName::kRouterTick);
      last_tick = clock;
      (void)router.Tick(clock);
    }
  }
  for (const TenantId tenant : router.ListTenants()) {
    if (router.TenantResident(tenant)) {
      harvest_correlator(tenant);
    }
  }
  {
    Span span(SpanName::kRouterShutdown);
    (void)router.DrainCheckpoints();
    if (const Status s = router.Shutdown(); !s.ok()) {
      result->Fail("replay shutdown: " + s.message());
    }
  }
  if (!router.last_error().ok()) {
    result->Fail("replay router: " + router.last_error().message());
  }
  for (const auto& lane : lanes) {
    out.references += lane->observer.references_emitted();
  }
  out.wall_s = SecondsSince(start);
  return out;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Result RunFleet(const Options& options, bool churn) {
  Result result;
  const Shape& shape = churn ? kChurn : kStream;

  // Set-up, repeated: the median is setup_s; the last one is used.
  std::vector<double> setup_s;
  std::unique_ptr<FleetInput> in;
  for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
    in.reset();
    const Clock::time_point start = Clock::now();
    in = SetUpFleet(shape, options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  std::atomic<Time> unused_clock{0};
  const std::vector<std::string> want =
      ReferenceSnapshots(*in, ServiceConfig(shape, &unused_clock), &result);

  // Measured rounds: a fresh server each, identical input. Peak memory is
  // taken after the first: later rounds repeat its work, and would only add
  // the allocator's leftovers from earlier servers.
  std::vector<RoundResult> rounds;
  double peak_rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    rounds.push_back(RunServerRound(*in, shape, options, want, &result));
    if (rounds.size() == 1) {
      peak_rss_mb = PeakRssMb();
    }
  } while (SecondsSince(start) < options.seconds);

  std::vector<double> stream_s;      // per round
  std::vector<double> events_per_s;  // per round
  std::vector<double> ping_ms;
  std::vector<double> burst_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double late_ms_max = 0.0;
  for (const RoundResult& r : rounds) {
    stream_s.push_back(r.stream_s);
    events_per_s.push_back(static_cast<double>(in->events) / r.stream_s);
    ping_ms.insert(ping_ms.end(), r.ping.latency_ms.begin(), r.ping.latency_ms.end());
    burst_ms.insert(burst_ms.end(), r.burst_ms.begin(), r.burst_ms.end());
    attempted += r.ping.sent + r.barriers;
    failed += r.ping.failed + r.barriers_failed + r.protocol_errors;
    late_ms_max = std::max(late_ms_max, r.ping.late_ms_max);
  }
  result.attempted = attempted;
  result.failed = failed;
  const std::vector<double>& op_ms = churn ? burst_ms : ping_ms;

  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %zu tenants (machines %.*s), %" PRIu64 " events in %zu frames, "
                "%zu rounds; server io_threads=%d pool=%d; client 1 sender + 1 pinger "
                "(every %lld us); host cpus=%u",
                shape.name, shape.tenants, static_cast<int>(in->machines.size()),
                in->machines.data(), in->events, in->order.size(), rounds.size(), shape.io_threads,
                kPoolThreads, static_cast<long long>(shape.ping_interval.count()),
                std::thread::hardware_concurrency());
  result.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "pings %zu answered (p50 %.4f ms, p99 %.4f ms, %" PRIu64
                " beyond p99), generator late by at most %.4f ms",
                ping_ms.size(), Quantile(ping_ms, 0.5), Quantile(ping_ms, 0.99),
                SamplesBeyond(ping_ms, 0.99), late_ms_max);
  result.notes.push_back(line);
  const RoundResult& first = rounds.front();
  std::snprintf(line, sizeof(line),
                "round stream time min/median/max %.3f/%.3f/%.3f s; first round: %" PRIu64
                " evictions, %" PRIu64 " restores, %" PRIu64 " checkpoints, %" PRIu64 " refills",
                Quantile(stream_s, 0.0), Median(stream_s), Quantile(stream_s, 1.0),
                first.evictions, first.restores, first.checkpoints, first.refills);
  result.notes.push_back(line);
  const FsCounts& fs = first.fs;
  std::snprintf(line, sizeof(line),
                "persistence, first round: %" PRIu64 " B written, %" PRIu64 " B read, %" PRIu64
                " syncs, %" PRIu64 " files written, %" PRIu64 " removed",
                fs.bytes_written, fs.bytes_read, fs.syncs, fs.files_written, fs.files_removed);
  result.notes.push_back(line);
  if (churn) {
    std::snprintf(line, sizeof(line),
                  "bursts %zu acked (p50 %.4f ms, p99 %.4f ms, %" PRIu64 " beyond p99)",
                  burst_ms.size(), Quantile(burst_ms, 0.5), Quantile(burst_ms, 0.99),
                  SamplesBeyond(burst_ms, 0.99));
    result.notes.push_back(line);
  }

  if (!options.trace) {
    result.Set("setup_s", Median(setup_s), "s", setup_s.size());
    result.Set("peak_rss_mb", peak_rss_mb, "MB", 1);
    result.Set("success_ratio", 1.0 - Ratio(static_cast<double>(failed), attempted), "ratio",
               attempted);
    result.Set("events_per_s", Median(events_per_s), "1/s", rounds.size());
    result.Set("op_p50_ms", Quantile(op_ms, 0.50), "ms", op_ms.size());
    // p95, not p99: across ten seeds on a shared host the p99 of both
    // fleets spread by 0.24-0.31 of its median, the p50 by 0.05-0.13.
    result.Set("op_tail_ms", Quantile(op_ms, 0.95), "ms", op_ms.size());
    result.notes.push_back(std::string("op = ") +
                           (churn ? "one burst, first send to barrier ack" : "one control ping") +
                           "; tail = p95, samples beyond it: " +
                           std::to_string(SamplesBeyond(op_ms, 0.95)));
    return result;
  }

  // Traced run: the server rounds above give the client's figures and
  // (first round) the server's own counters; the serial replay, untraced
  // then traced, gives the layer self times.
  const ReplayResult plain = Replay(*in, shape, /*traced=*/false, &result);
  SpanTrace trace(size_t{1} << 22);
  ReplayResult traced;
  double traced_wall_s = 0.0;
  {
    ScopedTrace install(&trace);
    const Clock::time_point traced_start = Clock::now();
    {
      Span root(SpanName::kBench);
      traced = Replay(*in, shape, /*traced=*/true, &result);
    }
    traced_wall_s = SecondsSince(traced_start);
  }
  ReportTrace(trace, traced_wall_s, plain.wall_s, options, &result);

  const double ev = static_cast<double>(traced.events);
  const double refs = static_cast<double>(traced.references);
  const auto self = [&](SpanName name) { return static_cast<double>(trace.self_ns(name)); };
  result.Set("workload.self_ns_per_event",
             in->generate_s * 1e9 / static_cast<double>(in->generated_events), "ns",
             in->generated_events);
  result.Set("observer.self_ns_per_event", Ratio(self(SpanName::kObserver), ev), "ns",
             traced.events);
  result.Set("observer.refs_per_event", Ratio(refs, ev), "ratio", traced.events);
  result.Set("correlator.ns_per_ref", Ratio(traced.correlator_us * 1e3, refs), "ns",
             traced.references);
  result.Set("wire.decode_ns_per_event",
             Ratio(self(SpanName::kWireFrame) + self(SpanName::kWireDecode), ev), "ns",
             traced.events);
  result.Set("router.ingest_ns_per_ref", Ratio(self(SpanName::kRouterIngest), refs), "ns",
             traced.references);
  const std::vector<double> ticks = trace.DurationsMs(SpanName::kRouterTick);
  result.Set("router.tick_ms_p50", Quantile(ticks, 0.50), "ms", ticks.size());
  result.Set("router.tick_ms_p99", Quantile(ticks, 0.99), "ms", ticks.size());
  const std::vector<double> evicts = trace.DurationsMs(SpanName::kRouterEvict);
  result.Set("router.evict_ms_p50", Quantile(evicts, 0.50), "ms", evicts.size());
  const std::vector<double> restores = trace.DurationsMs(SpanName::kRouterRestore);
  result.Set("router.restore_ms_p50", Quantile(restores, 0.50), "ms", restores.size());

  std::vector<double> seal_us(first.seal_stall_us.begin(), first.seal_stall_us.end());
  result.Set("router.seal_stall_us_p99", Quantile(seal_us, 0.99), "us", seal_us.size());
  result.Set("router.checkpoints", static_cast<double>(first.checkpoints), "count", 1);
  result.Set("router.refills", static_cast<double>(first.refills), "count", 1);
  result.Set("router.refill_ms",
             Ratio(static_cast<double>(first.refill_us) / 1e3, static_cast<double>(first.refills)),
             "ms", first.refills);
  result.Set("router.evictions", static_cast<double>(first.evictions), "count", 1);
  result.Set("router.restores", static_cast<double>(first.restores), "count", 1);
  result.Set("persistence.bytes_written_per_ref",
             Ratio(static_cast<double>(fs.bytes_written), static_cast<double>(first.references)),
             "B", first.references);
  result.Set("persistence.bytes_read_per_restore",
             Ratio(static_cast<double>(fs.bytes_read), static_cast<double>(first.restores)), "B",
             first.restores);
  result.Set("persistence.syncs", static_cast<double>(fs.syncs), "count", 1);
  result.Set("service.frames", static_cast<double>(first.frames), "count", 1);
  result.Set("service.protocol_errors", static_cast<double>(first.protocol_errors), "count", 1);

  result.Set("wire_events_per_s", Median(events_per_s), "1/s", rounds.size());
  result.Set("ping_p50_ms", Quantile(ping_ms, 0.50), "ms", ping_ms.size());
  result.Set("ping_p99_ms", Quantile(ping_ms, 0.99), "ms", ping_ms.size());
  if (churn) {
    result.Set("burst_ack_p50_ms", Quantile(burst_ms, 0.50), "ms", burst_ms.size());
    result.Set("burst_ack_p99_ms", Quantile(burst_ms, 0.99), "ms", burst_ms.size());
  }
  result.Set("client.ping_late_ms_max", late_ms_max, "ms", ping_ms.size());
  result.Set("client.ping_samples", static_cast<double>(ping_ms.size()), "count", 1);
  result.Set("failed_ratio", Ratio(static_cast<double>(failed), attempted), "ratio", attempted);
  return result;
}

}  // namespace seerbench
