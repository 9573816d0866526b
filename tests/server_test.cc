// The network service plane: wire framing, the control protocol, and the
// socket server/client pair end to end.
//
// The load-bearing contract is loopback equivalence: a trace streamed to
// HoardService over a real UDS — interleaved across tenants, at any worker
// thread count — must leave every tenant's store byte-identical to an
// in-process run that feeds the same events through the same Observer
// pipeline into a plain TenantRouter. The socket is transport, not
// semantics.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/correlator.h"
#include "src/core/hoard.h"
#include "src/core/params_io.h"
#include "src/core/snapshot_store.h"
#include "src/observer/observer.h"
#include "src/server/client.h"
#include "src/server/net.h"
#include "src/server/service.h"
#include "src/server/tenant_router.h"
#include "src/server/wire.h"
#include "src/util/fs.h"

namespace seer {
namespace {

PathId P(const std::string& path) { return GlobalPaths().Intern(path); }

// UDS paths must stay short (sun_path is ~108 bytes), so sockets live in
// /tmp, keyed by pid + tag to survive parallel test invocations.
std::string SocketPath(const std::string& tag) {
  return "/tmp/seer-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

SeerParams ChurnParams() {
  SeerParams p;
  p.max_neighbors = 4;
  p.distance_horizon = 20;
  p.delete_delay = 3;
  p.aging_updates = 500;
  return p;
}

TenantRouterConfig BaseRouterConfig() {
  TenantRouterConfig config;
  config.defaults = ChurnParams();
  return config;
}

HoardServiceConfig BaseServiceConfig() {
  HoardServiceConfig config;
  config.router = BaseRouterConfig();
  // A constant clock: Serve() ticks at most once, so checkpoint scheduling
  // cannot perturb the equivalence comparisons below.
  config.clock = [] { return kMicrosPerSecond; };
  return config;
}

// A randomized syscall trace for one tenant: open/close pairs, stats,
// unlinks, and the occasional kNotLocal miss, over a shared path universe
// (colliding PathIds across tenants are exactly what isolation must
// survive). Paths avoid the observer's filtered prefixes.
std::vector<TraceEvent> TenantEvents(uint32_t seed, size_t count) {
  std::mt19937 rng(seed);
  std::vector<TraceEvent> events;
  events.reserve(count * 2);
  std::vector<Pid> pids = {11, 12, 13};
  Time time = 0;
  uint64_t seq = 0;
  Fd next_fd = 100;
  const auto make = [&](Op op) {
    TraceEvent e;
    e.seq = seq++;
    e.time = (time += kMicrosPerSecond / 5);
    e.pid = pids[rng() % pids.size()];
    e.uid = 1000;
    e.op = op;
    return e;
  };
  for (size_t i = 0; i < count; ++i) {
    const std::string path = "/data/f" + std::to_string(rng() % 24);
    const uint32_t roll = rng() % 100;
    if (roll < 70) {
      TraceEvent open = make(Op::kOpen);
      open.path = path;
      open.fd = next_fd++;
      open.write = rng() % 4 == 0;
      TraceEvent close = make(Op::kClose);
      close.pid = open.pid;  // close pairs by (pid, fd)
      close.fd = open.fd;
      events.push_back(open);
      events.push_back(close);
    } else if (roll < 85) {
      TraceEvent st = make(Op::kStat);
      st.path = path;
      events.push_back(st);
    } else if (roll < 94) {
      TraceEvent rm = make(Op::kUnlink);
      rm.path = path;
      events.push_back(rm);
    } else {
      TraceEvent miss = make(Op::kOpen);
      miss.path = path;
      miss.status = OpStatus::kNotLocal;
      events.push_back(miss);
    }
  }
  return events;
}

// Recovers every tenant store under `root` standalone (no router) and
// returns each correlator's snapshot encoding, indexed by tenant - 1.
std::vector<std::string> RecoveredSnapshots(Fs* fs, const std::string& root,
                                            size_t tenants) {
  std::vector<std::string> out;
  for (size_t t = 0; t < tenants; ++t) {
    SnapshotStore store(fs, SnapshotStore::TenantDirectory(root, static_cast<TenantId>(t + 1)));
    const auto recovered = store.Recover(ChurnParams());
    EXPECT_TRUE(recovered.ok()) << "tenant=" << t + 1 << ": "
                                << recovered.status().message();
    if (!recovered.ok()) {
      out.emplace_back();
      continue;
    }
    EXPECT_FALSE(recovered->torn_wal_tail) << "tenant=" << t + 1;
    out.push_back(recovered->correlator->EncodeSnapshot());
  }
  return out;
}

// Owns a service on its own thread. The caller's fs outlives the harness.
struct ServiceHarness {
  ServiceHarness(Fs* fs, HoardServiceConfig config, const std::string& socket)
      : service(fs, "/srv", std::move(config)) {
    listen_status = service.Listen("unix:" + socket);
    if (listen_status.ok()) {
      thread = std::thread([this] { serve_status = service.Serve(); });
    }
  }

  ~ServiceHarness() {
    service.RequestStop();
    Join();
  }

  void Join() {
    if (thread.joinable()) {
      thread.join();
    }
  }

  HoardService service;
  std::thread thread;
  Status listen_status;
  Status serve_status = Status::IoError("serve never ran");
};

// --- wire codec ---------------------------------------------------------------

TEST(Wire, FrameRoundTripSurvivesByteAtATimeDelivery) {
  const std::string a = wire::EncodeFrame(wire::FrameType::kEvents, 42, "payload-a");
  const std::string b = wire::EncodeFrame(wire::FrameType::kRequest, 7, "");
  const std::string c = wire::EncodeFrame(wire::FrameType::kResponse, 0xDEADBEEF,
                                          std::string(1000, 'x'));

  wire::FrameDecoder decoder;
  std::vector<wire::Frame> frames;
  for (const char byte : a + b + c) {
    decoder.Append(std::string_view(&byte, 1));
    for (;;) {
      const auto next = decoder.Next();
      ASSERT_TRUE(next.ok()) << next.status().message();
      if (!next->has_value()) {
        break;
      }
      frames.push_back(**next);
    }
  }
  ASSERT_EQ(3u, frames.size());
  EXPECT_EQ(wire::FrameType::kEvents, frames[0].type);
  EXPECT_EQ(42u, frames[0].channel);
  EXPECT_EQ("payload-a", frames[0].payload);
  EXPECT_EQ(wire::FrameType::kRequest, frames[1].type);
  EXPECT_EQ(7u, frames[1].channel);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(wire::FrameType::kResponse, frames[2].type);
  EXPECT_EQ(0xDEADBEEFu, frames[2].channel);
  EXPECT_EQ(1000u, frames[2].payload.size());
  EXPECT_TRUE(decoder.AtFrameBoundary());
  EXPECT_EQ(0u, decoder.buffered());
}

TEST(Wire, ControlRequestRoundTrip) {
  wire::ControlRequest request;
  request.verb = wire::ControlVerb::kParamsSet;
  request.tenant = 12345;
  request.text = "delete-delay 7\nn 4\n";
  const auto decoded = wire::DecodeControlRequest(wire::EncodeControlRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(request.verb, decoded->verb);
  EXPECT_EQ(request.tenant, decoded->tenant);
  EXPECT_EQ(request.text, decoded->text);
}

TEST(Wire, ControlResponseRoundTripAllFields) {
  wire::ControlResponse response;
  response.code = StatusCode::kNotFound;
  response.message = "tenant 9 has no store";
  response.verb = wire::ControlVerb::kTenantStats;
  response.tenants = {1, 3, 4294967294u};
  response.text = "delete-delay 7\n";
  TenantStats s;
  s.tenant = 3;
  s.resident = true;
  s.references = 101;
  s.memory_bytes = 202;
  s.generation = 303;
  s.files = 404;
  s.wal_bytes = 505;
  s.checkpoints = 606;
  s.evictions = 707;
  s.restores = 808;
  s.refills = 909;
  s.hoard_files = 1010;
  response.stats.push_back(s);
  s.tenant = 4294967294u;
  s.resident = false;
  response.stats.push_back(s);

  const auto decoded = wire::DecodeControlResponse(wire::EncodeControlResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(response.code, decoded->code);
  EXPECT_EQ(response.message, decoded->message);
  EXPECT_EQ(response.verb, decoded->verb);
  EXPECT_EQ(response.tenants, decoded->tenants);
  EXPECT_EQ(response.text, decoded->text);
  ASSERT_EQ(2u, decoded->stats.size());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(response.stats[i].tenant, decoded->stats[i].tenant);
    EXPECT_EQ(response.stats[i].resident, decoded->stats[i].resident);
    EXPECT_EQ(response.stats[i].references, decoded->stats[i].references);
    EXPECT_EQ(response.stats[i].memory_bytes, decoded->stats[i].memory_bytes);
    EXPECT_EQ(response.stats[i].generation, decoded->stats[i].generation);
    EXPECT_EQ(response.stats[i].files, decoded->stats[i].files);
    EXPECT_EQ(response.stats[i].wal_bytes, decoded->stats[i].wal_bytes);
    EXPECT_EQ(response.stats[i].checkpoints, decoded->stats[i].checkpoints);
    EXPECT_EQ(response.stats[i].evictions, decoded->stats[i].evictions);
    EXPECT_EQ(response.stats[i].restores, decoded->stats[i].restores);
    EXPECT_EQ(response.stats[i].refills, decoded->stats[i].refills);
    EXPECT_EQ(response.stats[i].hoard_files, decoded->stats[i].hoard_files);
  }
  const Status status = decoded->ToStatus();
  EXPECT_EQ(StatusCode::kNotFound, status.code());
  EXPECT_EQ("tenant 9 has no store", status.message());
}

TEST(Wire, DecoderLatchesOnEachHeaderCorruption) {
  const std::string good = wire::EncodeFrame(wire::FrameType::kEvents, 1, "ok");
  struct Case {
    const char* name;
    size_t offset;
    char value;
  };
  const Case cases[] = {
      {"bad magic", 0, 'X'},
      {"bad version", 4, 99},
      {"unknown frame type", 5, 77},
      {"nonzero flags", 6, 1},
  };
  for (const Case& c : cases) {
    std::string bytes = good;
    bytes[c.offset] = c.value;
    wire::FrameDecoder decoder;
    decoder.Append(bytes);
    const auto next = decoder.Next();
    EXPECT_FALSE(next.ok()) << c.name;
    EXPECT_EQ(StatusCode::kInvalidArgument, next.status().code()) << c.name;
    // Latched: the stream has no resynchronisation point.
    EXPECT_FALSE(decoder.Next().ok()) << c.name;
    EXPECT_FALSE(decoder.AtFrameBoundary()) << c.name;
  }
}

TEST(Wire, DecoderRejectsOversizedLengthBeforeBuffering) {
  std::string bytes = wire::EncodeFrame(wire::FrameType::kEvents, 1, "ok");
  const uint32_t huge = wire::kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  wire::FrameDecoder decoder;
  decoder.Append(bytes.substr(0, wire::kFrameHeaderSize));  // header alone suffices
  const auto next = decoder.Next();
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, next.status().code());
}

TEST(Wire, PartialFrameIsNotAnErrorUntilEof) {
  const std::string bytes = wire::EncodeFrame(wire::FrameType::kRequest, 5, "abcdef");
  wire::FrameDecoder decoder;
  decoder.Append(std::string_view(bytes).substr(0, bytes.size() - 1));
  const auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
  // A disconnect here is mid-frame: the caller maps it to a torn frame.
  EXPECT_FALSE(decoder.AtFrameBoundary());
  decoder.Append(std::string_view(bytes).substr(bytes.size() - 1));
  const auto done = decoder.Next();
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->has_value());
  EXPECT_EQ("abcdef", (*done)->payload);
  EXPECT_TRUE(decoder.AtFrameBoundary());
}

TEST(Wire, EventsRoundTripAndTornPayloadIsDataLoss) {
  const std::vector<TraceEvent> events = TenantEvents(0xAB, 50);
  const std::string payload = wire::EncodeEvents(events);
  const auto decoded = wire::DecodeEvents(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ASSERT_EQ(events.size(), decoded->size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].op, (*decoded)[i].op) << i;
    EXPECT_EQ(events[i].pid, (*decoded)[i].pid) << i;
    EXPECT_EQ(events[i].time, (*decoded)[i].time) << i;
    EXPECT_EQ(events[i].path, (*decoded)[i].path) << i;
    EXPECT_EQ(events[i].status, (*decoded)[i].status) << i;
    EXPECT_EQ(events[i].fd, (*decoded)[i].fd) << i;
    EXPECT_EQ(events[i].write, (*decoded)[i].write) << i;
  }

  const auto torn = wire::DecodeEvents(std::string_view(payload).substr(0, payload.size() - 3));
  EXPECT_FALSE(torn.ok());
  EXPECT_EQ(StatusCode::kDataLoss, torn.status().code());
}

TEST(Wire, TruncatedControlPayloadIsDataLoss) {
  wire::ControlRequest request;
  request.verb = wire::ControlVerb::kParamsSet;
  request.text = "delete-delay 7\n";
  const std::string encoded = wire::EncodeControlRequest(request);
  for (const size_t cut : {size_t{0}, size_t{1}, encoded.size() - 1}) {
    const auto decoded = wire::DecodeControlRequest(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(StatusCode::kDataLoss, decoded.status().code()) << "cut=" << cut;
  }
  const auto response = wire::DecodeControlResponse("zz");
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(StatusCode::kDataLoss, response.status().code());
}

// --- service loopback ---------------------------------------------------------

TEST(HoardService, LoopbackEquivalenceAcrossThreadCounts) {
  constexpr size_t kTenants = 4;
  std::vector<std::vector<TraceEvent>> traces;
  size_t total_events = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantEvents(0x5e00 + static_cast<uint32_t>(t), 300));
    total_events += traces.back().size();
  }

  // The oracle: the identical Observer pipeline feeding a plain router
  // in-process, each tenant's trace applied serially.
  std::vector<std::string> want;
  {
    MemFs fs;
    TenantRouter router(&fs, "/srv", BaseRouterConfig());
    for (size_t t = 0; t < kTenants; ++t) {
      Observer observer(ObserverConfig{}, /*fs=*/nullptr);
      const TenantId tenant = static_cast<TenantId>(t + 1);
      observer.set_sink(router.SinkFor(tenant));
      observer.set_miss_listener(router.MissLogFor(tenant));
      for (const TraceEvent& event : traces[t]) {
        observer.OnEvent(event);
      }
    }
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    ASSERT_TRUE(router.Shutdown().ok());
    want = RecoveredSnapshots(&fs, "/srv", kTenants);
  }

  // Each value runs the same service under its own interleaving seed.
  for (const int threads : {1, 2, 8}) {
    const std::string socket = SocketPath("loopback-" + std::to_string(threads));
    MemFs fs;
    ServiceHarness harness(&fs, BaseServiceConfig(), socket);
    ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();

    auto client = SeerClient::Connect("unix:" + socket);
    ASSERT_TRUE(client.ok()) << client.status().message();
    // Round-robin in pseudo-random chunk sizes, so tenants genuinely
    // interleave on the wire; per-tenant order is all that is preserved.
    std::mt19937 rng(0xC0DE + static_cast<uint32_t>(threads));
    std::vector<size_t> cursor(kTenants, 0);
    bool remaining = true;
    while (remaining) {
      remaining = false;
      for (size_t t = 0; t < kTenants; ++t) {
        if (cursor[t] >= traces[t].size()) {
          continue;
        }
        const size_t n = std::min<size_t>(1 + rng() % 97, traces[t].size() - cursor[t]);
        const std::vector<TraceEvent> chunk(traces[t].begin() + cursor[t],
                                            traces[t].begin() + cursor[t] + n);
        ASSERT_TRUE(client->StreamEvents(static_cast<TenantId>(t + 1), chunk).ok());
        cursor[t] += n;
        remaining |= cursor[t] < traces[t].size();
      }
    }
    ASSERT_TRUE(client->Ping().ok());  // delivery barrier: frames are in-order

    const auto listed = client->TenantList();
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(kTenants, listed->size());

    ASSERT_TRUE(client->Shutdown().ok());
    harness.Join();
    EXPECT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
    EXPECT_EQ(total_events, harness.service.events_ingested());
    EXPECT_EQ(0u, harness.service.protocol_errors());
    EXPECT_EQ(0u, harness.service.router().resident_tenants());

    const std::vector<std::string> got = RecoveredSnapshots(&fs, "/srv", kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
      EXPECT_EQ(want[t], got[t]) << "tenant=" << t + 1 << " threads=" << threads;
    }
  }
}

TEST(HoardService, LiveStatsMatchOfflineOnQuiescedStore) {
  const std::string socket = SocketPath("stats");
  MemFs fs;
  ServiceHarness harness(&fs, BaseServiceConfig(), socket);
  ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();

  auto client = SeerClient::Connect("unix:" + socket);
  ASSERT_TRUE(client.ok()) << client.status().message();
  ASSERT_TRUE(client->StreamEvents(1, TenantEvents(0x57A7, 400)).ok());
  ASSERT_TRUE(client->Checkpoint(1).ok());
  // Quiesce: eviction seals and persists, freezing the durable counters;
  // Shutdown skips non-resident tenants, so the store stays frozen.
  ASSERT_TRUE(client->Evict(1).ok());
  const auto stats = client->Stats(1);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  ASSERT_EQ(1u, stats->size());
  EXPECT_FALSE((*stats)[0].resident);
  EXPECT_GT((*stats)[0].generation, 0u);
  EXPECT_GT((*stats)[0].files, 0u);

  ASSERT_TRUE(client->Shutdown().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();

  // The offline reading (seerctl's Recover path) must agree with what the
  // socket reported for the quiesced store.
  SnapshotStore store(&fs, SnapshotStore::TenantDirectory("/srv", 1));
  const auto recovered = store.Recover(ChurnParams());
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ((*stats)[0].generation, recovered->generation);
  EXPECT_EQ((*stats)[0].files, recovered->correlator->files().size());
}

TEST(HoardService, ParamsOverridePersistsAcrossServerRestart) {
  MemFs fs;
  {
    const std::string socket = SocketPath("params-a");
    ServiceHarness harness(&fs, BaseServiceConfig(), socket);
    ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();
    auto client = SeerClient::Connect("unix:" + socket);
    ASSERT_TRUE(client.ok()) << client.status().message();

    // Invalid override text is rejected server-side before anything is
    // written, with the parser's own message crossing the wire.
    const Status bad = client->ParamsSet(5, "bogus nonsense\n");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(StatusCode::kInvalidArgument, bad.code());

    ASSERT_TRUE(client->ParamsSet(5, "delete-delay 7\n").ok());
    const auto text = client->ParamsGet(5);
    ASSERT_TRUE(text.ok()) << text.status().message();
    const auto parsed = ParseSeerParams(*text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(7, parsed->delete_delay);

    // Unknown tenant with no store: NotFound crosses the wire intact.
    const auto missing = client->ParamsGet(999);
    EXPECT_FALSE(missing.ok());
    EXPECT_EQ(StatusCode::kNotFound, missing.status().code());

    ASSERT_TRUE(client->Shutdown().ok());
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  }

  // A new server over the same root rediscovers the tenant and serves the
  // persisted override (parsed over the fleet defaults).
  {
    const std::string socket = SocketPath("params-b");
    ServiceHarness harness(&fs, BaseServiceConfig(), socket);
    ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();
    auto client = SeerClient::Connect("unix:" + socket);
    ASSERT_TRUE(client.ok()) << client.status().message();
    const auto listed = client->TenantList();
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ((std::vector<TenantId>{5}), *listed);
    const auto text = client->ParamsGet(5);
    ASSERT_TRUE(text.ok()) << text.status().message();
    const auto parsed = ParseSeerParams(*text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(7, parsed->delete_delay);
    EXPECT_EQ(ChurnParams().aging_updates, parsed->aging_updates);  // defaults shine through
    ASSERT_TRUE(client->Shutdown().ok());
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  }
}

TEST(HoardService, MalformedFramesCloseOnlyTheirConnection) {
  const std::string socket = SocketPath("malformed");
  MemFs fs;
  ServiceHarness harness(&fs, BaseServiceConfig(), socket);
  ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();

  auto good = SeerClient::Connect("unix:" + socket);
  ASSERT_TRUE(good.ok()) << good.status().message();
  ASSERT_TRUE(good->Ping().ok());

  const auto endpoint = net::ParseEndpoint("unix:" + socket);
  ASSERT_TRUE(endpoint.ok());

  // Connection 1: garbage where a frame header belongs. The server must
  // close it; the blocking read below returns EOF only once it has.
  {
    auto raw = net::Connect(*endpoint);
    ASSERT_TRUE(raw.ok()) << raw.status().message();
    ASSERT_TRUE(net::SendAll(raw->get(), "this is not a SERV frame at all....").ok());
    char buf[64];
    bool would_block = false;
    const auto n = net::ReadSome(raw->get(), buf, sizeof(buf), &would_block);
    ASSERT_TRUE(n.ok());
    EXPECT_FALSE(would_block);
    EXPECT_EQ(0u, *n);  // EOF: server dropped the connection
  }

  // Connection 2: a valid frame torn mid-payload by a disconnect. A
  // half-close delivers the EOF while our read side stays open, so the
  // blocking read observes the server counting and dropping the
  // connection before the test moves on to shutdown.
  {
    auto raw = net::Connect(*endpoint);
    ASSERT_TRUE(raw.ok()) << raw.status().message();
    const std::string frame = wire::EncodeFrame(wire::FrameType::kEvents, 3,
                                                std::string(256, 'p'));
    ASSERT_TRUE(net::SendAll(raw->get(), std::string_view(frame).substr(0, 40)).ok());
    ASSERT_EQ(0, ::shutdown(raw->get(), SHUT_WR));
    char buf[64];
    bool would_block = false;
    const auto n = net::ReadSome(raw->get(), buf, sizeof(buf), &would_block);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(0u, *n);  // EOF: torn frame counted, connection dropped
  }

  // The healthy connection is undisturbed.
  ASSERT_TRUE(good->Ping().ok());
  const auto stats = good->Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(good->Shutdown().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(2u, harness.service.protocol_errors());
  EXPECT_EQ(3u, harness.service.connections_accepted());
}

TEST(HoardService, ShutdownSealsEveryResidentTenant) {
  const std::string socket = SocketPath("seal");
  MemFs fs;
  ServiceHarness harness(&fs, BaseServiceConfig(), socket);
  ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();

  auto client = SeerClient::Connect("unix:" + socket);
  ASSERT_TRUE(client.ok()) << client.status().message();
  for (TenantId tenant = 1; tenant <= 3; ++tenant) {
    ASSERT_TRUE(client->StreamEvents(tenant, TenantEvents(0x9000 + tenant, 200)).ok());
  }
  ASSERT_TRUE(client->Shutdown().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(0u, harness.service.router().resident_tenants());
  // Every store is an ordinary single-instance store, cleanly sealed.
  RecoveredSnapshots(&fs, "/srv", 3);
}

// --- sharded I/O plane --------------------------------------------------------

TEST(HoardService, LoopbackEquivalenceAcrossIoThreadCounts) {
  constexpr size_t kTenants = 4;
  std::vector<std::vector<TraceEvent>> traces;
  size_t total_events = 0;
  for (size_t t = 0; t < kTenants; ++t) {
    traces.push_back(TenantEvents(0x10c0 + static_cast<uint32_t>(t), 300));
    total_events += traces.back().size();
  }

  // The oracle: the identical Observer pipeline feeding a plain router
  // in-process. Byte-equality against it at every I/O shard count is the
  // §16 claim: the serving plane's threading is invisible in the stores.
  std::vector<std::string> want;
  {
    MemFs fs;
    TenantRouter router(&fs, "/srv", BaseRouterConfig());
    for (size_t t = 0; t < kTenants; ++t) {
      Observer observer(ObserverConfig{}, /*fs=*/nullptr);
      const TenantId tenant = static_cast<TenantId>(t + 1);
      observer.set_sink(router.SinkFor(tenant));
      observer.set_miss_listener(router.MissLogFor(tenant));
      for (const TraceEvent& event : traces[t]) {
        observer.OnEvent(event);
      }
    }
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    ASSERT_TRUE(router.Shutdown().ok());
    want = RecoveredSnapshots(&fs, "/srv", kTenants);
  }

  for (const int io_threads : {1, 2, 8}) {
    const std::string socket = SocketPath("io-loopback-" + std::to_string(io_threads));
    MemFs fs;
    HoardServiceConfig config = BaseServiceConfig();
    config.io_threads = io_threads;
    ServiceHarness harness(&fs, config, socket);
    ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();
    EXPECT_EQ(io_threads, harness.service.io_threads());

    // One connection per tenant, streamed concurrently: connections land
    // on different shards, and the per-tenant order each connection
    // carries is all the service may rely on.
    std::vector<std::thread> streamers;
    std::atomic<int> failures{0};
    for (size_t t = 0; t < kTenants; ++t) {
      streamers.emplace_back([&, t] {
        auto client = SeerClient::Connect("unix:" + socket);
        if (!client.ok()) {
          ++failures;
          return;
        }
        const TenantId tenant = static_cast<TenantId>(t + 1);
        std::mt19937 rng(0xD0 + static_cast<uint32_t>(t));
        size_t i = 0;
        while (i < traces[t].size()) {
          const size_t n = std::min<size_t>(1 + rng() % 97, traces[t].size() - i);
          const std::vector<TraceEvent> chunk(traces[t].begin() + i,
                                              traces[t].begin() + i + n);
          if (!client->StreamEvents(tenant, chunk).ok()) {
            ++failures;
            return;
          }
          i += n;
        }
        if (!client->Ping().ok()) {  // per-connection delivery barrier
          ++failures;
        }
      });
    }
    for (std::thread& s : streamers) {
      s.join();
    }
    ASSERT_EQ(0, failures.load());

    auto control = SeerClient::Connect("unix:" + socket);
    ASSERT_TRUE(control.ok()) << control.status().message();
    ASSERT_TRUE(control->Shutdown().ok());
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
    EXPECT_EQ(total_events, harness.service.events_ingested());
    EXPECT_EQ(0u, harness.service.protocol_errors());

    const std::vector<std::string> got = RecoveredSnapshots(&fs, "/srv", kTenants);
    for (size_t t = 0; t < kTenants; ++t) {
      EXPECT_EQ(want[t], got[t]) << "tenant=" << t + 1 << " io_threads=" << io_threads;
    }
  }
}

TEST(HoardService, MultiConnectionMergeMatchesOracle) {
  // Two connections stream ONE tenant concurrently. The server picks a
  // frame-granularity interleaving (whichever shard wins the tenant's
  // lane); with record_merge_log it reports the serialization it chose,
  // and replaying exactly that order in-process must reproduce the store
  // byte-for-byte — multi-threaded I/O adds arrival nondeterminism, never
  // outcome nondeterminism beyond it.
  const std::string socket = SocketPath("merge");
  MemFs fs;
  HoardServiceConfig config = BaseServiceConfig();
  config.io_threads = 2;
  config.record_merge_log = true;
  ServiceHarness harness(&fs, config, socket);
  ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();

  // Distinct seq ranges so every frame's origin is identifiable from its
  // first event. (Seq is carried verbatim by the wire format.)
  std::vector<TraceEvent> stream_a = TenantEvents(0xA, 300);
  std::vector<TraceEvent> stream_b = TenantEvents(0xB, 300);
  for (TraceEvent& e : stream_a) {
    e.seq += 100'000;
  }
  for (TraceEvent& e : stream_b) {
    e.seq += 200'000;
  }

  std::atomic<int> failures{0};
  const auto stream_one = [&](const std::vector<TraceEvent>& events, uint32_t seed) {
    auto client = SeerClient::Connect("unix:" + socket);
    if (!client.ok()) {
      ++failures;
      return;
    }
    std::mt19937 rng(seed);
    size_t i = 0;
    while (i < events.size()) {
      // One StreamEvents call per small chunk = one frame per chunk, so
      // the two connections' frames genuinely interleave.
      const size_t n = std::min<size_t>(1 + rng() % 53, events.size() - i);
      const std::vector<TraceEvent> chunk(events.begin() + i, events.begin() + i + n);
      if (!client->StreamEvents(1, chunk).ok()) {
        ++failures;
        return;
      }
      i += n;
    }
    if (!client->Ping().ok()) {
      ++failures;
    }
  };
  std::thread ta([&] { stream_one(stream_a, 0x11); });
  std::thread tb([&] { stream_one(stream_b, 0x22); });
  ta.join();
  tb.join();
  ASSERT_EQ(0, failures.load());

  const std::vector<HoardService::MergeRecord> merge = harness.service.MergeLogFor(1);
  ASSERT_FALSE(merge.empty());

  auto control = SeerClient::Connect("unix:" + socket);
  ASSERT_TRUE(control.ok()) << control.status().message();
  ASSERT_TRUE(control->Shutdown().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(stream_a.size() + stream_b.size(), harness.service.events_ingested());
  EXPECT_EQ(0u, harness.service.protocol_errors());

  // Replay the server's reported merge order through the same pipeline.
  MemFs oracle_fs;
  {
    TenantRouter router(&oracle_fs, "/srv", BaseRouterConfig());
    Observer observer(ObserverConfig{}, /*fs=*/nullptr);
    observer.set_sink(router.SinkFor(1));
    observer.set_miss_listener(router.MissLogFor(1));
    size_t cursor_a = 0;
    size_t cursor_b = 0;
    for (const HoardService::MergeRecord& record : merge) {
      const bool from_a = record.first_seq < 200'000;
      const std::vector<TraceEvent>& events = from_a ? stream_a : stream_b;
      size_t& cursor = from_a ? cursor_a : cursor_b;
      ASSERT_LT(cursor, events.size());
      ASSERT_EQ(events[cursor].seq, record.first_seq);
      for (uint32_t i = 0; i < record.count; ++i) {
        ASSERT_LT(cursor, events.size());
        observer.OnEvent(events[cursor]);
        ++cursor;
      }
    }
    EXPECT_EQ(stream_a.size(), cursor_a);
    EXPECT_EQ(stream_b.size(), cursor_b);
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    ASSERT_TRUE(router.Shutdown().ok());
  }
  const std::vector<std::string> want = RecoveredSnapshots(&oracle_fs, "/srv", 1);
  const std::vector<std::string> got = RecoveredSnapshots(&fs, "/srv", 1);
  EXPECT_EQ(want[0], got[0]);
}

TEST(HoardService, SlowConsumerBackpressureAcrossIoThreads) {
  // A connection buffering more than conn_buffer_limit undecoded bytes
  // stops being polled until its backlog drains. With a tiny limit and
  // several senders blasting frames as fast as the kernel accepts them,
  // the shards must keep cycling read -> decode -> deliver without
  // deadlock or loss, on every shard.
  const std::string socket = SocketPath("backpressure");
  MemFs fs;
  HoardServiceConfig config = BaseServiceConfig();
  config.io_threads = 3;
  config.conn_buffer_limit = 2048;  // far below a sender's burst
  ServiceHarness harness(&fs, config, socket);
  ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();

  constexpr size_t kSenders = 4;
  constexpr size_t kEventsPerSender = 600;
  std::atomic<int> failures{0};
  std::vector<std::thread> senders;
  for (size_t s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      auto client = SeerClient::Connect("unix:" + socket);
      if (!client.ok()) {
        ++failures;
        return;
      }
      const std::vector<TraceEvent> events =
          TenantEvents(0xBb00 + static_cast<uint32_t>(s), kEventsPerSender / 2);
      // Small chunks = many small frames back to back, no pacing.
      for (size_t i = 0; i < events.size(); i += 20) {
        const size_t n = std::min<size_t>(20, events.size() - i);
        const std::vector<TraceEvent> chunk(events.begin() + i, events.begin() + i + n);
        if (!client->StreamEvents(static_cast<TenantId>(s + 1), chunk).ok()) {
          ++failures;
          return;
        }
      }
      if (!client->Ping().ok()) {
        ++failures;
      }
    });
  }
  size_t total_events = 0;
  for (std::thread& s : senders) {
    s.join();
  }
  for (size_t s = 0; s < kSenders; ++s) {
    total_events += TenantEvents(0xBb00 + static_cast<uint32_t>(s), kEventsPerSender / 2).size();
  }
  ASSERT_EQ(0, failures.load());

  auto control = SeerClient::Connect("unix:" + socket);
  ASSERT_TRUE(control.ok()) << control.status().message();
  ASSERT_TRUE(control->Shutdown().ok());
  harness.Join();
  ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(total_events, harness.service.events_ingested());
  EXPECT_EQ(0u, harness.service.protocol_errors());
}

TEST(HoardService, MidFrameDeathOnWorkerShard) {
  // With io_threads=2 the first accepted connection is assigned to the
  // worker shard (round-robin starts at shard 1), so this exercises the
  // torn-frame EOF path off the Serve() thread.
  const std::string socket = SocketPath("worker-death");
  MemFs fs;
  HoardServiceConfig config = BaseServiceConfig();
  config.io_threads = 2;
  ServiceHarness harness(&fs, config, socket);
  ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();

  const auto endpoint = net::ParseEndpoint("unix:" + socket);
  ASSERT_TRUE(endpoint.ok());
  {
    auto raw = net::Connect(*endpoint);
    ASSERT_TRUE(raw.ok()) << raw.status().message();
    const std::string frame =
        wire::EncodeFrame(wire::FrameType::kEvents, 3, std::string(512, 'q'));
    ASSERT_TRUE(net::SendAll(raw->get(), std::string_view(frame).substr(0, 40)).ok());
    ASSERT_EQ(0, ::shutdown(raw->get(), SHUT_WR));
    char buf[64];
    bool would_block = false;
    const auto n = net::ReadSome(raw->get(), buf, sizeof(buf), &would_block);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(0u, *n);  // EOF: the worker shard counted and dropped it
  }

  // The plane is healthy afterwards: a fresh connection streams and the
  // control plane answers.
  auto client = SeerClient::Connect("unix:" + socket);
  ASSERT_TRUE(client.ok()) << client.status().message();
  ASSERT_TRUE(client->StreamEvents(1, TenantEvents(0xDEAD, 50)).ok());
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(client->Shutdown().ok());
  harness.Join();
  EXPECT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
  EXPECT_EQ(1u, harness.service.protocol_errors());
  EXPECT_EQ(2u, harness.service.connections_accepted());
}

TEST(HoardService, PipelinedStreamPreservesDeliveryOrder) {
  // pipeline_depth only paces StreamEvents with periodic Ping barriers;
  // frames travel the same connection in the same order, so the stores
  // must come out byte-identical to the unpipelined run.
  const std::vector<TraceEvent> trace = TenantEvents(0x9199, 400);
  std::vector<std::string> want;
  {
    const std::string socket = SocketPath("pipeline-off");
    MemFs fs;
    ServiceHarness harness(&fs, BaseServiceConfig(), socket);
    ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();
    auto client = SeerClient::Connect("unix:" + socket);
    ASSERT_TRUE(client.ok()) << client.status().message();
    ASSERT_TRUE(client->StreamEvents(1, trace).ok());
    ASSERT_TRUE(client->Shutdown().ok());
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
    want = RecoveredSnapshots(&fs, "/srv", 1);
  }
  {
    const std::string socket = SocketPath("pipeline-on");
    MemFs fs;
    HoardServiceConfig config = BaseServiceConfig();
    config.io_threads = 2;
    ServiceHarness harness(&fs, config, socket);
    ASSERT_TRUE(harness.listen_status.ok()) << harness.listen_status.message();
    SeerClientOptions options;
    options.pipeline_depth = 2;
    // A small batch target so the stream cuts many frames and the Ping
    // barrier actually fires repeatedly.
    options.batch_bytes = 512;
    auto client = SeerClient::Connect("unix:" + socket, options);
    ASSERT_TRUE(client.ok()) << client.status().message();
    ASSERT_TRUE(client->StreamEvents(1, trace).ok());
    ASSERT_TRUE(client->Shutdown().ok());
    harness.Join();
    ASSERT_TRUE(harness.serve_status.ok()) << harness.serve_status.message();
    EXPECT_EQ(trace.size(), harness.service.events_ingested());
    const std::vector<std::string> got = RecoveredSnapshots(&fs, "/srv", 1);
    EXPECT_EQ(want[0], got[0]);
  }
}

// --- pin/miss-log persistence (the tenant-store aux section) ------------------

TEST(TenantRouterAux, PinsAndMissLogSurviveRestart) {
  MemFs fs;
  const PathId pinned = P("/data/pinned");
  const PathId missed = P("/data/missed");
  {
    TenantRouter router(&fs, "/srv", BaseRouterConfig());
    ReferenceSink* sink = router.SinkFor(9);
    sink->OnReference(FileReference{11, RefKind::kPoint, P("/data/f0"), kMicrosPerSecond, false});
    HoardManager* hoard = router.HoardFor(9);
    ASSERT_NE(nullptr, hoard);
    hoard->Pin(pinned);
    MissLog* log = router.MissLogFor(9);
    ASSERT_NE(nullptr, log);
    log->OnNotLocalAccess(missed, 11, 2 * kMicrosPerSecond);
    log->RecordManual(missed, 3 * kMicrosPerSecond, MissSeverity::kTaskChange);
    ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
    ASSERT_TRUE(router.Shutdown().ok());
  }
  EXPECT_TRUE(fs.Exists(SnapshotStore::TenantDirectory("/srv", 9) + "/aux.seer"));

  TenantRouter router(&fs, "/srv", BaseRouterConfig());
  HoardManager* hoard = router.HoardFor(9);
  ASSERT_NE(nullptr, hoard);
  EXPECT_EQ(1u, hoard->pinned().count(pinned));
  MissLog* log = router.MissLogFor(9);
  ASSERT_NE(nullptr, log);
  ASSERT_EQ(2u, log->records().size());
  EXPECT_EQ(missed, log->records()[0].path);
  EXPECT_TRUE(log->records()[0].automatic);
  EXPECT_EQ(2 * kMicrosPerSecond, log->records()[0].time);
  EXPECT_EQ(missed, log->records()[1].path);
  EXPECT_FALSE(log->records()[1].automatic);
  EXPECT_EQ(MissSeverity::kTaskChange, log->records()[1].severity);
  EXPECT_EQ(1u, log->pending_hoard().count(missed));
  ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
}

// An n above kMaxNeighbors is refused on both ingress paths, `params set`
// and a params.seer file found on restore, as a typed error: the tenant's
// slab would be sized files x n.
TEST(TenantRouterAux, NeighborCountAboveLimitIsRejected) {
  MemFs fs;
  TenantRouter router(&fs, "/srv", BaseRouterConfig());
  const std::string hostile = "n 2000000000\n";

  const Status set = router.SetTenantParams(6, hostile);
  EXPECT_EQ(StatusCode::kInvalidArgument, set.code()) << set.message();
  EXPECT_FALSE(fs.Exists(SnapshotStore::TenantDirectory("/srv", 6) + "/params.seer"));

  const std::string dir = SnapshotStore::TenantDirectory("/srv", 7);
  ASSERT_TRUE(fs.MakeDirs(dir).ok());
  ASSERT_TRUE(fs.WriteFile(dir + "/params.seer", hostile).ok());
  const auto opened = router.CorrelatorFor(7);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, opened.status().code());
}

TEST(TenantRouterAux, EvictionPersistsAndRestorePreservesPins) {
  MemFs fs;
  TenantRouter router(&fs, "/srv", BaseRouterConfig());
  router.SinkFor(4)->OnReference(
      FileReference{11, RefKind::kPoint, P("/data/f1"), kMicrosPerSecond, false});
  router.HoardFor(4)->Pin(P("/data/keep"));
  ASSERT_TRUE(router.EvictTenant(4).ok());
  EXPECT_TRUE(fs.Exists(SnapshotStore::TenantDirectory("/srv", 4) + "/aux.seer"));
  // The pin set lives outside the evictable state: still there while
  // evicted, and the transparent restore must not clobber it from disk.
  EXPECT_EQ(1u, router.HoardFor(4)->pinned().count(P("/data/keep")));
  router.SinkFor(4)->OnReference(
      FileReference{11, RefKind::kPoint, P("/data/f2"), 2 * kMicrosPerSecond, false});
  ASSERT_TRUE(router.last_error().ok()) << router.last_error().message();
  EXPECT_EQ(1u, router.HoardFor(4)->pinned().count(P("/data/keep")));
}

}  // namespace
}  // namespace seer
