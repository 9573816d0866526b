// The hoard service: TenantRouter behind a socket, served by a sharded
// I/O plane.
//
// The tenant-routed server plane (tenant_router.h) is an in-process
// library; this puts it behind a socket without funnelling every
// connection through one reader thread, by sharding connections over N
// I/O worker threads (io_threads, default SEER_THREADS):
//
//   * Shard 0 is the Serve() thread. It owns the listening socket, the
//     router's control plane (every control verb and Tick), and its own
//     share of connections. Shards 1..N-1 are worker threads, each with
//     a private poll set.
//   * A connection is assigned to a shard at accept time and never
//     migrates, so the frames of one connection are always processed in
//     arrival order by one thread — the ordering contract the wire
//     format's per-frame dictionaries assume, and the reason per-tenant
//     determinism survives multi-threaded I/O (see DESIGN.md §16).
//   * Control verbs decoded on a worker shard are posted to shard 0's
//     mailbox (a self-pipe wakes its poll) and executed there; the
//     worker blocks for the response and writes it to its own
//     connection, preserving per-connection response ordering. Router
//     Tick() likewise runs only on shard 0. The TenantRouter's
//     single-threaded control plane is therefore preserved by
//     construction — with one audited exception, documented in
//     tenant_router.h and enforced here by a plane-wide shared_mutex:
//     event delivery to an already-resident tenant runs under the
//     shared side (concurrently across shards, serialized per tenant by
//     a lane mutex), while anything that can create, restore, or evict
//     a tenant — first delivery, control verbs, Tick, shutdown — takes
//     the exclusive side.
//
// Data plane: kEvents frames are decoded near-zero-copy. A frame's
// payload is parsed straight out of the connection's read buffer
// (FrameDecoder::NextView) into the shard's reusable wire::EventArena —
// no per-frame payload string, no per-event path strings; each distinct
// path is interned into GlobalPaths() once, at its dictionary
// definition. Decoded events pass through the tenant's own Observer and
// into SinkFor(tenant), whose DurableCorrelator coalesces them through
// its IngestBatcher and folds each batch serially. Responses are batched
// per read burst and flushed with one gathered write (net::WriteVec).
//
// Backpressure is unchanged: frames dispatch synchronously on the owning
// shard, so a slow tenant stalls only that shard's read loop for that
// connection, and a connection holding more than conn_buffer_limit
// undecoded bytes is not polled for more input until the backlog drains.
//
// Control plane: kRequest frames are decoded, dispatched against the
// router, and answered with a kResponse frame echoing the request id —
// so a client can pipeline requests over one connection. kShutdown
// answers first, then drains: every shard finishes the frames already
// buffered on its connections, flushes responses, and closes; in-flight
// checkpoints settle, and every resident tenant is sealed and
// checkpointed (router Shutdown) before Serve() returns. A malformed
// frame (bad magic/version/flags, oversized length, undecodable payload)
// closes that connection — framing has no resynchronisation point —
// without disturbing the others.
//
// Tenants already on disk are registered at construction (stats and
// list enumerate them across a server restart); their stores restore
// lazily on first reference, exactly like an eviction.
#ifndef SRC_SERVER_SERVICE_H_
#define SRC_SERVER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/observer/observer.h"
#include "src/observer/observer_config.h"
#include "src/server/net.h"
#include "src/server/tenant_router.h"
#include "src/server/wire.h"
#include "src/util/fs.h"
#include "src/util/status.h"

namespace seer {

struct HoardServiceConfig {
  TenantRouterConfig router;
  // Per-tenant observer pipeline (filters, frequent-file heuristic).
  ObserverConfig observer;
  // Undecoded bytes a connection may buffer before the service stops
  // reading it (per-connection backpressure; must admit one max frame).
  size_t conn_buffer_limit = wire::kMaxFramePayload + wire::kFrameHeaderSize;
  // poll() timeout — the idle heartbeat driving router Tick cadence and
  // the stop-flag observation latency on every shard.
  int poll_interval_ms = 100;
  // Microsecond clock for Tick; null selects the monotonic clock. Tests
  // inject a fake so checkpoint scheduling is reproducible.
  std::function<Time()> clock;
  // I/O shards: 1 designated thread (Serve() itself) + io_threads-1
  // workers. 0 selects DefaultThreadCount() (SEER_THREADS else hardware
  // concurrency); values are clamped to >= 1.
  int io_threads = 0;
  // Test support: when true, every kEvents delivery appends a
  // MergeRecord to its tenant's merge log, so a test can replay the
  // exact serialization order the server chose for multi-connection
  // tenants (see MergeLogFor).
  bool record_merge_log = false;
};

class HoardService {
 public:
  HoardService(Fs* fs, std::string root, HoardServiceConfig config = {});
  ~HoardService();

  HoardService(const HoardService&) = delete;
  HoardService& operator=(const HoardService&) = delete;

  // Binds and listens on the endpoint (net.h spec syntax). Call once,
  // before Serve.
  Status Listen(const std::string& endpoint_spec);

  // Runs the sharded accept/read/dispatch plane until a kShutdown
  // request or RequestStop(), then drains and seals every resident
  // tenant. Returns the first error the loop or the drain latched (Ok
  // on a clean run — per-connection protocol errors are counted, not
  // fatal).
  Status Serve();

  // Thread-safe stop signal (signal handlers, tests). Every shard
  // notices within poll_interval_ms and drains exactly like a kShutdown
  // verb.
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

  // The router is usable (single-threaded) before Serve starts and
  // after it returns — tests inspect tenants directly.
  TenantRouter& router() { return router_; }
  const TenantRouter& router() const { return router_; }

  // The resolved shard count Serve() will use.
  int io_threads() const { return io_threads_; }

  // One kEvents delivery: `conn` is the connection's accept ordinal
  // (1-based, assigned in accept order), `first_seq` the first decoded
  // event's sequence number, `count` the frame's event count.
  struct MergeRecord {
    uint64_t conn = 0;
    uint64_t first_seq = 0;
    uint32_t count = 0;
  };
  // The tenant's delivery order (requires record_merge_log). Meant for
  // inspection after Serve() returns; safe any time.
  std::vector<MergeRecord> MergeLogFor(TenantId tenant) const;

  // --- counters (atomic: shards update them concurrently) -----------------
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  uint64_t frames_received() const { return frames_received_.load(std::memory_order_relaxed); }
  uint64_t events_ingested() const { return events_ingested_.load(std::memory_order_relaxed); }
  // Connections dropped for framing or payload decode errors.
  uint64_t protocol_errors() const { return protocol_errors_.load(std::memory_order_relaxed); }

 private:
  struct Connection {
    net::OwnedFd fd;
    uint64_t id = 0;  // accept ordinal, 1-based
    wire::FrameDecoder decoder;
    // Encoded response frames not yet written; flushed with one
    // gathered write per read burst.
    std::vector<std::string> outbox;
    bool closed = false;
  };

  // Per-tenant serving state outside the router: the observer pipeline
  // and the merge log. Lanes are created under the exclusive plane lock
  // and never destroyed, so a shard holding the shared lock may touch
  // any lane it finds — serialized per tenant by the lane mutex.
  struct TenantLane {
    mutable std::mutex mu;
    std::unique_ptr<Observer> observer;
    std::vector<MergeRecord> merge_log;
  };

  // One I/O shard. Shard 0 is the Serve() thread (listener + control
  // plane + its share of connections); the rest are workers.
  struct Shard {
    size_t index = 0;
    std::vector<std::unique_ptr<Connection>> connections;
    wire::EventArena arena;  // reused for every kEvents frame this shard decodes
    std::vector<char> read_buf;

    // Mailbox: connections handed over at accept, and (shard 0 only)
    // control jobs posted by workers. The wake pipe sits in the shard's
    // poll set so posts interrupt its poll immediately.
    std::mutex mail_mu;
    std::vector<std::unique_ptr<Connection>> incoming;
    std::vector<std::function<void()>> jobs;
    net::OwnedFd wake_r;
    net::OwnedFd wake_w;

    std::thread thread;  // joinable for workers only
  };

  Time Now() const;

  // Lane lookup under the shared plane lock (nullptr when absent) and
  // lookup-or-create under the exclusive lock. EnsureLane also registers
  // the tenant with the router (SinkFor/MissLogFor), wiring the
  // observer's sink exactly as a fresh single-tenant deployment would.
  TenantLane* FindLane(TenantId tenant);
  TenantLane* EnsureLane(TenantId tenant);

  // Decodes and dispatches every complete frame buffered on `c`;
  // flushes the outbox afterwards.
  void ProcessFrames(Shard* shard, Connection* c);
  // One kEvents frame. False on protocol error (caller closes `c`).
  bool DeliverEvents(Shard* shard, Connection* c, TenantId tenant, std::string_view payload);
  // Events -> observer under the lane mutex (plane lock already held).
  void DeliverToLane(TenantLane* lane, Connection* c, Shard* shard);
  // Control verb execution; takes the exclusive plane lock. Runs on
  // shard 0 (or inline when io_threads == 1).
  wire::ControlResponse Dispatch(const wire::ControlRequest& request);
  void FlushOutbox(Connection* c);

  // Shard machinery.
  void PostJob(std::function<void()> job);  // to shard 0, with wake
  void Wake(Shard* shard);
  void DrainWakePipe(Shard* shard);
  // Adopts mailed connections; shard 0 also runs mailed control jobs.
  void DrainMailbox(Shard* shard);
  // One poll + read/dispatch pass over the shard's connections (the
  // common body of the shard-0 loop and the worker loop); `extra_fd`
  // adds the listener for shard 0 and reports its readiness.
  bool PollAndService(Shard* shard, int extra_fd);
  void ReadBurst(Shard* shard, Connection* c);
  void WorkerLoop(Shard* shard);
  // End-of-serve: finish buffered frames, flush, close.
  void DrainShardConnections(Shard* shard);

  Fs* fs_;
  HoardServiceConfig config_;
  TenantRouter router_;
  int io_threads_ = 1;
  net::OwnedFd listener_;
  std::string uds_path_;  // unlinked on destruction when non-empty

  // Plane lock: shared for event delivery to resident tenants, exclusive
  // for anything that can create/restore/evict tenants or read
  // cross-tenant state (control verbs, Tick, shutdown). Lock order:
  // plane_mu_ before any TenantLane::mu.
  mutable std::shared_mutex plane_mu_;
  std::map<TenantId, std::unique_ptr<TenantLane>> lanes_;

  std::vector<std::unique_ptr<Shard>> shards_;
  uint64_t next_shard_ = 0;     // round-robin accept assignment (shard 0 only)
  uint64_t next_conn_id_ = 0;   // accept ordinals (shard 0 only)
  std::atomic<int> workers_live_{0};

  std::atomic<bool> stop_{false};
  Time last_tick_ = -1;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> frames_received_{0};
  std::atomic<uint64_t> events_ingested_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace seer

#endif  // SRC_SERVER_SERVICE_H_
