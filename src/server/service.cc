#include "src/server/service.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <future>
#include <utility>

#include "src/core/snapshot_store.h"
#include "src/util/thread_count.h"

namespace seer {

HoardService::HoardService(Fs* fs, std::string root, HoardServiceConfig config)
    : fs_(fs), config_(std::move(config)), router_(fs, std::move(root), config_.router) {
  io_threads_ = config_.io_threads > 0 ? config_.io_threads : DefaultThreadCount();
  if (io_threads_ < 1) {
    io_threads_ = 1;
  }
  // Register tenants already on disk so list/stats enumerate them across
  // a server restart. Stores stay closed: they restore lazily on first
  // reference, exactly like an eviction.
  const StatusOr<std::vector<TenantId>> listed =
      SnapshotStore::ListTenants(fs_, router_.root());
  if (listed.ok()) {
    for (const TenantId tenant : *listed) {
      router_.SinkFor(tenant);
    }
  }
}

HoardService::~HoardService() {
  if (!uds_path_.empty()) {
    ::unlink(uds_path_.c_str());
  }
}

Status HoardService::Listen(const std::string& endpoint_spec) {
  if (listener_.valid()) {
    return Status::FailedPrecondition("hoard service: already listening");
  }
  SEER_ASSIGN_OR_RETURN(const net::Endpoint endpoint, net::ParseEndpoint(endpoint_spec));
  SEER_ASSIGN_OR_RETURN(listener_, net::Listen(endpoint));
  SEER_RETURN_IF_ERROR(net::SetNonBlocking(listener_.get()));
  if (!endpoint.tcp) {
    uds_path_ = endpoint.path;
  }
  return Status::Ok();
}

Time HoardService::Now() const {
  if (config_.clock) {
    return config_.clock();
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HoardService::TenantLane* HoardService::FindLane(TenantId tenant) {
  // Safe under the shared plane lock: lanes_ gains entries only under
  // the exclusive lock and never loses them.
  const auto it = lanes_.find(tenant);
  return it == lanes_.end() ? nullptr : it->second.get();
}

HoardService::TenantLane* HoardService::EnsureLane(TenantId tenant) {
  auto it = lanes_.find(tenant);
  if (it == lanes_.end()) {
    auto lane = std::make_unique<TenantLane>();
    lane->observer = std::make_unique<Observer>(config_.observer, /*fs=*/nullptr);
    lane->observer->set_sink(router_.SinkFor(tenant));
    lane->observer->set_miss_listener(router_.MissLogFor(tenant));
    it = lanes_.emplace(tenant, std::move(lane)).first;
  }
  return it->second.get();
}

void HoardService::FlushOutbox(Connection* c) {
  if (c->outbox.empty() || !c->fd.valid()) {
    return;
  }
  // One gathered write per burst; WriteVec polls for writability on
  // EAGAIN, so responses flush fully here. Control responses are small,
  // so blocking the shard is bounded.
  std::vector<std::string_view> chunks;
  chunks.reserve(c->outbox.size());
  for (const std::string& frame : c->outbox) {
    chunks.push_back(frame);
  }
  const Status sent = net::WriteVec(c->fd.get(), chunks);
  if (!sent.ok()) {
    c->closed = true;
  }
  c->outbox.clear();
}

wire::ControlResponse HoardService::Dispatch(const wire::ControlRequest& request) {
  // Control verbs may create, restore, evict, or enumerate tenants:
  // exclusive plane access, mutually excluding every shard's deliveries.
  std::unique_lock<std::shared_mutex> plane(plane_mu_);
  wire::ControlResponse response;
  response.verb = request.verb;
  const auto fail = [&response](const Status& status) {
    response.code = status.code();
    response.message = status.message();
  };
  switch (request.verb) {
    case wire::ControlVerb::kPing:
      response.text = "pong";
      return response;
    case wire::ControlVerb::kTenantList:
      response.tenants = router_.ListTenants();
      return response;
    case wire::ControlVerb::kTenantStats: {
      std::vector<TenantId> ids;
      if (request.tenant == kInvalidTenantId) {
        ids = router_.ListTenants();
      } else {
        ids.push_back(request.tenant);
      }
      for (const TenantId id : ids) {
        const StatusOr<TenantStats> stats = router_.Stats(id);
        if (!stats.ok()) {
          fail(stats.status());
          return response;
        }
        response.stats.push_back(*stats);
      }
      return response;
    }
    case wire::ControlVerb::kTenantEvict: {
      const Status evicted = router_.EvictTenant(request.tenant);
      if (!evicted.ok()) {
        fail(evicted);
      }
      return response;
    }
    case wire::ControlVerb::kTenantCheckpoint: {
      // Checkpointing restores evicted tenants, so gate on existence —
      // a typoed id must not materialise a fresh store.
      const StatusOr<TenantStats> exists = router_.Stats(request.tenant);
      if (!exists.ok()) {
        fail(exists.status());
        return response;
      }
      const Status checkpointed = router_.CheckpointTenant(request.tenant);
      if (!checkpointed.ok()) {
        fail(checkpointed);
      }
      return response;
    }
    case wire::ControlVerb::kParamsGet: {
      const StatusOr<std::string> text = router_.GetTenantParams(request.tenant);
      if (!text.ok()) {
        fail(text.status());
        return response;
      }
      response.text = *text;
      return response;
    }
    case wire::ControlVerb::kParamsSet: {
      const Status set = router_.SetTenantParams(request.tenant, request.text);
      if (!set.ok()) {
        fail(set);
      }
      return response;
    }
    case wire::ControlVerb::kShutdown:
      response.text = "draining";
      return response;
  }
  fail(Status::InvalidArgument("unknown control verb"));
  return response;
}

void HoardService::DeliverToLane(TenantLane* lane, Connection* c, Shard* shard) {
  const std::vector<InternedEvent>& events = shard->arena.events();
  Observer* observer = lane->observer.get();
  for (const InternedEvent& event : events) {
    observer->OnInternedEvent(event);
  }
  events_ingested_.fetch_add(events.size(), std::memory_order_relaxed);
  if (config_.record_merge_log && !events.empty()) {
    lane->merge_log.push_back({c->id, events.front().seq, static_cast<uint32_t>(events.size())});
  }
}

bool HoardService::DeliverEvents(Shard* shard, Connection* c, TenantId tenant,
                                 std::string_view payload) {
  if (tenant == kInvalidTenantId) {
    return false;
  }
  if (!shard->arena.Decode(payload).ok()) {
    return false;
  }
  {
    // Fast path: tenant already known and resident. The shared lock
    // pins residency (eviction/restore require exclusive), the lane
    // mutex serializes same-tenant deliveries across shards.
    std::shared_lock<std::shared_mutex> plane(plane_mu_);
    TenantLane* lane = FindLane(tenant);
    if (lane != nullptr && router_.TenantResident(tenant)) {
      std::lock_guard<std::mutex> lock(lane->mu);
      DeliverToLane(lane, c, shard);
      return true;
    }
  }
  // Slow path (first frame for a tenant, or delivery after an eviction):
  // create the lane and let the first routed callback restore the store,
  // all under the exclusive lock the router requires for that.
  std::unique_lock<std::shared_mutex> plane(plane_mu_);
  TenantLane* lane = EnsureLane(tenant);
  std::lock_guard<std::mutex> lock(lane->mu);
  DeliverToLane(lane, c, shard);
  return true;
}

void HoardService::ProcessFrames(Shard* shard, Connection* c) {
  for (;;) {
    StatusOr<std::optional<wire::FrameView>> next = c->decoder.NextView();
    if (!next.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      c->closed = true;
      break;
    }
    if (!next->has_value()) {
      break;
    }
    const wire::FrameView frame = **next;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    switch (frame.type) {
      case wire::FrameType::kEvents: {
        if (!DeliverEvents(shard, c, frame.channel, frame.payload)) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          c->closed = true;
        }
        break;
      }
      case wire::FrameType::kRequest: {
        const StatusOr<wire::ControlRequest> request =
            wire::DecodeControlRequest(frame.payload);
        if (!request.ok()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          c->closed = true;
          break;
        }
        wire::ControlResponse response;
        if (shard->index == 0) {
          response = Dispatch(*request);
        } else {
          // Control verbs run on the designated thread. Post the
          // request to shard 0's mailbox and block for the result; the
          // response frame is still written by this shard, keeping
          // per-connection ordering.
          std::promise<wire::ControlResponse> promise;
          std::future<wire::ControlResponse> future = promise.get_future();
          PostJob([this, req = *request, &promise] { promise.set_value(Dispatch(req)); });
          response = future.get();
        }
        c->outbox.push_back(wire::EncodeFrame(wire::FrameType::kResponse, frame.channel,
                                              wire::EncodeControlResponse(response)));
        if (request->verb == wire::ControlVerb::kShutdown &&
            response.code == StatusCode::kOk) {
          stop_.store(true, std::memory_order_relaxed);
          for (const auto& s : shards_) {
            if (s->index != shard->index) {
              Wake(s.get());
            }
          }
        }
        break;
      }
      case wire::FrameType::kResponse: {
        // Clients must not send responses.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        c->closed = true;
        break;
      }
    }
    if (c->closed) {
      break;
    }
  }
  FlushOutbox(c);
}

void HoardService::PostJob(std::function<void()> job) {
  Shard* control = shards_[0].get();
  {
    std::lock_guard<std::mutex> lock(control->mail_mu);
    control->jobs.push_back(std::move(job));
  }
  Wake(control);
}

void HoardService::Wake(Shard* shard) {
  if (!shard->wake_w.valid()) {
    return;
  }
  const char byte = 0;
  // Nonblocking: a full pipe already guarantees a pending wake.
  (void)!::write(shard->wake_w.get(), &byte, 1);
}

void HoardService::DrainWakePipe(Shard* shard) {
  char bytes[256];
  while (::read(shard->wake_r.get(), bytes, sizeof(bytes)) > 0) {
  }
}

void HoardService::DrainMailbox(Shard* shard) {
  std::vector<std::unique_ptr<Connection>> incoming;
  std::vector<std::function<void()>> jobs;
  {
    std::lock_guard<std::mutex> lock(shard->mail_mu);
    incoming.swap(shard->incoming);
    jobs.swap(shard->jobs);
  }
  for (auto& c : incoming) {
    shard->connections.push_back(std::move(c));
  }
  for (auto& job : jobs) {
    job();
  }
}

void HoardService::ReadBurst(Shard* shard, Connection* c) {
  // Read and process until the socket runs dry or the connection hits
  // its buffer cap. Frames dispatch synchronously, so the ingest
  // batcher's backpressure stalls this read loop — and, through the
  // kernel socket buffer, the sender.
  char* buf = shard->read_buf.data();
  const size_t buf_size = shard->read_buf.size();
  while (c->decoder.buffered() < config_.conn_buffer_limit) {
    bool would_block = false;
    const StatusOr<size_t> n = net::ReadSome(c->fd.get(), buf, buf_size, &would_block);
    if (!n.ok()) {
      c->closed = true;
      break;
    }
    if (would_block) {
      break;
    }
    if (*n == 0) {  // EOF
      if (!c->decoder.AtFrameBoundary()) {
        // Mid-frame disconnect: torn frame dropped.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      }
      c->closed = true;
      break;
    }
    c->decoder.Append(std::string_view(buf, *n));
    ProcessFrames(shard, c);
    if (c->closed || stop_.load(std::memory_order_relaxed)) {
      break;
    }
  }
}

bool HoardService::PollAndService(Shard* shard, int extra_fd) {
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  fds.push_back({shard->wake_r.get(), POLLIN, 0});
  if (extra_fd >= 0) {
    fds.push_back({extra_fd, POLLIN, 0});
  }
  const size_t base = fds.size();
  for (const auto& c : shard->connections) {
    short events = 0;
    if (c->decoder.buffered() < config_.conn_buffer_limit) {
      events |= POLLIN;  // else: backpressured, let the kernel throttle
    }
    fds.push_back({c->fd.get(), events, 0});
    polled.push_back(c.get());
  }
  const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), config_.poll_interval_ms);
  if (ready < 0 && errno != EINTR) {
    return false;
  }
  if (fds[0].revents & POLLIN) {
    DrainWakePipe(shard);
  }
  DrainMailbox(shard);
  for (size_t i = 0; i < polled.size(); ++i) {
    Connection* c = polled[i];
    const short revents = fds[base + i].revents;
    if (c->closed || (revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      continue;
    }
    ReadBurst(shard, c);
    if (stop_.load(std::memory_order_relaxed)) {
      break;
    }
  }
  shard->connections.erase(
      std::remove_if(shard->connections.begin(), shard->connections.end(),
                     [](const std::unique_ptr<Connection>& c) { return c->closed; }),
      shard->connections.end());
  return extra_fd >= 0 && fds.size() > 1 && (fds[1].revents & POLLIN) != 0;
}

void HoardService::DrainShardConnections(Shard* shard) {
  // Finish frames already buffered, flush responses, close.
  DrainMailbox(shard);
  for (const auto& c : shard->connections) {
    if (!c->closed) {
      ProcessFrames(shard, c.get());
    }
  }
  shard->connections.clear();
}

void HoardService::WorkerLoop(Shard* shard) {
  while (!stop_.load(std::memory_order_relaxed)) {
    PollAndService(shard, /*extra_fd=*/-1);
  }
  DrainShardConnections(shard);
  workers_live_.fetch_sub(1, std::memory_order_release);
  // Shard 0 may be blocked in its wait-for-workers poll.
  Wake(shards_[0].get());
}

Status HoardService::Serve() {
  if (!listener_.valid()) {
    return Status::FailedPrecondition("hoard service: Serve() before Listen()");
  }
  Status first_error;
  const auto latch = [&first_error](const Status& status) {
    if (first_error.ok() && !status.ok()) {
      first_error = status;
    }
  };

  // Build the shard plane. Shard 0 is this thread.
  shards_.clear();
  for (int i = 0; i < io_threads_; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<size_t>(i);
    shard->read_buf.resize(64 * 1024);
    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) {
      shards_.clear();
      return Status::IoError("hoard service: wake pipe creation failed");
    }
    shard->wake_r.reset(pipe_fds[0]);
    shard->wake_w.reset(pipe_fds[1]);
    (void)net::SetNonBlocking(shard->wake_r.get());
    (void)net::SetNonBlocking(shard->wake_w.get());
    shards_.push_back(std::move(shard));
  }
  workers_live_.store(io_threads_ - 1, std::memory_order_relaxed);
  for (int i = 1; i < io_threads_; ++i) {
    Shard* shard = shards_[static_cast<size_t>(i)].get();
    shard->thread = std::thread([this, shard] { WorkerLoop(shard); });
  }

  Shard* control = shards_[0].get();
  while (!stop_.load(std::memory_order_relaxed)) {
    const bool listener_ready = PollAndService(control, listener_.get());
    if (listener_ready && !stop_.load(std::memory_order_relaxed)) {
      for (;;) {
        StatusOr<net::OwnedFd> accepted = net::Accept(listener_.get());
        if (!accepted.ok()) {
          break;  // kFailedPrecondition == nothing pending
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = std::move(*accepted);
        conn->id = ++next_conn_id_;
        (void)net::SetNonBlocking(conn->fd.get());
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        // Round-robin shard assignment at accept: the connection's
        // frames stay ordered because exactly one shard ever reads it.
        Shard* target =
            shards_[static_cast<size_t>(++next_shard_ % static_cast<uint64_t>(io_threads_))]
                .get();
        if (target == control) {
          control->connections.push_back(std::move(conn));
        } else {
          {
            std::lock_guard<std::mutex> lock(target->mail_mu);
            target->incoming.push_back(std::move(conn));
          }
          Wake(target);
        }
      }
    }

    const Time now = Now();
    if (last_tick_ < 0 || now != last_tick_) {
      last_tick_ = now;
      std::unique_lock<std::shared_mutex> plane(plane_mu_);
      latch(router_.Tick(now));
    }
  }

  // Graceful drain. Workers drain their own shards; shard 0 keeps
  // servicing its mailbox meanwhile — a draining worker may still post
  // control verbs it found buffered behind event frames.
  while (workers_live_.load(std::memory_order_acquire) > 0) {
    pollfd pfd{control->wake_r.get(), POLLIN, 0};
    (void)::poll(&pfd, 1, 1);
    DrainWakePipe(control);
    DrainMailbox(control);
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  DrainShardConnections(control);
  shards_.clear();

  latch(router_.DrainCheckpoints());
  latch(router_.Shutdown());
  latch(router_.last_error());
  return first_error;
}

std::vector<HoardService::MergeRecord> HoardService::MergeLogFor(TenantId tenant) const {
  std::shared_lock<std::shared_mutex> plane(plane_mu_);
  const auto it = lanes_.find(tenant);
  if (it == lanes_.end()) {
    return {};
  }
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->merge_log;
}

}  // namespace seer
