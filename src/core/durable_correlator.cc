#include "src/core/durable_correlator.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace seer {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point begin) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - begin)
                                   .count());
}

}  // namespace

DurableCorrelator::DurableCorrelator(SnapshotStore store, std::unique_ptr<Correlator> correlator)
    : store_(std::move(store)),
      correlator_(std::move(correlator)),
      batcher_(correlator_.get()) {}

DurableCorrelator::~DurableCorrelator() {
  if (inflight_thread_.joinable()) {
    inflight_thread_.join();
  }
}

StatusOr<std::unique_ptr<DurableCorrelator>> DurableCorrelator::Open(
    Fs* fs, std::string dir, const SeerParams& defaults, SnapshotStoreOptions options) {
  SnapshotStore store(fs, std::move(dir), options);
  SEER_RETURN_IF_ERROR(store.Open());
  SEER_ASSIGN_OR_RETURN(SnapshotStore::RecoveryResult recovered,
                        store.Recover(defaults));

  auto durable = std::unique_ptr<DurableCorrelator>(
      new DurableCorrelator(std::move(store), std::move(recovered.correlator)));
  durable->open_stats_.recovered_generation = recovered.generation;
  durable->open_stats_.fresh = recovered.fresh;
  durable->open_stats_.snapshots_discarded = recovered.snapshots_discarded;
  durable->open_stats_.wal_records_replayed = recovered.wal_records_replayed;
  durable->open_stats_.torn_wal_tail = recovered.torn_wal_tail;

  // Fold the recovered state into a fresh generation right away: the new
  // WAL starts empty (its path dictionary must not straddle runs) and any
  // crash wreckage is superseded before we take new references.
  SEER_RETURN_IF_ERROR(durable->Checkpoint());
  return durable;
}

// Each sink call appends to the WAL immediately (event order on disk is the
// trace order) while the in-memory application rides the ingest batcher.
// Recovery replays the WAL serially; batched and serial ingest are
// bit-equivalent, so the recovered state matches the batched live state.

void DurableCorrelator::OnReference(const FileReference& ref) {
  IngestEvent e;
  e.kind = IngestEvent::Kind::kReference;
  e.ref = ref;
  batcher_.Add(e);
  Latch(wal_->AppendReference(ref));
}

void DurableCorrelator::OnProcessFork(Pid parent, Pid child) {
  IngestEvent e;
  e.kind = IngestEvent::Kind::kFork;
  e.parent = parent;
  e.child = child;
  batcher_.Add(e);
  Latch(wal_->AppendFork(parent, child));
}

void DurableCorrelator::OnProcessExit(Pid pid) {
  IngestEvent e;
  e.kind = IngestEvent::Kind::kExit;
  e.child = pid;
  batcher_.Add(e);
  Latch(wal_->AppendExit(pid));
}

void DurableCorrelator::OnFileDeleted(PathId path, Time time) {
  IngestEvent e;
  e.kind = IngestEvent::Kind::kDeleted;
  e.path = path;
  e.time = time;
  batcher_.Add(e);
  Latch(wal_->AppendDeleted(path, time));
}

void DurableCorrelator::OnFileRenamed(PathId from, PathId to, Time time) {
  IngestEvent e;
  e.kind = IngestEvent::Kind::kRenamed;
  e.path = from;
  e.path2 = to;
  e.time = time;
  batcher_.Add(e);
  Latch(wal_->AppendRenamed(from, to, time));
}

void DurableCorrelator::OnFileExcluded(PathId path) {
  IngestEvent e;
  e.kind = IngestEvent::Kind::kExcluded;
  e.path = path;
  batcher_.Add(e);
  Latch(wal_->AppendExcluded(path));
}

Status DurableCorrelator::Checkpoint() { return DoCheckpoint(/*async=*/false); }

Status DurableCorrelator::BeginCheckpoint() { return DoCheckpoint(/*async=*/true); }

Status DurableCorrelator::DoCheckpoint(bool async) {
  // At most one checkpoint in flight: settle the previous one first so the
  // generation and delta-cut bookkeeping below start from committed state.
  // Its failure doesn't block this checkpoint — FinishCheckpoint already
  // forced it full — but the caller learns about it.
  const Status previous = FinishCheckpoint();

  const auto stall_begin = std::chrono::steady_clock::now();

  // The snapshot must cover every event handed to the sink so far: apply
  // the batched tail before sealing. This also pins batch boundaries to
  // checkpoint boundaries — a generation's snapshot never reflects half a
  // batch.
  batcher_.Flush();
  if (wal_ != nullptr) {
    // Complete the outgoing log first: the new snapshot must cover at
    // least everything the old log holds, or a fallback to the previous
    // generation could lose synced records.
    SEER_RETURN_IF_ERROR(wal_->Sync());
  }

  SEER_ASSIGN_OR_RETURN(const uint64_t next, store_.NextGeneration());
  const uint64_t every = std::max<uint64_t>(1, store_.options().full_checkpoint_every);
  const bool delta =
      !force_full_ && have_base_ && every > 1 && snapshots_since_full_ + 1 < every;

  Correlator::SealRequest req;
  req.delta = delta;
  req.base_generation = last_snapshot_generation_;
  req.relation_epoch = cut_relation_epoch_;
  req.stream_epoch = cut_stream_epoch_;
  SealedSnapshot seal = correlator_->SealSnapshot(req);

  pending_delta_ = delta;
  pending_generation_ = next;
  pending_relation_epoch_ = seal.relation_epoch;
  pending_stream_epoch_ = seal.stream_epoch;

  const uint64_t full_bytes_before = last_full_bytes_;
  inflight_stats_ = CheckpointStats{};
  inflight_stats_.generation = next;
  inflight_stats_.delta = delta;

  // Encode + atomic write + prune, every Fs operation on the thread running
  // this job.
  auto job = [this, seal = std::move(seal), next, delta, full_bytes_before]() {
    CheckpointStats& stats = inflight_stats_;
    const auto encode_begin = std::chrono::steady_clock::now();
    const std::string bytes = EncodeSealedSnapshot(seal);
    stats.encode_micros = MicrosSince(encode_begin);
    stats.bytes = bytes.size();
    stats.full_bytes = delta ? full_bytes_before : bytes.size();
    stats.delta_ratio =
        stats.full_bytes != 0
            ? static_cast<double>(bytes.size()) / static_cast<double>(stats.full_bytes)
            : 1.0;

    const auto write_begin = std::chrono::steady_clock::now();
    Status status = store_.WriteSnapshotBytes(bytes, next, delta);
    if (status.ok()) {
      status = store_.Prune();
    }
    stats.write_micros = MicrosSince(write_begin);

    inflight_status_ = std::move(status);
    inflight_done_.store(true, std::memory_order_release);
  };

  if (async) {
    // Rotate to the new generation's WAL first, so ingest resumes the
    // moment this returns; the encode/write runs behind it. Creating
    // wal-N before snap-N lands is safe here because Open()'s synchronous
    // genesis checkpoint guarantees an older snapshot exists: if we crash
    // mid-encode, recovery folds the previous head's chain and replays
    // wal-(N-1) (synced above) then wal-N.
    SEER_ASSIGN_OR_RETURN(std::unique_ptr<WalWriter> wal, store_.CreateWal(next));
    wal_ = std::move(wal);
    generation_ = next;
    wal_status_ = Status::Ok();
    inflight_stats_.seal_micros = MicrosSince(stall_begin);
    inflight_active_ = true;
    inflight_done_.store(false, std::memory_order_relaxed);
    inflight_thread_ = std::thread(std::move(job));
    return previous;
  }

  // Synchronous: snapshot-first ordering, exactly the sequence the store
  // has always produced — wal-N is only ever created after snapshot N is
  // durable, so even a genesis-checkpoint crash leaves a recoverable
  // store, and fault-injection op counting stays deterministic.
  inflight_stats_.seal_micros = MicrosSince(stall_begin);
  inflight_active_ = true;
  inflight_done_.store(false, std::memory_order_relaxed);
  job();
  if (inflight_status_.ok()) {
    auto rotate_result = store_.CreateWal(next);
    if (rotate_result.ok()) {
      wal_ = *std::move(rotate_result);
      generation_ = next;
      wal_status_ = Status::Ok();
    } else {
      inflight_status_ = rotate_result.status();
    }
  }
  SEER_RETURN_IF_ERROR(FinishCheckpoint());
  return previous;
}

Status DurableCorrelator::FinishCheckpoint() {
  if (!inflight_active_) {
    return Status::Ok();
  }
  if (inflight_thread_.joinable()) {
    inflight_thread_.join();
  }
  inflight_active_ = false;
  inflight_done_.load(std::memory_order_acquire);
  const Status status = inflight_status_;
  if (!status.ok()) {
    // The snapshot never landed (or pruning failed under it): nothing to
    // delta against until a full succeeds.
    force_full_ = true;
    return status;
  }
  last_stats_ = inflight_stats_;
  last_snapshot_generation_ = pending_generation_;
  cut_relation_epoch_ = pending_relation_epoch_;
  cut_stream_epoch_ = pending_stream_epoch_;
  have_base_ = true;
  force_full_ = false;
  if (pending_delta_) {
    ++snapshots_since_full_;
  } else {
    snapshots_since_full_ = 0;
    last_full_bytes_ = inflight_stats_.bytes;
  }
  // Stream removals at or before the committed cut are baked into the
  // durable snapshot; only newer ones matter for the next delta.
  correlator_->TrimStreamRemovals(cut_stream_epoch_);
  return Status::Ok();
}

Status DurableCorrelator::Sync() {
  SEER_RETURN_IF_ERROR(wal_status_);
  return wal_->Sync();
}

}  // namespace seer
