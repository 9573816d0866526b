// Crash-safe correlator: the in-memory Correlator plus its durability.
//
// DurableCorrelator is a ReferenceSink that fans every event into the
// correlator AND the current generation's WAL, so the on-disk store always
// holds snapshot + log for the live state. Open() recovers from whatever
// the directory contains (including mid-crash wreckage) and immediately
// checkpoints, so each process run works against its own fresh generation
// and the WAL's path dictionary never straddles runs.
//
// Checkpointing is split so ingest only stalls for the seal, never for the
// encode or the disk write:
//
//   BeginCheckpoint()   flush + sync the outgoing WAL, seal an owning copy
//                       of the correlator state (SealSnapshot), rotate to
//                       the new generation's WAL, then hand the sealed copy
//                       to a background thread that encodes it, writes it
//                       atomically, and prunes.
//                       Ingest resumes the moment this returns.
//   CheckpointDone()    true once the background work has finished.
//   FinishCheckpoint()  join + harvest: commit the delta cut epochs, record
//                       CheckpointStats, trim the stream removal log. On
//                       failure the next checkpoint is forced full.
//   Checkpoint()        the synchronous composition of the three — same
//                       Fs-op sequence from the calling thread, so
//                       fault-injection op counting stays deterministic.
//
// Every full_checkpoint_every-th snapshot is full; the ones between are
// deltas carrying only the relation stripes and streams dirtied since the
// previous snapshot's seal cut (see snapshot_codec.h). A failed or
// discarded checkpoint forces the next one full, so a delta's base is
// always the immediately preceding durable snapshot file.
//
// Sink callbacks are void, so WAL append failures latch into wal_status()
// (first error kept) instead of throwing; the correlator keeps learning
// in memory either way and a later successful checkpoint re-establishes
// durability.
#ifndef SRC_CORE_DURABLE_CORRELATOR_H_
#define SRC_CORE_DURABLE_CORRELATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "src/core/correlator.h"
#include "src/core/snapshot_store.h"
#include "src/core/wal.h"
#include "src/util/fs.h"
#include "src/util/status.h"

namespace seer {

class DurableCorrelator : public ReferenceSink {
 public:
  struct OpenStats {
    // What recovery found.
    uint64_t recovered_generation = 0;  // 0 = store was empty
    bool fresh = false;
    uint64_t snapshots_discarded = 0;
    uint64_t wal_records_replayed = 0;
    bool torn_wal_tail = false;
  };

  // Recovers (or starts fresh) and checkpoints the recovered state as a
  // new generation.
  static StatusOr<std::unique_ptr<DurableCorrelator>> Open(
      Fs* fs, std::string dir, const SeerParams& defaults = {},
      SnapshotStoreOptions options = {});

  // Joins any in-flight checkpoint (its result is discarded unharvested;
  // the snapshot it wrote — if it got that far — is still on disk).
  ~DurableCorrelator() override;

  // --- ReferenceSink: forward to the correlator, append to the WAL ------
  void OnReference(const FileReference& ref) override;
  void OnProcessFork(Pid parent, Pid child) override;
  void OnProcessExit(Pid pid) override;
  void OnFileDeleted(PathId path, Time time) override;
  void OnFileRenamed(PathId from, PathId to, Time time) override;
  void OnFileExcluded(PathId path) override;

  // Reading the correlator flushes the ingest batcher first, so callers
  // always see every event delivered to the sink applied.
  Correlator& correlator() {
    batcher_.Flush();
    return *correlator_;
  }
  const Correlator& correlator() const {
    batcher_.Flush();
    return *correlator_;
  }
  SnapshotStore& store() { return store_; }

  // Snapshot the current state as the next generation and rotate the WAL,
  // synchronously (seal + encode + write + prune before returning).
  Status Checkpoint();

  // Seal + rotate, then encode/write/prune on a background thread. The
  // caller keeps ingesting immediately; poll CheckpointDone() and call
  // FinishCheckpoint() to harvest. At most one checkpoint is in flight —
  // beginning another first finishes the previous one (blocking).
  Status BeginCheckpoint();
  bool checkpoint_in_flight() const { return inflight_active_; }
  bool CheckpointDone() const {
    return inflight_active_ && inflight_done_.load(std::memory_order_acquire);
  }
  // Blocks until the in-flight checkpoint (if any) completes and commits
  // its result. Returns the background work's status; Ok and a no-op when
  // nothing is in flight.
  Status FinishCheckpoint();

  // Stats for the most recently harvested checkpoint (zeros before the
  // first one completes).
  const CheckpointStats& last_checkpoint_stats() const { return last_stats_; }

  // Push buffered WAL records to stable storage (durability point for
  // everything observed so far).
  Status Sync();

  uint64_t generation() const { return generation_; }
  uint64_t wal_bytes() const { return wal_ != nullptr ? wal_->bytes_logged() : 0; }
  const Status& wal_status() const { return wal_status_; }
  const OpenStats& open_stats() const { return open_stats_; }

 private:
  DurableCorrelator(SnapshotStore store, std::unique_ptr<Correlator> correlator);

  // The shared seal-and-rotate prologue plus the encode/write/prune job;
  // async spawns the job on a thread, sync runs it inline and harvests.
  Status DoCheckpoint(bool async);

  void Latch(Status status) {
    if (wal_status_.ok() && !status.ok()) {
      wal_status_ = std::move(status);
    }
  }

  SnapshotStore store_;
  std::unique_ptr<Correlator> correlator_;
  // Events are WAL-appended eagerly (one per sink call, order preserved)
  // but applied to the correlator in batches through IngestBatch, so the
  // fold runs inside Tick and the flushing accessors rather than on every
  // sink call. Checkpoint() and the correlator() accessors flush first, so
  // batch boundaries always align with WAL checkpoints, and recovery's
  // serial replay reproduces the batched state exactly (IngestBatch
  // applies events through the serial sink methods). Mutable: a const
  // read must still be able to flush.
  mutable IngestBatcher batcher_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t generation_ = 0;
  Status wal_status_;
  OpenStats open_stats_;

  // --- checkpoint plane -------------------------------------------------
  std::thread inflight_thread_;
  bool inflight_active_ = false;           // main-thread view: join pending
  std::atomic<bool> inflight_done_{false};  // set by the background job
  // Written by the job before inflight_done_, read after (release/acquire).
  Status inflight_status_;
  CheckpointStats inflight_stats_;
  // What the in-flight snapshot will establish once harvested.
  bool pending_delta_ = false;
  uint64_t pending_generation_ = 0;
  uint64_t pending_relation_epoch_ = 0;
  uint64_t pending_stream_epoch_ = 0;
  // Committed cut: the epochs the last durable snapshot covers. The next
  // delta carries exactly the stripes/streams dirtied after these.
  uint64_t cut_relation_epoch_ = 0;
  uint64_t cut_stream_epoch_ = 0;
  uint64_t last_snapshot_generation_ = 0;  // base for the next delta
  uint64_t last_full_bytes_ = 0;           // denominator for delta_ratio
  uint64_t snapshots_since_full_ = 0;
  bool have_base_ = false;   // a durable snapshot exists to delta against
  bool force_full_ = false;  // a failed/unharvested checkpoint poisons deltas
  CheckpointStats last_stats_;
};

}  // namespace seer

#endif  // SRC_CORE_DURABLE_CORRELATOR_H_
