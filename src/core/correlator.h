// The SEER correlator.
//
// Consumes the observer's cleaned reference stream, measures semantic
// distances between file references on a per-process basis, maintains the
// per-file nearest-neighbor relation table, and — when new hoard contents
// are to be chosen — runs the clustering algorithm to group files into
// projects (Section 2). External investigators can be registered; their
// relations are folded into the clustering decision (Sections 3.2, 3.3.3).
//
// The per-reference hot path is identity-only: the observer hands over
// interned PathIds, the file table maps them to dense FileIds with a flat
// array, and distance observations accumulate in a reused scratch buffer —
// no heap allocation once a path has been seen. Strings reappear only on
// the query egress (Distance/NeighborPaths diagnostics, persistence).
//
// There is one ingest path. The ReferenceSink methods apply one event at a
// time, and IngestBatch is a plain loop over those same methods, so batched
// and one-at-a-time delivery produce identical state by construction
// (DESIGN.md §11).
#ifndef SRC_CORE_CORRELATOR_H_
#define SRC_CORE_CORRELATOR_H_

#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/clustering.h"
#include "src/core/file_table.h"
#include "src/core/investigator.h"
#include "src/core/params.h"
#include "src/core/reference_streams.h"
#include "src/core/relation_table.h"
#include "src/core/snapshot_codec.h"
#include "src/observer/reference.h"
#include "src/util/status.h"

namespace seer {

// One queued sink event, POD so ring buffers and batch vectors never
// allocate per event. Shared by the AsyncCorrelator queue and IngestBatcher.
struct IngestEvent {
  enum class Kind : uint8_t {
    kReference,
    kFork,
    kExit,
    kDeleted,
    kRenamed,
    kExcluded,
  };
  Kind kind = Kind::kReference;
  FileReference ref;                 // kReference
  Pid parent = 0;                    // kFork
  Pid child = 0;                     // kFork / kExit (child doubles as the pid)
  PathId path = kInvalidPathId;      // kDeleted / kRenamed(from) / kExcluded
  PathId path2 = kInvalidPathId;     // kRenamed(to)
  Time time = 0;
};

// Counters describing what the batched ingest path did.
struct IngestStats {
  uint64_t batches = 0;     // IngestBatch calls
  uint64_t refs = 0;        // reference events ingested via batches
  uint64_t barriers = 0;    // non-reference events ingested via batches
  // Wall time of IngestBatch. Distance measurement and the relation fold
  // run interleaved, one reference at a time, so one clock pair per batch
  // books both to fold_us; measure_us stays 0 and is kept so readers that
  // sum the two still read the whole ingest time.
  uint64_t measure_us = 0;
  uint64_t fold_us = 0;
};

class Correlator : public ReferenceSink {
 public:
  explicit Correlator(const SeerParams& params = SeerParams(), uint64_t seed = 0x5ee8);

  // --- ReferenceSink ------------------------------------------------------
  void OnReference(const FileReference& ref) override;
  void OnProcessFork(Pid parent, Pid child) override;
  void OnProcessExit(Pid pid) override;
  void OnFileDeleted(PathId path, Time time) override;
  void OnFileRenamed(PathId from, PathId to, Time time) override;
  void OnFileExcluded(PathId path) override;

  // --- Batched ingest ------------------------------------------------------

  // Applies `count` events in order through the sink methods above, and
  // books the call in ingest_stats().
  void IngestBatch(const IngestEvent* events, size_t count);

  const IngestStats& ingest_stats() const { return ingest_stats_; }

  // --- Investigators ------------------------------------------------------

  // Registers an investigator; it runs against all known live files each
  // time RunInvestigators() is called (typically just before clustering).
  void AddInvestigator(std::unique_ptr<Investigator> investigator);
  void RunInvestigators(const SimFilesystem& fs);

  // Direct injection of relations (e.g. from a replayed investigator log).
  void AddInvestigatedRelation(const InvestigatedRelation& relation);

  // --- Clustering & queries ----------------------------------------------

  // Groups all live files into (possibly overlapping) projects.
  ClusterSet BuildClusters() const;

  // Incremental cluster rebuilds are on by default; benches turn them off
  // to measure the full-build baseline.
  void SetIncrementalClustering(bool on) { clusters_.set_incremental(on); }

  // What the most recent BuildClusters actually did.
  const ClusterBuildStats& last_cluster_stats() const {
    return clusters_.last_build_stats();
  }

  const FileTable& files() const { return files_; }
  const RelationTable& relations() const { return relations_; }
  const SeerParams& params() const { return params_; }

  // Live-tuning override (`seerctl params set` against a running
  // service): swaps the dynamically-read knobs on this correlator and its
  // relation table, streams, and cluster builder. max_neighbors is pinned
  // to the current value — it bakes the relation slab's geometry at
  // construction, so changing it takes an evict/restore cycle with new
  // defaults, not an override. Call with no batched ingest in flight
  // (flush the batcher first) so the boundary between old- and new-params
  // measurement is deterministic.
  void OverrideTuningParams(const SeerParams& params);

  // Mean semantic distance from -> to, or negative when untracked.
  // String-keyed diagnostic egress.
  double Distance(const std::string& from, const std::string& to) const;

  // Neighbor paths of a file, for diagnostics.
  std::vector<std::string> NeighborPaths(const std::string& path) const;

  uint64_t references_processed() const { return references_processed_; }

  // Approximate resident bytes (file table + relation lists + streams),
  // for the Section 5.3 memory bench.
  size_t MemoryBytes() const;

  // --- persistence ------------------------------------------------------------
  // EncodeSnapshot/DecodeSnapshot — the one persisted format, the v2
  // sectioned snapshot used by SnapshotStore (layout in snapshot_codec.h):
  // CRC32-checksummed sections covering params, the path table, the file
  // table (purge queue included), the relation table (RNG state included),
  // and the live reference streams. Decoding a snapshot restores the
  // complete learning state, so replaying the WAL on top reproduces the
  // never-crashed correlator byte for byte. Any other input, including a
  // retired v1 snapshot, is a typed kDataLoss.
  //
  // DumpText writes params, files and relations as text for people and
  // diff tools (`seerctl db dump`). It is write-only: nothing reads it.
  void DumpText(std::ostream& out) const;

  std::string EncodeSnapshot() const;
  static StatusOr<std::unique_ptr<Correlator>> DecodeSnapshot(std::string_view bytes);

  // --- checkpoint plane ----------------------------------------------------
  //
  // SealSnapshot deep-copies everything a checkpoint needs (the only work
  // done while ingest is paused); EncodeSealedSnapshot then serializes the
  // copy off-thread. EncodeSnapshot() above is now a convenience wrapper:
  // a full seal encoded serially, used by tests and the equality oracle.

  struct SealRequest {
    bool delta = false;
    uint64_t base_generation = 0;  // generation the delta applies over
    // Epoch cuts of the base generation; the seal exports only relation
    // stripes / streams touched after them. Ignored for a full seal.
    uint64_t relation_epoch = 0;
    uint64_t stream_epoch = 0;
  };
  SealedSnapshot SealSnapshot(const SealRequest& req) const;
  SealedSnapshot SealSnapshot() const { return SealSnapshot(SealRequest()); }

  // Drops stream-removal log entries up to `epoch` once the checkpoint
  // that exported them is durable.
  void TrimStreamRemovals(uint64_t epoch) { streams_.TrimRemovalLog(epoch); }

 private:
  // The snapshot chain decoder (DecodeSnapshotChain in snapshot_codec.h)
  // restores decoded state straight into the members.
  friend class SnapshotChainDecoder;

  // Runs `flip`, a FileTable change to the liveness or pathname of `ids`,
  // then stamps each valid id with RelationTable::MarkSetChanged. Every
  // such change goes through here, so no flip goes unstamped: the stamps
  // feed the incremental recluster and drop the rejection summary of
  // every row naming the file, which assumes that row has no dead entry.
  template <typename Flip>
  void FlipFiles(std::initializer_list<FileId> ids, Flip flip);

  SeerParams params_;
  FileTable files_;
  RelationTable relations_;
  ReferenceStreams streams_;
  ClusterBuilder clusters_;
  std::vector<std::unique_ptr<Investigator>> investigators_;
  std::vector<DistanceObservation> scratch_obs_;  // reused per reference
  uint64_t references_processed_ = 0;
  uint64_t global_ref_seq_ = 0;

  IngestStats ingest_stats_;
};

// Accumulates sink events and applies them to a Correlator via IngestBatch
// once `capacity` have gathered (or on explicit Flush). Not thread-safe;
// flush before reading the correlator.
class IngestBatcher {
 public:
  explicit IngestBatcher(Correlator* correlator, size_t capacity = 1024)
      : correlator_(correlator), capacity_(capacity == 0 ? 1 : capacity) {
    events_.reserve(capacity_);
  }

  void Add(const IngestEvent& event) {
    events_.push_back(event);
    if (events_.size() >= capacity_) {
      Flush();
    }
  }

  void Flush() {
    if (events_.empty()) {
      return;
    }
    correlator_->IngestBatch(events_.data(), events_.size());
    events_.clear();
  }

  bool empty() const { return events_.empty(); }

 private:
  Correlator* correlator_;
  size_t capacity_;
  std::vector<IngestEvent> events_;
};

}  // namespace seer

#endif  // SRC_CORE_CORRELATOR_H_
