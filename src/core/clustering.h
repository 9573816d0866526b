// Project clustering — the modified Jarvis-Patrick algorithm of
// Section 3.3.2 plus the shared-neighbor-count adjustments of
// Section 3.3.3.
//
// The classic Jarvis-Patrick algorithm computes each point's n nearest
// neighbors (O(N^2)) and merges the clusters of any two points sharing more
// than k of them. SEER's variation:
//   * reuses the relation table's existing per-file neighbor lists, giving
//     O(N) time;
//   * uses two thresholds, kn (near) and kf (far) with kn > kf: sharing at
//     least kn neighbors combines the two clusters outright, while sharing
//     at least kf (but fewer than kn) *overlaps* them — each file is added
//     to the other's cluster, without merging, so files can belong to
//     several projects at once;
//   * adjusts the shared-neighbor count with extra evidence: directory
//     distance is subtracted (files far apart in the tree are less likely
//     to cluster), and external-investigator relation strengths are added —
//     and investigated pairs are tested even when no semantic distance was
//     ever stored, so a sufficiently strong investigator can force files
//     into one project.
//
// Engine shape (see DESIGN.md §10): edge *scoring* — the expensive phase —
// is a pure function of fixed neighbor sets, writing each file's scored
// edges into a per-file bucket. The *union* phase then walks the buckets
// in candidate order. Buckets are cached between builds: the relation table
// stamps files whose live neighbor sets changed (dirty epoch), and an
// incremental rebuild rescores only stamped files and their
// reverse-neighbors, falling back to a full pass when the dirty fraction
// is large.
#ifndef SRC_CORE_CLUSTERING_H_
#define SRC_CORE_CLUSTERING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/core/file_table.h"
#include "src/core/params.h"
#include "src/core/relation_table.h"
#include "src/util/flat_map.h"

namespace seer {

struct Cluster {
  std::vector<FileId> members;  // sorted, unique
};

// Cluster indices of one file: a borrowed view into ClusterSet's flat
// membership table (valid while the ClusterSet lives).
class ClusterIndexSpan {
 public:
  ClusterIndexSpan() = default;
  ClusterIndexSpan(const uint32_t* data, size_t size) : data_(data), size_(size) {}
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t operator[](size_t i) const { return data_[i]; }
  const uint32_t* begin() const { return data_; }
  const uint32_t* end() const { return data_ + size_; }

 private:
  const uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

struct ClusterSet {
  std::vector<Cluster> clusters;
  // file -> indices into `clusters` (a file may belong to several), as a
  // FileId-indexed CSR table: two flat arrays instead of a vector-per-file,
  // so emitting membership costs two allocations, not one per file.
  std::vector<uint32_t> membership_offset;  // size files+1 (empty when no files)
  std::vector<uint32_t> membership_ids;
  // Per-cluster order-sensitive hash of the sorted member list. Cluster
  // indices are not stable across builds, so the incremental hoard-fill
  // plane identifies a cluster by (members[0], member_hash): equal hash on
  // the same representative means the membership is unchanged and the
  // cached aggregate can be reused without re-walking the members.
  std::vector<uint64_t> member_hash;

  // Clusters containing `id` (ascending); empty if unknown.
  ClusterIndexSpan ClustersOf(FileId id) const;
};

// What the last Build() actually did, for the perf surfaces
// (`seerctl cluster --stats`, the hoard daemon).
struct ClusterBuildStats {
  size_t candidates = 0;
  size_t dirty_files = 0;     // set-changed files detected since last build
  size_t files_rescored = 0;  // edge buckets recomputed this build
  size_t edges_scored = 0;    // adjusted-count evaluations performed
  bool incremental = false;   // cached buckets were reused
  double build_ms = 0.0;
  // Phase split of build_ms, for the perf harness.
  double pack_ms = 0.0;   // candidate packing (rows, directory nodes)
  double plan_ms = 0.0;   // dirty-set collection and rescore planning
  double score_ms = 0.0;  // edge scoring
  double merge_ms = 0.0;  // union + materialise + emit
};

class ClusterBuilder {
 public:
  ClusterBuilder(const SeerParams& params, const FileTable* files,
                 const RelationTable* relations);

  // Registers investigator evidence for an unordered pair; strengths from
  // multiple investigators accumulate (Section 3.3.3).
  void AddInvestigatedPair(FileId a, FileId b, double strength);
  void ClearInvestigatedPairs();

  // Runs both phases over the given candidate files (normally
  // FileTable::LiveIds()). Files related to nothing become singleton
  // clusters. Logically const: the mutable edge cache it maintains is
  // invisible in the result (callers must serialise Build with table
  // mutation, which the correlator/async-pipeline query path already does).
  ClusterSet Build(const std::vector<FileId>& candidates) const;

  // Adjusted shared-neighbor count for an ordered pair (x in Table 1).
  // Reference implementation: sorted-merge intersection plus the string
  // DirectoryDistance. Build computes the same value from cached inputs:
  // it stamps f's live row into a FileId-indexed array once per slot and
  // counts the stamped entries of each partner's row, and it measures
  // directory distance as an integer walk over interned directory nodes.
  double AdjustedSharedCount(FileId from, FileId to) const;

  // Incremental rebuilds are on by default; turning them off forces every
  // Build to rescore all edges (the benches' serial/full baseline).
  void set_incremental(bool on) { incremental_enabled_ = on; }
  void InvalidateCache() const { cache_valid_ = false; }

  // Live-tuning override: new near/far thresholds and weights take effect
  // on the next Build. The incremental cache is invalidated — scores
  // computed under the old params must not survive.
  void OverrideParams(const SeerParams& params) {
    params_ = params;
    InvalidateCache();
  }

  const ClusterBuildStats& last_build_stats() const { return stats_; }

  // Rescore-set fraction above which an incremental rebuild falls back to
  // a full pass (rescoring nearly everything costs more than a clean run).
  static constexpr double kIncrementalFallbackFraction = 0.25;

 private:
  struct ScoreScratch;  // scoring buffers reused across slots (defined in the .cc)

  uint64_t PairKey(FileId a, FileId b) const;
  double InvestigatedStrength(FileId a, FileId b) const;
  // Rebuilds one file's cached scoring inputs: its live-neighbor row, and
  // its directory node when its name changed.
  void RefreshFileInputs(FileId f) const;
  // Interns the containing directory of `path` (and its ancestors) as
  // DirectoryDistance sees it; returns its node.
  uint32_t DirNodeOf(std::string_view path) const;
  // Decides which candidate slots need rescoring (rescore_: keep, partial
  // or full) and which files' inputs must be refreshed (refresh_); returns
  // false when the cache cannot be used (full rebuild required).
  bool PlanIncremental(const std::vector<FileId>& candidates) const;
  // Rebuilds one candidate's edge bucket. Partial mode keeps cached edges
  // to clean targets and rescores only edges to dirty files. When
  // `removed_flag` is non-null, sets the pointed-to byte if a
  // previously-near edge did not survive — the signal that this slot's
  // cached component label cannot be reused.
  void ScoreSlot(uint32_t slot, const std::vector<FileId>& candidates, uint8_t mode,
                 ScoreScratch* scratch, size_t* edges_scored, uint8_t* removed_flag) const;
  int DirDistance(FileId a, FileId b) const;

  SeerParams params_;
  const FileTable* files_;
  const RelationTable* relations_;

  FlatMap<uint64_t, double> investigated_;
  // Per-file investigated partners (both directions), in insertion order.
  std::vector<std::vector<FileId>> inv_partners_;
  // Endpoints touched since last build; consumed (and reset) by Build.
  mutable std::vector<FileId> inv_dirty_;
  mutable bool inv_cleared_ = false;
  bool incremental_enabled_ = true;

  // --- build-time cache & scratch (logically transparent) ------------------
  mutable ClusterBuildStats stats_;
  // Per-file scored edges (x >= kf) from the last build, partitioned: the
  // first near_count_[f] entries are near edges (x >= kn), the rest far.
  mutable std::vector<std::vector<FileId>> edge_cache_;
  mutable std::vector<uint32_t> near_count_;
  mutable std::vector<uint8_t> has_far_;  // bucket holds any far edge
  // Phase-one component representative per file from the last build. When
  // no near edge or candidate was removed since, the union phase replays
  // these labels (O(candidates) trivial unions) plus the rescored buckets'
  // near edges instead of walking every cached bucket.
  mutable std::vector<FileId> comp_rep_;
  mutable bool comp_valid_ = false;
  mutable bool fast_union_ok_ = false;
  mutable bool cache_valid_ = false;
  mutable uint64_t built_epoch_ = 0;
  mutable std::vector<FileId> cached_candidates_;
  mutable std::vector<uint8_t> was_candidate_;  // by FileId, previous build
  // Persistent per-file scoring inputs, refreshed only for dirty files:
  mutable std::vector<std::vector<FileId>> live_row_;  // live neighbors, unsorted
  // Directory tree of every file this builder has scored, one node per
  // distinct directory (node 0 is the root). Keyed by FileId here, not by
  // PathId: fleet tenants share one interner but not one builder.
  struct DirNode {
    uint32_t parent;
    uint32_t depth;  // components below the root
  };
  mutable std::vector<DirNode> dir_nodes_;
  mutable std::unordered_map<std::string, uint32_t> dir_index_;  // '/'-joined prefix -> node
  mutable std::vector<uint32_t> file_dir_;  // FileId -> node
  mutable std::vector<PathId> dir_path_;    // FileId -> name file_dir_ was built from
  // Scratch reused across builds:
  mutable std::vector<uint32_t> slot_of_;   // FileId -> slot, sentinel
  mutable std::vector<uint8_t> rescore_;    // per slot: keep/partial/full
  mutable std::vector<uint8_t> dirty_flag_; // by FileId, this build's D
  mutable std::vector<FileId> refresh_;     // files whose inputs to rebuild
};

}  // namespace seer

#endif  // SRC_CORE_CLUSTERING_H_
