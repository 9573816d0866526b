// Hoard selection and hoard-miss accounting.
//
// When new hoard contents are to be chosen, SEER examines the projects, in
// order of how recently they were active, and selects the highest-priority
// projects until the maximum hoard size is reached — only complete projects
// are hoarded, under the assumption that a partial project is not enough to
// make progress (Section 2). Frequently-referenced files, critical files,
// and non-file objects are included unconditionally (Sections 4.2, 4.3,
// 4.6), as are any files the user pinned by hand (rarely needed, Section 2).
//
// Hoard contents are identity sets: selections, pins and miss records all
// carry interned PathIds. Strings enter only through the ingress
// conveniences (user pin/miss commands) and leave only when a caller
// renders a listing or hands the set to the replication substrate.
//
// The fill plane is incremental: HoardManager caches one ClusterAggregate
// (priority, live bytes, live count) per cluster, keyed by the cluster's
// representative member and membership hash, and invalidated by the file
// table's touch epoch. A refill after touching 1% of the files recomputes
// ~1% of the aggregates; everything else is an O(1) cache hit. The rank
// is a total order over the aggregate table, so a scratch and an
// incremental fill produce byte-identical selections.
//
// MissLog implements the two miss-tracking paths of Section 4.4: the manual
// reporting program (with the 0-4 severity scale) and the automatic
// detector that notices accesses to files that exist but are not hoarded.
#ifndef SRC_CORE_HOARD_H_
#define SRC_CORE_HOARD_H_

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/clustering.h"
#include "src/core/correlator.h"
#include "src/observer/observer.h"
#include "src/util/flat_map.h"

namespace seer {

// Severity scale of Section 4.4 (lower is worse).
enum class MissSeverity : uint8_t {
  kUnusable = 0,        // computer unusable until reconnection
  kTaskChange = 1,      // current task must change
  kActivityChange = 2,  // same task, different activity
  kMinor = 3,           // little or no trouble
  kPreload = 4,         // not needed now; preload for the future
};

struct HoardSelection {
  // Chosen paths in deterministic emission order: always-hoard (ascending),
  // pins (ascending), then ranked clusters with members in ascending id
  // order (most-recent-first within a cluster in partial-fill mode). The
  // order is identical for scratch and incremental fills, so
  // byte-comparing two selections is a valid equivalence check.
  std::vector<PathId> files;
  // The same ids sorted ascending — the membership index behind Contains().
  std::vector<PathId> sorted_ids;
  uint64_t bytes_used = 0;
  uint64_t budget_bytes = 0;
  size_t projects_hoarded = 0;
  size_t projects_skipped = 0;  // complete projects that did not fit

  bool Contains(PathId path) const;
  bool Contains(std::string_view path) const {
    const PathId id = GlobalPaths().Find(path);
    return id != kInvalidPathId && Contains(id);
  }

  // Egress: selection rendered as sorted path strings (replication
  // substrate, user-facing listings).
  std::vector<std::string> PathStrings() const;
};

// What the last ChooseHoard actually did, for the perf surfaces
// (`seerctl hoard --stats`, the tenant router).
struct HoardFillStats {
  size_t clusters = 0;
  size_t reused_aggregates = 0;  // cache hits (no member walk)
  size_t dirty_clusters = 0;     // aggregates recomputed this fill
  size_t touched_files = 0;      // files moved since the cached epoch
  size_t sizes_resolved = 0;     // size_of calls made this fill
  bool incremental = false;      // cached aggregates were usable
  double fill_ms = 0.0;
  // Phase split of fill_ms, mirroring ClusterBuildStats.
  double agg_ms = 0.0;     // size column refresh + aggregate recompute
  double rank_ms = 0.0;    // deterministic (priority, index) sort
  double select_ms = 0.0;  // greedy budgeted selection
};

class HoardManager {
 public:
  // Per-file size oracle. Must be pure for a given fill (same path -> same
  // size): sizes are resolved on the calling thread and cached in a
  // PathId-indexed column that is refreshed only for files the file table
  // reports touched — a size change must be accompanied by a file-table
  // event (reference, delete, rename), which is how every ingest path
  // already behaves.
  using SizeFn = std::function<uint64_t(PathId path)>;

  explicit HoardManager(uint64_t budget_bytes) : budget_bytes_(budget_bytes) {}

  void set_budget_bytes(uint64_t bytes) { budget_bytes_ = bytes; }
  uint64_t budget_bytes() const { return budget_bytes_; }

  // Space charged before any file is chosen. Directory hoarding is the
  // replication substrate's decision, but SEER conservatively assumes all
  // directories are hoarded when computing space (Section 4.6).
  void set_reserved_bytes(uint64_t bytes) { reserved_bytes_ = bytes; }
  uint64_t reserved_bytes() const { return reserved_bytes_; }

  // The paper hoards only complete projects, assuming partial projects are
  // not enough to make progress (Section 2). Enabling partial fill makes a
  // project that does not fit contribute its most recently used members
  // instead — the ablation bench/live sim quantify the difference.
  void set_allow_partial_projects(bool allow) { allow_partial_ = allow; }
  bool allow_partial_projects() const { return allow_partial_; }

  // Explicit user hoarding instructions (kept across selections). The
  // string overload is the user-command ingress: it interns.
  void Pin(PathId path) { pinned_.insert(path); }
  void Pin(std::string_view path) { pinned_.insert(GlobalPaths().Intern(path)); }
  void Unpin(PathId path) { pinned_.erase(path); }
  void Unpin(std::string_view path) {
    const PathId id = GlobalPaths().Find(path);
    if (id != kInvalidPathId) {
      pinned_.erase(id);
    }
  }
  const std::set<PathId>& pinned() const { return pinned_; }

  // Incremental fills are on by default; turning them off forces every
  // ChooseHoard to re-walk all clusters (the scratch baseline that
  // bench/overhead times the warm fill against).
  void set_incremental_fill(bool on) { incremental_fill_ = on; }
  bool incremental_fill() const { return incremental_fill_; }
  void InvalidateFillCache() const { fill_cache_valid_ = false; }

  const HoardFillStats& last_fill_stats() const { return fill_stats_; }

  // Chooses hoard contents: always-hoard and pinned files first, then whole
  // projects by descending activity until the budget is exhausted.
  // `size_of` supplies per-file sizes (unknown files may be given a
  // synthetic size by the caller). Logically const: the mutable aggregate
  // cache it maintains is invisible in the result (callers must serialise
  // ChooseHoard with table mutation, which every current caller does).
  HoardSelection ChooseHoard(const Correlator& correlator, const ClusterSet& clusters,
                             const std::set<PathId>& always_hoard,
                             const SizeFn& size_of) const;

 private:
  // One cached per-cluster summary; identified across builds by
  // (rep, member_hash) since cluster indices are not stable.
  struct ClusterAggregate {
    uint64_t priority = 0;    // max last_ref_seq over ALL members
    uint64_t live_bytes = 0;  // size sum over live members
    uint32_t live_count = 0;  // live members
    FileId rep = kInvalidFileId;  // members[0] (members are sorted unique)
    uint64_t member_hash = 0;
  };

  uint64_t budget_bytes_;
  uint64_t reserved_bytes_ = 0;
  std::set<PathId> pinned_;
  bool allow_partial_ = false;
  bool incremental_fill_ = true;

  // --- fill cache (valid between fills) ------------------------------------
  mutable std::vector<ClusterAggregate> agg_cache_;    // last fill's table
  mutable FlatMap<FileId, uint32_t> rep_index_{kInvalidFileId};  // rep -> agg_cache_ index
  mutable std::vector<uint64_t> size_col_;  // PathId-indexed resolved sizes
  mutable uint64_t cache_epoch_ = 0;        // touch epoch the cache covers
  mutable const void* cache_source_ = nullptr;  // correlator identity guard
  mutable bool fill_cache_valid_ = false;
  mutable HoardFillStats fill_stats_;

  // --- per-fill scratch (persisted to keep warm fills allocation-free) -----
  mutable std::vector<ClusterAggregate> agg_scratch_;
  mutable std::vector<FileId> touched_;
  mutable std::vector<uint8_t> cluster_dirty_;
  mutable std::vector<uint32_t> rank_order_;
  mutable std::vector<uint64_t> sel_in_cluster_;
  mutable std::vector<uint32_t> in_sel_mark_;  // PathId-indexed, == sel_mark_
  mutable uint32_t sel_mark_ = 0;
  mutable std::vector<std::pair<uint64_t, FileId>> by_recency_;
};

struct MissRecord {
  PathId path = kInvalidPathId;
  Time time = 0;
  MissSeverity severity = MissSeverity::kMinor;
  bool automatic = false;
};

class MissLog : public MissListener {
 public:
  // Manual reporting: the user runs the miss program, which records the
  // event and arranges for the file (and its project) to be hoarded at the
  // next reconnection. The string overload is the command-line ingress.
  void RecordManual(PathId path, Time time, MissSeverity severity);
  void RecordManual(std::string_view path, Time time, MissSeverity severity) {
    RecordManual(GlobalPaths().Intern(path), time, severity);
  }

  // Automatic detection (fed by the observer's kNotLocal signal). At most
  // one automatic record per path per disconnection.
  void OnNotLocalAccess(PathId path, Pid pid, Time time) override;

  // Disconnection bracketing for per-disconnection queries.
  void StartDisconnection(Time time);
  void EndDisconnection();

  const std::vector<MissRecord>& records() const { return records_; }

  // Misses recorded during the current disconnection.
  size_t CurrentDisconnectionMissCount() const;

  // Files to force into the hoard at the next reconnection; clears the
  // pending set.
  std::vector<PathId> TakeFilesToHoard();

  // The pending force-hoard set, without consuming it (persistence).
  const std::set<PathId>& pending_hoard() const { return pending_hoard_; }

  // Rebuilds the log from persisted state (the tenant store's aux
  // section). Replaces current contents; disconnection bracketing resets
  // to "connected" — a router restart ends any open disconnection.
  void RestoreState(std::vector<MissRecord> records, std::set<PathId> pending_hoard);

  // O(1): counters are maintained at record/restore time, not scanned.
  size_t CountAtSeverity(MissSeverity severity) const {
    return manual_by_severity_[static_cast<size_t>(severity)];
  }
  size_t automatic_count() const { return automatic_count_; }

 private:
  void CountRecord(const MissRecord& rec);

  std::vector<MissRecord> records_;
  std::set<PathId> pending_hoard_;
  std::set<PathId> seen_this_disconnection_;
  size_t disconnection_start_index_ = 0;
  bool disconnected_ = false;
  // Maintained counters mirroring records_ (stats calls are O(1)).
  size_t manual_by_severity_[5] = {0, 0, 0, 0, 0};
  size_t automatic_count_ = 0;
};

}  // namespace seer

#endif  // SRC_CORE_HOARD_H_
