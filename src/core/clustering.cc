#include "src/core/clustering.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "src/util/dsu.h"
#include "src/util/path.h"

namespace seer {

namespace {

constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);
constexpr uint32_t kNoDirNode = static_cast<uint32_t>(-1);  // file_dir_: not built yet

// Per-slot rescore modes (rescore_). Partial keeps cached edges to clean
// targets and rescores only edges touching dirty files; full rebuilds the
// bucket from scratch.
constexpr uint8_t kKeepBucket = 0;
constexpr uint8_t kPartialRescore = 1;
constexpr uint8_t kFullRescore = 2;

}  // namespace

ClusterIndexSpan ClusterSet::ClustersOf(FileId id) const {
  if (membership_offset.empty() || id + 1 >= membership_offset.size()) {
    return ClusterIndexSpan();
  }
  const uint32_t begin = membership_offset[id];
  const uint32_t end = membership_offset[id + 1];
  return ClusterIndexSpan(membership_ids.data() + begin, end - begin);
}

ClusterBuilder::ClusterBuilder(const SeerParams& params, const FileTable* files,
                               const RelationTable* relations)
    : params_(params),
      files_(files),
      relations_(relations),
      // PairKey packs lo < hi, so all-ones can never be a real key.
      investigated_(static_cast<uint64_t>(-1)),
      dir_nodes_{DirNode{0, 0}} {}

uint64_t ClusterBuilder::PairKey(FileId a, FileId b) const {
  const FileId lo = std::min(a, b);
  const FileId hi = std::max(a, b);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

void ClusterBuilder::AddInvestigatedPair(FileId a, FileId b, double strength) {
  if (a == b || a == kInvalidFileId || b == kInvalidFileId) {
    return;
  }
  bool inserted = false;
  investigated_.InsertOrGet(PairKey(a, b), &inserted) += strength;
  if (inserted) {
    const FileId hi = std::max(a, b);
    if (inv_partners_.size() <= hi) {
      inv_partners_.resize(hi + 1);
    }
    inv_partners_[a].push_back(b);
    inv_partners_[b].push_back(a);
  }
  // Even a repeat pair changes the accumulated strength, hence both
  // endpoints' edge scores.
  inv_dirty_.push_back(a);
  inv_dirty_.push_back(b);
}

void ClusterBuilder::ClearInvestigatedPairs() {
  investigated_.Clear();
  inv_partners_.clear();
  inv_dirty_.clear();
  inv_cleared_ = true;
}

double ClusterBuilder::InvestigatedStrength(FileId a, FileId b) const {
  if (investigated_.empty()) {
    return 0.0;  // every unstarred Figure 2 row: no hash probe per edge
  }
  const double* strength = investigated_.Find(PairKey(a, b));
  return strength == nullptr ? 0.0 : *strength;
}

double ClusterBuilder::AdjustedSharedCount(FileId from, FileId to) const {
  // Raw shared-neighbor count over the relation table's (partial)
  // knowledge.
  std::vector<FileId> a;
  std::vector<FileId> b;
  a.reserve(relations_->max_neighbors());
  b.reserve(relations_->max_neighbors());
  relations_->LiveNeighborIds(from, &a);
  relations_->LiveNeighborIds(to, &b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t shared = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++shared;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }

  double x = static_cast<double>(shared);
  // Directory distance is evidence of separation: subtract (Section 3.3.3).
  if (params_.dir_distance_weight > 0.0) {
    x -= params_.dir_distance_weight *
         static_cast<double>(DirectoryDistance(files_->PathOf(from), files_->PathOf(to)));
  }
  // Investigator relations are evidence of closeness: add.
  x += params_.investigator_weight * InvestigatedStrength(from, to);
  return x;
}

void ClusterBuilder::RefreshFileInputs(FileId f) const {
  std::vector<FileId>& row = live_row_[f];
  row.clear();
  // Append overload: one pass over the id stripe, no temporary vector.
  // Unsorted: ScoreSlot counts shared neighbours through a stamp array.
  relations_->LiveNeighborIds(f, &row);

  // The directory node changes only with the file's name, so a clean full
  // rebuild re-reads one PathId per file and touches no string.
  const PathId path = files_->Get(f).path;
  if (file_dir_[f] == kNoDirNode || dir_path_[f] != path) {
    dir_path_[f] = path;
    file_dir_[f] = DirNodeOf(files_->PathOf(f));
  }
}

uint32_t ClusterBuilder::DirNodeOf(std::string_view path) const {
  // The containing directory exactly as DirectoryDistance derives it, so
  // odd spellings ("//a//b/x", a bare "x", a trailing '/') agree with the
  // reference. Each prefix of the component list is one node; a node's key
  // is the '/'-joined prefix, which no two distinct prefixes share.
  uint32_t node = 0;  // root: no directory components
  std::string prefix;
  for (const std::string& comp : SplitPath(Dirname(NormalizePath(path)))) {
    prefix.append("/").append(comp);
    const auto [it, inserted] =
        dir_index_.try_emplace(prefix, static_cast<uint32_t>(dir_nodes_.size()));
    if (inserted) {
      dir_nodes_.push_back(DirNode{node, dir_nodes_[node].depth + 1});
    }
    node = it->second;
  }
  return node;
}

int ClusterBuilder::DirDistance(FileId a, FileId b) const {
  // Tree edges between the two directory nodes: climb the deeper one to
  // the other's depth, then both to their lowest common ancestor. Files in
  // one directory (the common case) return at the first compare.
  uint32_t x = file_dir_[a];
  uint32_t y = file_dir_[b];
  int distance = 0;
  while (dir_nodes_[x].depth > dir_nodes_[y].depth) {
    x = dir_nodes_[x].parent;
    ++distance;
  }
  while (dir_nodes_[y].depth > dir_nodes_[x].depth) {
    y = dir_nodes_[y].parent;
    ++distance;
  }
  while (x != y) {
    x = dir_nodes_[x].parent;
    y = dir_nodes_[y].parent;
    distance += 2;
  }
  return distance;
}

bool ClusterBuilder::PlanIncremental(const std::vector<FileId>& candidates) const {
  const size_t n = candidates.size();
  rescore_.assign(n, kFullRescore);
  fast_union_ok_ = false;
  stats_.dirty_files = 0;
  if (!incremental_enabled_ || !cache_valid_ || inv_cleared_) {
    return false;
  }

  // D: files whose live neighbor sets (or investigated strengths, or
  // candidacy) may have changed since the cached build. Files entering or
  // leaving the candidate set dirty their reverse neighbors too: those
  // rows gained or lost a live member without any relation-table event.
  std::vector<FileId> dirty;
  relations_->CollectChangedSince(built_epoch_, &dirty);
  dirty.insert(dirty.end(), inv_dirty_.begin(), inv_dirty_.end());
  fast_union_ok_ = true;
  for (const FileId f : candidates) {
    if (f >= was_candidate_.size() || !was_candidate_[f]) {
      dirty.push_back(f);
      const std::vector<FileId>& rev = relations_->ReverseNeighborsOf(f);
      dirty.insert(dirty.end(), rev.begin(), rev.end());
    }
  }
  for (const FileId f : cached_candidates_) {
    if (f >= slot_of_.size() || slot_of_[f] == kNoSlot) {
      // A removed candidate may have been the only connection between its
      // former cluster-mates, so the cached component labels are void.
      fast_union_ok_ = false;
      dirty.push_back(f);
      const std::vector<FileId>& rev = relations_->ReverseNeighborsOf(f);
      dirty.insert(dirty.end(), rev.begin(), rev.end());
    }
  }

  dirty_flag_.assign(slot_of_.size(), 0);
  std::vector<FileId> unique_dirty;
  unique_dirty.reserve(dirty.size());
  for (const FileId d : dirty) {
    if (d >= dirty_flag_.size() || dirty_flag_[d]) {
      continue;  // beyond every table: no slot, no rows, nothing to rescore
    }
    dirty_flag_[d] = 1;
    unique_dirty.push_back(d);
  }
  stats_.dirty_files = unique_dirty.size();

  // A: candidate slots whose cached edge buckets may hold a stale score —
  // the dirty files themselves (their own row changed: full rescore), plus
  // every file whose list names a dirty file and every investigated
  // partner (only edges *to* the dirty file are stale: partial rescore).
  rescore_.assign(n, kKeepBucket);
  size_t rescore_count = 0;
  auto mark = [&](FileId f, uint8_t mode) {
    if (f >= slot_of_.size()) {
      return;
    }
    const uint32_t slot = slot_of_[f];
    if (slot == kNoSlot) {
      return;
    }
    if (rescore_[slot] == kKeepBucket) {
      ++rescore_count;
    }
    if (rescore_[slot] < mode) {
      rescore_[slot] = mode;
    }
  };
  for (const FileId d : unique_dirty) {
    mark(d, kFullRescore);
    for (const FileId owner : relations_->ReverseNeighborsOf(d)) {
      mark(owner, kPartialRescore);
    }
    if (d < inv_partners_.size()) {
      for (const FileId partner : inv_partners_[d]) {
        mark(partner, kPartialRescore);
      }
    }
  }

  if (static_cast<double>(rescore_count) >
      kIncrementalFallbackFraction * static_cast<double>(n)) {
    rescore_.assign(n, kFullRescore);
    return false;
  }

  // Only dirty candidates need their cached scoring inputs rebuilt; every
  // other candidate's row/path/dir caches are unchanged by construction.
  refresh_.clear();
  for (const FileId d : unique_dirty) {
    if (slot_of_[d] != kNoSlot) {
      refresh_.push_back(d);
    }
  }
  return true;
}

struct ClusterBuilder::ScoreScratch {
  std::vector<FileId> near;
  std::vector<FileId> far;
  std::vector<FileId> old_near;
  // FileId-indexed: mark[g] == tick exactly when g is in the live row of
  // the slot being scored. Each slot takes a fresh tick, so the array is
  // never cleared.
  std::vector<uint32_t> mark;
  uint32_t tick = 0;
};

void ClusterBuilder::ScoreSlot(uint32_t slot, const std::vector<FileId>& candidates,
                               uint8_t mode, ScoreScratch* s, size_t* edges_scored,
                               uint8_t* removed_flag) const {
  const FileId f = candidates[slot];
  std::vector<FileId>& bucket = edge_cache_[f];
  const std::vector<FileId>& frow = live_row_[f];
  const double near_threshold = static_cast<double>(params_.cluster_near);
  const double far_threshold = static_cast<double>(params_.cluster_far);
  s->near.clear();
  s->far.clear();
  s->old_near.clear();
  ++s->tick;
  for (const FileId g : frow) {
    s->mark[g] = s->tick;
  }

  // For the fast union path: remember which near edges (to still-live
  // candidates) the cached bucket had, to detect disappearing ones below.
  // A file re-entering the candidate set may carry a stale bucket from two
  // builds ago; its label is unusable anyway, so don't let it flag.
  const bool track_removal =
      removed_flag != nullptr && f < was_candidate_.size() && was_candidate_[f];
  if (track_removal) {
    const uint32_t nc = std::min<uint32_t>(near_count_[f], bucket.size());
    for (uint32_t i = 0; i < nc; ++i) {
      const FileId g = bucket[i];
      if (g < slot_of_.size() && slot_of_[g] != kNoSlot) {
        s->old_near.push_back(g);
      }
    }
  }

  // Rows hold each neighbour once, so the hits of g's row in f's marks
  // are the sorted-merge intersection count of AdjustedSharedCount.
  auto score_edge = [&](FileId g) {
    size_t shared = 0;
    for (const FileId h : live_row_[g]) {
      shared += s->mark[h] == s->tick ? 1 : 0;
    }
    double x = static_cast<double>(shared);
    if (params_.dir_distance_weight > 0.0) {
      x -= params_.dir_distance_weight * static_cast<double>(DirDistance(f, g));
    }
    x += params_.investigator_weight * InvestigatedStrength(f, g);
    ++*edges_scored;
    if (x >= near_threshold) {
      s->near.push_back(g);
    } else if (x >= far_threshold) {
      s->far.push_back(g);
    }
  };

  if (mode == kFullRescore) {
    for (const FileId g : frow) {
      if (g == f || g >= slot_of_.size() || slot_of_[g] == kNoSlot) {
        continue;
      }
      score_edge(g);
    }
    if (f < inv_partners_.size()) {
      for (const FileId partner : inv_partners_[f]) {
        if (partner >= slot_of_.size() || slot_of_[partner] == kNoSlot) {
          continue;
        }
        // Already scored through the neighbor row above.
        if (s->mark[partner] == s->tick) {
          continue;
        }
        score_edge(partner);
      }
    }
  } else {
    // Partial: f's own row is unchanged, so only edges touching dirty
    // targets can have moved. Keep every clean cached edge and rescore
    // exactly the dirty ones (dropped here, re-examined below — any edge
    // to a dirty target must come back through f's row or partner list,
    // both of which are stable for a clean f).
    const uint32_t nc = std::min<uint32_t>(near_count_[f], bucket.size());
    for (uint32_t i = 0; i < bucket.size(); ++i) {
      const FileId g = bucket[i];
      if (g < dirty_flag_.size() && dirty_flag_[g]) {
        continue;
      }
      (i < nc ? s->near : s->far).push_back(g);
    }
    for (const FileId g : frow) {
      if (g == f || g >= slot_of_.size() || slot_of_[g] == kNoSlot || !dirty_flag_[g]) {
        continue;
      }
      score_edge(g);
    }
    if (f < inv_partners_.size()) {
      for (const FileId partner : inv_partners_[f]) {
        if (partner >= slot_of_.size() || slot_of_[partner] == kNoSlot ||
            !dirty_flag_[partner]) {
          continue;
        }
        if (s->mark[partner] == s->tick) {
          continue;
        }
        score_edge(partner);
      }
    }
  }

  if (track_removal) {
    for (const FileId g : s->old_near) {
      if (std::find(s->near.begin(), s->near.end(), g) == s->near.end()) {
        *removed_flag = 1;
        break;
      }
    }
  }

  bucket.clear();
  bucket.reserve(s->near.size() + s->far.size());
  bucket.insert(bucket.end(), s->near.begin(), s->near.end());
  bucket.insert(bucket.end(), s->far.begin(), s->far.end());
  near_count_[f] = static_cast<uint32_t>(s->near.size());
  has_far_[f] = s->far.empty() ? 0 : 1;
}

ClusterSet ClusterBuilder::Build(const std::vector<FileId>& candidates) const {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t epoch_now = relations_->set_change_epoch();
  const size_t n = candidates.size();

  stats_ = ClusterBuildStats{};
  stats_.candidates = n;

  const auto MsSince = [](std::chrono::steady_clock::time_point from) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - from)
        .count();
  };

  auto mark = std::chrono::steady_clock::now();
  size_t max_file = files_->size();
  for (const FileId f : candidates) {
    max_file = std::max(max_file, static_cast<size_t>(f) + 1);
  }
  slot_of_.assign(max_file, kNoSlot);
  for (size_t i = 0; i < n; ++i) {
    slot_of_[candidates[i]] = static_cast<uint32_t>(i);
  }
  if (live_row_.size() < max_file) {
    live_row_.resize(max_file);
    dir_path_.resize(max_file, kInvalidPathId);
    file_dir_.resize(max_file, kNoDirNode);
  }
  if (edge_cache_.size() < max_file) {
    edge_cache_.resize(max_file);
    near_count_.resize(max_file, 0);
    has_far_.resize(max_file, 0);
  }
  stats_.pack_ms = MsSince(mark);

  mark = std::chrono::steady_clock::now();
  const bool incremental = PlanIncremental(candidates);
  stats_.plan_ms = MsSince(mark);
  stats_.incremental = incremental;
  if (!incremental) {
    refresh_ = candidates;  // full pass: rebuild every candidate's inputs
  }

  // Input refresh: rebuild the cached live-neighbor rows / path views of
  // refresh_. Each result is a pure per-file function.
  mark = std::chrono::steady_clock::now();
  for (const FileId f : refresh_) {
    RefreshFileInputs(f);
  }
  stats_.pack_ms += MsSince(mark);

  // Scoring phase: recompute the edge bucket of every slot marked for
  // rescore. The bucket content is a pure function of the cached inputs,
  // so the merge below is order-independent.
  mark = std::chrono::steady_clock::now();
  std::vector<uint8_t> edge_removed(n, 0);  // per slot
  const bool fast_union = incremental && fast_union_ok_ && comp_valid_;
  ScoreScratch scratch;
  scratch.mark.assign(max_file, 0);
  for (uint32_t slot = 0; slot < n; ++slot) {
    if (rescore_[slot] != kKeepBucket) {
      ScoreSlot(slot, candidates, rescore_[slot], &scratch, &stats_.edges_scored,
                fast_union ? &edge_removed[slot] : nullptr);
      ++stats_.files_rescored;
    }
  }
  stats_.score_ms = MsSince(mark);
  mark = std::chrono::steady_clock::now();

  // Phase one: combine clusters across near edges. Cached
  // buckets may name files that are no longer candidates; the slot lookup
  // filters them. On the fast path, a component whose near edges all
  // survived is replayed from its cached label (one trivial union per
  // member); a component that lost a near edge may have split, so every
  // member's bucket is rescanned — near edges never cross phase-one
  // component boundaries, so per-component re-derivation is complete.
  // Rescored buckets are always scanned to pick up brand-new edges.
  // Either way the final relation equals components(current edge set), so
  // the output matches a full scan exactly.
  Dsu dsu(n);
  std::vector<uint8_t> comp_dirty;  // by representative FileId
  if (fast_union) {
    comp_dirty.assign(comp_rep_.size(), 0);
    for (uint32_t slot = 0; slot < n; ++slot) {
      if (!edge_removed[slot]) {
        continue;
      }
      const FileId f = candidates[slot];
      if (f < comp_rep_.size() && comp_rep_[f] != kInvalidFileId) {
        comp_dirty[comp_rep_[f]] = 1;
      }
    }
  }
  for (uint32_t slot = 0; slot < n; ++slot) {
    const FileId f = candidates[slot];
    if (fast_union) {
      bool scan = rescore_[slot] != kKeepBucket;
      if (f < was_candidate_.size() && was_candidate_[f]) {
        const FileId rep = comp_rep_[f];
        if (rep != kInvalidFileId && comp_dirty[rep]) {
          scan = true;
        } else if (rep != f && rep < slot_of_.size() && slot_of_[rep] != kNoSlot) {
          dsu.Union(slot, slot_of_[rep]);
        }
      }
      if (!scan) {
        continue;
      }
    }
    const std::vector<FileId>& bucket = edge_cache_[f];
    const uint32_t nc = std::min<uint32_t>(near_count_[f], bucket.size());
    for (uint32_t i = 0; i < nc; ++i) {
      const FileId g = bucket[i];
      const uint32_t other = g < slot_of_.size() ? slot_of_[g] : kNoSlot;
      if (other != kNoSlot) {
        dsu.Union(slot, other);
      }
    }
  }

  // Materialise phase-one clusters, numbered by first-touched member so the
  // output order is independent of DSU root identity. The first member also
  // becomes the component's cached label for the next fast union.
  std::vector<uint32_t> root_to_cluster(n, kNoSlot);
  std::vector<uint32_t> cluster_of(n);
  std::vector<FileId> first_member;
  std::vector<std::vector<FileId>> members;
  if (comp_rep_.size() < max_file) {
    comp_rep_.resize(max_file, kInvalidFileId);
  }
  for (uint32_t slot = 0; slot < n; ++slot) {
    const uint32_t root = dsu.Find(slot);
    if (root_to_cluster[root] == kNoSlot) {
      root_to_cluster[root] = static_cast<uint32_t>(members.size());
      members.emplace_back();
      first_member.push_back(candidates[slot]);
    }
    const uint32_t cluster = root_to_cluster[root];
    members[cluster].push_back(candidates[slot]);
    cluster_of[slot] = cluster;
    comp_rep_[candidates[slot]] = first_member[cluster];
  }
  comp_valid_ = true;

  // Phase two: overlap clusters across far edges — each file joins the
  // other's phase-one cluster, with no merge. Clusters untouched here keep
  // their phase-one member lists, which are already sorted and unique
  // (slots are walked in order and candidates ascend), so only touched
  // clusters need the sort/dedup below.
  std::vector<uint8_t> cluster_touched(members.size(), 0);
  for (uint32_t slot = 0; slot < n; ++slot) {
    const FileId f = candidates[slot];
    if (!has_far_[f]) {
      continue;  // flag maintained with the bucket: skip the header load
    }
    const std::vector<FileId>& bucket = edge_cache_[f];
    const uint32_t nc = std::min<uint32_t>(near_count_[f], bucket.size());
    for (uint32_t i = nc; i < bucket.size(); ++i) {
      const FileId g = bucket[i];
      const uint32_t other = g < slot_of_.size() ? slot_of_[g] : kNoSlot;
      if (other == kNoSlot || cluster_of[slot] == cluster_of[other]) {
        continue;
      }
      members[cluster_of[other]].push_back(f);
      members[cluster_of[slot]].push_back(candidates[other]);
      cluster_touched[cluster_of[other]] = 1;
      cluster_touched[cluster_of[slot]] = 1;
    }
  }

  // Sort/dedup the touched clusters' members.
  for (uint32_t c = 0; c < cluster_touched.size(); ++c) {
    if (cluster_touched[c]) {
      std::vector<FileId>& m = members[c];
      std::sort(m.begin(), m.end());
      m.erase(std::unique(m.begin(), m.end()), m.end());
    }
  }

  // Identical clusters can only arise from far overlap (phase-one clusters
  // are disjoint), so only touched clusters need the duplicate check:
  // overlapping two singletons yields two identical clusters; keep one.
  ClusterSet out;
  out.clusters.reserve(members.size());
  std::set<std::vector<FileId>> emitted;
  for (uint32_t c = 0; c < members.size(); ++c) {
    std::vector<FileId>& m = members[c];
    if (cluster_touched[c] && !emitted.insert(m).second) {
      continue;
    }
    out.clusters.push_back(Cluster{std::move(m)});
  }

  // Membership identity hashes for the hoard plane's aggregate cache.
  // Members are sorted unique, so the fold is deterministic; computed here
  // where the members are already hot in cache.
  out.member_hash.resize(out.clusters.size());
  for (size_t ci = 0; ci < out.clusters.size(); ++ci) {
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const FileId id : out.clusters[ci].members) {
      uint64_t x = h ^ (static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ull);
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      h = x ^ (x >> 31);
    }
    out.member_hash[ci] = h;
  }

  // Membership as CSR: count, prefix-sum, fill. Clusters are walked in
  // ascending index order, so each file's index list comes out ascending.
  const size_t nf = slot_of_.size();
  out.membership_offset.assign(nf + 1, 0);
  for (const Cluster& c : out.clusters) {
    for (const FileId id : c.members) {
      ++out.membership_offset[id + 1];
    }
  }
  for (size_t i = 0; i < nf; ++i) {
    out.membership_offset[i + 1] += out.membership_offset[i];
  }
  out.membership_ids.resize(out.membership_offset[nf]);
  std::vector<uint32_t> cursor(out.membership_offset.begin(), out.membership_offset.end() - 1);
  for (size_t ci = 0; ci < out.clusters.size(); ++ci) {
    for (const FileId id : out.clusters[ci].members) {
      out.membership_ids[cursor[id]++] = static_cast<uint32_t>(ci);
    }
  }

  stats_.merge_ms = MsSince(mark);

  cache_valid_ = true;
  built_epoch_ = epoch_now;
  cached_candidates_ = candidates;
  was_candidate_.assign(slot_of_.size(), 0);
  for (const FileId f : candidates) {
    was_candidate_[f] = 1;
  }
  inv_dirty_.clear();
  inv_cleared_ = false;

  stats_.build_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return out;
}

}  // namespace seer
