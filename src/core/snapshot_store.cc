#include "src/core/snapshot_store.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "src/core/snapshot_codec.h"

namespace seer {

namespace {

constexpr char kSnapPrefix[] = "snap-";
constexpr char kDeltaPrefix[] = "delta-";
constexpr char kSnapSuffix[] = ".seersnap";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".seerwal";
constexpr char kTmpSuffix[] = ".tmp";

std::string GenerationName(const char* prefix, uint64_t generation, const char* suffix) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu", static_cast<unsigned long long>(generation));
  return std::string(prefix) + buf + suffix;
}

bool ParseGeneration(const std::string& name, const std::string& prefix,
                     const std::string& suffix, uint64_t* generation) {
  if (name.size() <= prefix.size() + suffix.size() || name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), *generation);
  return ec == std::errc() && ptr == digits.data() + digits.size();
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

SnapshotStore::SnapshotStore(Fs* fs, std::string dir, SnapshotStoreOptions options)
    : fs_(fs), dir_(std::move(dir)), options_(options) {
  if (options_.keep_generations < 2) {
    options_.keep_generations = 2;
  }
}

Status SnapshotStore::Open() { return fs_->MakeDirs(dir_); }

std::string SnapshotStore::SnapshotPath(uint64_t generation) const {
  return dir_ + "/" + GenerationName(kSnapPrefix, generation, kSnapSuffix);
}

std::string SnapshotStore::DeltaPath(uint64_t generation) const {
  return dir_ + "/" + GenerationName(kDeltaPrefix, generation, kSnapSuffix);
}

std::string SnapshotStore::WalPath(uint64_t generation) const {
  return dir_ + "/" + GenerationName(kWalPrefix, generation, kWalSuffix);
}

std::string SnapshotStore::SnapshotFilePath(const SnapshotFileInfo& info) const {
  return info.delta ? DeltaPath(info.generation) : SnapshotPath(info.generation);
}

StatusOr<std::vector<uint64_t>> SnapshotStore::ListByPattern(const std::string& prefix,
                                                             const std::string& suffix) const {
  SEER_ASSIGN_OR_RETURN(const std::vector<std::string> entries, fs_->ListDir(dir_));
  std::vector<uint64_t> generations;
  for (const std::string& name : entries) {
    uint64_t generation = 0;
    if (ParseGeneration(name, prefix, suffix, &generation)) {
      generations.push_back(generation);
    }
  }
  std::sort(generations.begin(), generations.end());
  return generations;
}

StatusOr<std::vector<uint64_t>> SnapshotStore::ListSnapshots() const {
  SEER_ASSIGN_OR_RETURN(const std::vector<SnapshotFileInfo> files, ListSnapshotFiles());
  std::vector<uint64_t> generations;
  generations.reserve(files.size());
  for (const SnapshotFileInfo& f : files) {
    generations.push_back(f.generation);
  }
  return generations;
}

StatusOr<std::vector<SnapshotStore::SnapshotFileInfo>> SnapshotStore::ListSnapshotFiles()
    const {
  SEER_ASSIGN_OR_RETURN(const std::vector<uint64_t> fulls,
                        ListByPattern(kSnapPrefix, kSnapSuffix));
  SEER_ASSIGN_OR_RETURN(const std::vector<uint64_t> deltas,
                        ListByPattern(kDeltaPrefix, kSnapSuffix));
  std::vector<SnapshotFileInfo> files;
  files.reserve(fulls.size() + deltas.size());
  for (const uint64_t g : fulls) {
    files.push_back({g, false});
  }
  for (const uint64_t g : deltas) {
    files.push_back({g, true});
  }
  std::sort(files.begin(), files.end(),
            [](const SnapshotFileInfo& a, const SnapshotFileInfo& b) {
              return a.generation < b.generation;
            });
  return files;
}

StatusOr<std::vector<uint64_t>> SnapshotStore::ListWals() const {
  return ListByPattern(kWalPrefix, kWalSuffix);
}

StatusOr<uint64_t> SnapshotStore::NextGeneration() const {
  SEER_ASSIGN_OR_RETURN(const std::vector<SnapshotFileInfo> files, ListSnapshotFiles());
  SEER_ASSIGN_OR_RETURN(const std::vector<uint64_t> wals, ListWals());
  uint64_t next = 1;
  if (!files.empty()) {
    next = std::max(next, files.back().generation + 1);
  }
  if (!wals.empty()) {
    next = std::max(next, wals.back() + 1);
  }
  return next;
}

Status SnapshotStore::LoadChain(const std::vector<SnapshotFileInfo>& files,
                                size_t head_index, std::vector<std::string>* bytes) const {
  // Walk back from the head to the nearest full snapshot.
  size_t first = head_index;
  while (files[first].delta) {
    if (first == 0) {
      return Status::DataLoss("delta without a base full snapshot: " +
                              SnapshotFilePath(files[head_index]));
    }
    --first;
  }
  bytes->clear();
  for (size_t k = first; k <= head_index; ++k) {
    SEER_ASSIGN_OR_RETURN(std::string b, fs_->ReadFile(SnapshotFilePath(files[k])));
    bytes->push_back(std::move(b));
  }
  // A delta applies over exactly the snapshot file preceding it; a missing
  // or foreign base makes the whole head unusable.
  for (size_t k = first + 1; k <= head_index; ++k) {
    const auto meta = ReadSnapshotMeta((*bytes)[k - first]);
    if (!meta.ok()) {
      return meta.status();
    }
    if (!meta->delta || meta->base_generation != files[k - 1].generation) {
      return Status::DataLoss("delta chain linkage broken at " +
                              SnapshotFilePath(files[k]));
    }
  }
  return Status::Ok();
}

StatusOr<SnapshotStore::RecoveryResult> SnapshotStore::Recover(
    const SeerParams& defaults) const {
  SEER_ASSIGN_OR_RETURN(const std::vector<SnapshotFileInfo> snapshots, ListSnapshotFiles());
  SEER_ASSIGN_OR_RETURN(const std::vector<uint64_t> wals, ListWals());

  RecoveryResult result;
  Status newest_error;  // why the newest discarded head failed

  // Newest head whose chain (nearest full + deltas) folds cleanly wins;
  // heads with torn or mislinked files are skipped.
  if (!snapshots.empty()) {
    for (size_t h = snapshots.size(); h-- > 0;) {
      std::vector<std::string> chain_bytes;
      Status failure = LoadChain(snapshots, h, &chain_bytes);
      if (failure.ok()) {
        const std::vector<std::string_view> views(chain_bytes.begin(), chain_bytes.end());
        auto decoded = DecodeSnapshotChain(views);
        if (decoded.ok()) {
          result.correlator = *std::move(decoded);
          result.generation = snapshots[h].generation;
          break;
        }
        failure = decoded.status();
      }
      ++result.snapshots_discarded;
      if (newest_error.ok()) {
        newest_error = std::move(failure);
      }
    }
  }
  if (result.correlator == nullptr) {
    if (!snapshots.empty()) {
      return Status::DataLoss("every snapshot in " + dir_ + " is damaged (newest: " +
                              newest_error.message() + ")");
    }
    if (!wals.empty()) {
      // A WAL is only created after its snapshot is durable, so WALs with
      // no snapshot at all mean the snapshots were deleted out from under
      // us — replaying them against a fresh correlator would fabricate
      // state we never held.
      return Status::DataLoss("wal files without any snapshot in " + dir_);
    }
    result.correlator = std::make_unique<Correlator>(defaults);
    result.fresh = true;
    return result;
  }

  // Replay the retained chain: wal-G, wal-G+1, ... in order, stopping at
  // the first gap or damaged record. Records in wal-K for K < the loaded
  // generation are already baked into the snapshot.
  uint64_t expected = result.generation;
  for (const uint64_t generation : wals) {
    if (generation < result.generation) {
      continue;
    }
    if (generation != expected) {
      break;  // gap — later logs assume the missing one was applied
    }
    const auto bytes = fs_->ReadFile(WalPath(generation));
    if (!bytes.ok()) {
      break;
    }
    const auto stats = ReplayWal(*bytes, result.correlator.get());
    if (!stats.ok()) {
      // Unusable header: the crash hit WAL creation itself. Nothing from
      // this log was applied; the state is the previous durable point.
      result.torn_wal_tail = true;
      break;
    }
    if (stats->generation != generation) {
      result.torn_wal_tail = true;
      break;
    }
    ++result.wals_replayed;
    result.wal_records_replayed += stats->records_applied;
    if (stats->tail != WalReplayStats::Tail::kClean) {
      result.torn_wal_tail = true;
      break;
    }
    ++expected;
  }
  return result;
}

Status SnapshotStore::WriteSnapshot(const Correlator& correlator, uint64_t generation) {
  return WriteSnapshotBytes(correlator.EncodeSnapshot(), generation, /*delta=*/false);
}

Status SnapshotStore::WriteSnapshotBytes(std::string_view bytes, uint64_t generation,
                                         bool delta) {
  if (fs_->Exists(SnapshotPath(generation)) || fs_->Exists(DeltaPath(generation))) {
    return Status::AlreadyExists("snapshot already exists: " +
                                 (delta ? DeltaPath(generation) : SnapshotPath(generation)));
  }
  const std::string path = delta ? DeltaPath(generation) : SnapshotPath(generation);
  const std::string tmp = path + kTmpSuffix;
  // temp + fsync + rename + dir fsync: the target name only ever points at
  // complete, durable bytes.
  SEER_RETURN_IF_ERROR(fs_->WriteFile(tmp, bytes));
  SEER_RETURN_IF_ERROR(fs_->SyncFile(tmp));
  SEER_RETURN_IF_ERROR(fs_->RenameFile(tmp, path));
  return fs_->SyncDir(dir_);
}

StatusOr<std::unique_ptr<WalWriter>> SnapshotStore::CreateWal(uint64_t generation) {
  auto wal =
      std::make_unique<WalWriter>(fs_, WalPath(generation), generation, options_.wal_flush_bytes);
  SEER_RETURN_IF_ERROR(wal->Create());
  SEER_RETURN_IF_ERROR(fs_->SyncFile(WalPath(generation)));
  SEER_RETURN_IF_ERROR(fs_->SyncDir(dir_));
  return wal;
}

StatusOr<SnapshotStore::CheckpointResult> SnapshotStore::Checkpoint(const Correlator& correlator) {
  SEER_ASSIGN_OR_RETURN(const uint64_t next, NextGeneration());
  SEER_RETURN_IF_ERROR(WriteSnapshot(correlator, next));

  CheckpointResult result;
  result.generation = next;
  SEER_ASSIGN_OR_RETURN(result.wal, CreateWal(next));
  SEER_RETURN_IF_ERROR(Prune());
  return result;
}

Status SnapshotStore::Prune() {
  SEER_ASSIGN_OR_RETURN(const std::vector<SnapshotFileInfo> files, ListSnapshotFiles());
  // The cutoff is the keep_generations-th newest FULL generation: deltas and
  // WALs below it are dead (their chains hang off pruned fulls), everything
  // at or above it stays, keeping every retained chain whole.
  std::vector<uint64_t> fulls;
  for (const SnapshotFileInfo& f : files) {
    if (!f.delta) {
      fulls.push_back(f.generation);
    }
  }
  uint64_t oldest_kept = 0;
  if (fulls.size() > options_.keep_generations) {
    oldest_kept = fulls[fulls.size() - options_.keep_generations];
  } else if (!fulls.empty()) {
    oldest_kept = fulls.front();
  }
  for (const SnapshotFileInfo& f : files) {
    if (f.generation < oldest_kept) {
      SEER_RETURN_IF_ERROR(fs_->RemoveFile(SnapshotFilePath(f)));
    }
  }

  SEER_ASSIGN_OR_RETURN(const std::vector<uint64_t> wals, ListWals());
  for (const uint64_t generation : wals) {
    if (generation < oldest_kept) {
      SEER_RETURN_IF_ERROR(fs_->RemoveFile(WalPath(generation)));
    }
  }

  // Stray temp files are dead by construction (rename is the commit).
  SEER_ASSIGN_OR_RETURN(const std::vector<std::string> entries, fs_->ListDir(dir_));
  for (const std::string& name : entries) {
    if (EndsWith(name, kTmpSuffix)) {
      SEER_RETURN_IF_ERROR(fs_->RemoveFile(dir_ + "/" + name));
    }
  }
  return Status::Ok();
}

StatusOr<SnapshotStore::StoreInfo> SnapshotStore::GetInfo() const {
  SEER_ASSIGN_OR_RETURN(const std::vector<SnapshotFileInfo> snapshots, ListSnapshotFiles());
  SEER_ASSIGN_OR_RETURN(const std::vector<uint64_t> wals, ListWals());

  std::vector<uint64_t> all;
  all.reserve(snapshots.size() + wals.size());
  for (const SnapshotFileInfo& f : snapshots) {
    all.push_back(f.generation);
  }
  all.insert(all.end(), wals.begin(), wals.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());

  StoreInfo info;
  for (const uint64_t generation : all) {
    GenerationInfo gen_info;
    gen_info.generation = generation;
    const auto snap_it =
        std::find_if(snapshots.begin(), snapshots.end(), [generation](const SnapshotFileInfo& f) {
          return f.generation == generation;
        });
    if (snap_it != snapshots.end()) {
      gen_info.has_snapshot = true;
      gen_info.is_delta = snap_it->delta;
      const auto bytes = fs_->ReadFile(SnapshotFilePath(*snap_it));
      if (bytes.ok()) {
        gen_info.snapshot_bytes = bytes->size();
        // A delta is not independently decodable; section CRCs are the
        // per-file health check. Chain health is Verify's job.
        gen_info.snapshot_ok = snap_it->delta ? VerifySnapshotSections(*bytes).ok()
                                              : Correlator::DecodeSnapshot(*bytes).ok();
      }
    }
    if (std::binary_search(wals.begin(), wals.end(), generation)) {
      gen_info.has_wal = true;
      const auto bytes = fs_->ReadFile(WalPath(generation));
      if (bytes.ok()) {
        gen_info.wal_bytes = bytes->size();
        const auto stats = ReplayWal(*bytes, nullptr);
        if (stats.ok()) {
          gen_info.wal_records = stats->records_applied;
          gen_info.wal_tail = stats->tail;
        } else {
          gen_info.wal_tail = WalReplayStats::Tail::kCorrupt;
        }
      }
    }
    info.generations.push_back(gen_info);
  }
  return info;
}

Status SnapshotStore::Verify(bool deep) const {
  SEER_ASSIGN_OR_RETURN(const std::vector<SnapshotFileInfo> snapshots, ListSnapshotFiles());
  SEER_ASSIGN_OR_RETURN(const std::vector<uint64_t> wals, ListWals());
  if (snapshots.empty() && wals.empty()) {
    return Status::Ok();  // an empty store recovers to an empty correlator
  }
  if (snapshots.empty()) {
    return Status::DataLoss("wal files without any snapshot in " + dir_);
  }

  // The newest chain must itself be good — fallback is for crash recovery,
  // a store whose newest head is torn is not healthy. Per-section CRC
  // checks run first so the error names the damaged section.
  const uint64_t newest = snapshots.back().generation;
  {
    std::vector<std::string> chain_bytes;
    SEER_RETURN_IF_ERROR(LoadChain(snapshots, snapshots.size() - 1, &chain_bytes));
    for (size_t k = 0; k < chain_bytes.size(); ++k) {
      const Status sections = VerifySnapshotSections(chain_bytes[k]);
      if (!sections.ok()) {
        const size_t first = snapshots.size() - chain_bytes.size();
        return Status::DataLoss("newest snapshot chain damaged: " +
                                SnapshotFilePath(snapshots[first + k]) + ": " +
                                sections.message());
      }
    }
    const std::vector<std::string_view> views(chain_bytes.begin(), chain_bytes.end());
    const auto decoded = DecodeSnapshotChain(views);
    if (!decoded.ok()) {
      return Status::DataLoss("newest snapshot chain damaged: " + decoded.status().message());
    }
  }

  if (deep) {
    // Every snapshot file, not just the chain recovery would use: section
    // CRCs for all, a full decode for fulls, META linkage for deltas.
    for (size_t i = 0; i < snapshots.size(); ++i) {
      const std::string path = SnapshotFilePath(snapshots[i]);
      SEER_ASSIGN_OR_RETURN(const std::string bytes, fs_->ReadFile(path));
      const Status sections = VerifySnapshotSections(bytes);
      if (!sections.ok()) {
        return Status::DataLoss(path + ": " + sections.message());
      }
      if (!snapshots[i].delta) {
        const auto decoded = Correlator::DecodeSnapshot(bytes);
        if (!decoded.ok()) {
          return Status::DataLoss(path + ": " + decoded.status().message());
        }
        continue;
      }
      const auto meta = ReadSnapshotMeta(bytes);
      if (!meta.ok()) {
        return Status::DataLoss(path + ": " + meta.status().message());
      }
      if (i == 0 || !meta->delta || meta->base_generation != snapshots[i - 1].generation) {
        return Status::DataLoss("delta chain linkage broken at " + path);
      }
    }
  }

  // Chain WALs: contiguous from the newest generation; every log but the
  // last must be clean (it was synced before the next snapshot), the last
  // may at worst have a torn tail.
  std::vector<uint64_t> chain;
  for (const uint64_t generation : wals) {
    if (generation >= newest) {
      chain.push_back(generation);
    }
  }
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i] != newest + i) {
      return Status::DataLoss("wal chain has a gap at generation " +
                              std::to_string(newest + i));
    }
    const bool last = i + 1 == chain.size();
    SEER_ASSIGN_OR_RETURN(const std::string bytes, fs_->ReadFile(WalPath(chain[i])));
    const auto stats = ReplayWal(bytes, nullptr);
    if (!stats.ok()) {
      if (last) {
        continue;  // torn during creation — the expected crash artifact
      }
      return Status::DataLoss("mid-chain wal unreadable: " + stats.status().message());
    }
    if (stats->generation != chain[i]) {
      return Status::DataLoss("wal header generation mismatch in " + WalPath(chain[i]));
    }
    if (stats->tail == WalReplayStats::Tail::kCorrupt) {
      return Status::DataLoss("wal corrupt: " + stats->corruption);
    }
    if (!last && stats->tail != WalReplayStats::Tail::kClean) {
      return Status::DataLoss("mid-chain wal has a torn tail: " + WalPath(chain[i]));
    }
  }
  return Status::Ok();
}

std::string SnapshotStore::TenantDirectory(const std::string& root, TenantId tenant) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tenant-%08u", tenant);
  return root + "/" + buf;
}

StatusOr<std::vector<TenantId>> SnapshotStore::ListTenants(Fs* fs, const std::string& root) {
  std::vector<TenantId> tenants;
  if (!fs->Exists(root)) {
    return tenants;
  }
  SEER_ASSIGN_OR_RETURN(const std::vector<std::string> names, fs->ListDir(root));
  constexpr char kPrefix[] = "tenant-";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  for (const std::string& name : names) {
    // TenantDirectory prints %08u: exactly 8 digits zero-padded below 1e8,
    // 9-10 digits above. Accept the whole uint32 id range back.
    if (name.size() < kPrefixLen + 8 || name.size() > kPrefixLen + 10 ||
        name.compare(0, kPrefixLen, kPrefix) != 0) {
      continue;
    }
    uint32_t id = 0;
    const char* begin = name.data() + kPrefixLen;
    const auto [ptr, ec] = std::from_chars(begin, name.data() + name.size(), id);
    if (ec != std::errc() || ptr != name.data() + name.size()) {
      continue;
    }
    tenants.push_back(id);
  }
  std::sort(tenants.begin(), tenants.end());
  return tenants;
}

}  // namespace seer
