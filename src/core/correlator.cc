#include "src/core/correlator.h"

#include <chrono>

namespace seer {

namespace {

inline uint64_t MicrosSince(std::chrono::steady_clock::time_point from) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - from)
                                   .count());
}

}  // namespace

Correlator::Correlator(const SeerParams& params, uint64_t seed)
    : params_(params),
      relations_(params, &files_, seed),
      streams_(params),
      clusters_(params, &files_, &relations_) {
  scratch_obs_.reserve(256);
}

void Correlator::OnReference(const FileReference& ref) {
  ++references_processed_;
  const FileId id = files_.Intern(ref.path);
  if (id == kInvalidFileId) {
    return;
  }
  files_.RecordReference(id, ref.time, ++global_ref_seq_);

  scratch_obs_.clear();
  switch (ref.kind) {
    case RefKind::kBegin:
      streams_.OnBegin(ref.pid, id, ref.time, &scratch_obs_);
      break;
    case RefKind::kEnd:
      streams_.OnEnd(ref.pid, id);
      return;
    case RefKind::kPoint:
      streams_.OnPoint(ref.pid, id, ref.time, &scratch_obs_);
      break;
  }
  for (const DistanceObservation& obs : scratch_obs_) {
    const FileRecord& from = files_.Get(obs.from);
    if (from.deleted || from.excluded) {
      continue;
    }
    relations_.Observe(obs.from, obs.to, obs.distance);
  }
}

void Correlator::OverrideTuningParams(const SeerParams& params) {
  SeerParams effective = params;
  effective.max_neighbors = params_.max_neighbors;  // slab geometry is baked
  params_ = effective;
  relations_.OverrideParams(effective);
  streams_.OverrideParams(effective);
  clusters_.OverrideParams(effective);
}

void Correlator::IngestBatch(const IngestEvent* events, size_t count) {
  const auto start = std::chrono::steady_clock::now();
  ++ingest_stats_.batches;
  for (size_t i = 0; i < count; ++i) {
    const IngestEvent& e = events[i];
    if (e.kind == IngestEvent::Kind::kReference) {
      ++ingest_stats_.refs;
    } else {
      ++ingest_stats_.barriers;
    }
    switch (e.kind) {
      case IngestEvent::Kind::kReference:
        OnReference(e.ref);
        break;
      case IngestEvent::Kind::kFork:
        OnProcessFork(e.parent, e.child);
        break;
      case IngestEvent::Kind::kExit:
        OnProcessExit(e.child);
        break;
      case IngestEvent::Kind::kDeleted:
        OnFileDeleted(e.path, e.time);
        break;
      case IngestEvent::Kind::kRenamed:
        OnFileRenamed(e.path, e.path2, e.time);
        break;
      case IngestEvent::Kind::kExcluded:
        OnFileExcluded(e.path);
        break;
    }
  }
  ingest_stats_.fold_us += MicrosSince(start);
}

void Correlator::OnProcessFork(Pid parent, Pid child) { streams_.OnFork(parent, child); }

void Correlator::OnProcessExit(Pid pid) { streams_.OnExit(pid); }

template <typename Flip>
void Correlator::FlipFiles(std::initializer_list<FileId> ids, Flip flip) {
  flip();
  for (const FileId id : ids) {
    if (id != kInvalidFileId) {
      relations_.MarkSetChanged(id);
    }
  }
}

void Correlator::OnFileDeleted(PathId path, Time /*time*/) {
  const FileId id = files_.Find(path);
  if (id == kInvalidFileId) {
    return;
  }
  // Deletion is soft; relationship data survives for a grace period in
  // case the name is immediately reused (Section 4.8). Entries whose grace
  // period has now expired are purged for real. The mark flips liveness
  // without touching any relation list: every list naming this file just
  // lost a live member.
  FlipFiles({id}, [&] {
    for (const FileId expired : files_.MarkDeleted(id, params_.delete_delay)) {
      relations_.Purge(expired);
    }
  });
}

void Correlator::OnFileRenamed(PathId from, PathId to, Time /*time*/) {
  const FileId id = files_.Find(from);
  if (id == kInvalidFileId) {
    // Renaming a file we never saw: just intern the new name.
    files_.Intern(to);
    return;
  }
  const FileId replaced = files_.Find(to);
  // The pathname feeds directory distance; a replaced target record flips
  // liveness. Both dirty the file and every list naming it.
  FlipFiles({id, replaced != id ? replaced : kInvalidFileId},
            [&] { files_.RenameFile(id, to); });
}

void Correlator::OnFileExcluded(PathId path) {
  const FileId id = files_.Find(path);
  if (id == kInvalidFileId) {
    return;
  }
  FlipFiles({id}, [&] { files_.MarkExcluded(id); });
  relations_.Purge(id);
}

void Correlator::AddInvestigator(std::unique_ptr<Investigator> investigator) {
  investigators_.push_back(std::move(investigator));
}

void Correlator::AddInvestigatedRelation(const InvestigatedRelation& relation) {
  std::vector<FileId> ids;
  ids.reserve(relation.files.size());
  for (const auto& path : relation.files) {
    ids.push_back(files_.Intern(GlobalPaths().Intern(path)));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      clusters_.AddInvestigatedPair(ids[i], ids[j], relation.strength);
    }
  }
}

void Correlator::RunInvestigators(const SimFilesystem& fs) {
  if (investigators_.empty()) {
    return;
  }
  std::vector<std::string> candidates;
  for (const FileId id : files_.LiveIds()) {
    candidates.emplace_back(files_.PathOf(id));
  }
  clusters_.ClearInvestigatedPairs();
  for (const auto& inv : investigators_) {
    for (const auto& relation : inv->Investigate(fs, candidates)) {
      AddInvestigatedRelation(relation);
    }
  }
}

ClusterSet Correlator::BuildClusters() const { return clusters_.Build(files_.LiveIds()); }

double Correlator::Distance(const std::string& from, const std::string& to) const {
  const FileId a = files_.FindPath(from);
  const FileId b = files_.FindPath(to);
  if (a == kInvalidFileId || b == kInvalidFileId) {
    return -1.0;
  }
  return relations_.DistanceOrNegative(a, b);
}

std::vector<std::string> Correlator::NeighborPaths(const std::string& path) const {
  std::vector<std::string> out;
  const FileId id = files_.FindPath(path);
  if (id == kInvalidFileId) {
    return out;
  }
  std::vector<FileId> ids;
  ids.reserve(relations_.max_neighbors());
  relations_.LiveNeighborIds(id, &ids);
  for (const FileId nb : ids) {
    out.emplace_back(files_.PathOf(nb));
  }
  return out;
}

size_t Correlator::MemoryBytes() const {
  size_t bytes = relations_.MemoryBytes() + streams_.MemoryBytes();
  for (FileId id = 0; id < files_.size(); ++id) {
    bytes += sizeof(FileRecord) + files_.PathOf(id).size();
  }
  return bytes;
}

}  // namespace seer
