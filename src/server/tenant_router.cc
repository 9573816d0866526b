#include "src/server/tenant_router.h"

#include <algorithm>
#include <utility>

#include "src/core/params_io.h"
#include "src/server/tenant_aux_io.h"

namespace seer {

TenantRouter::TenantRouter(Fs* fs, std::string root, TenantRouterConfig config)
    : fs_(fs), root_(std::move(root)), config_(config) {}

TenantRouter::~TenantRouter() {
  const Status status = Shutdown();
  if (last_error_.ok() && !status.ok()) {
    last_error_ = status;
  }
}

TenantRouter::Tenant* TenantRouter::FindTenant(TenantId tenant) {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

const TenantRouter::Tenant* TenantRouter::FindTenant(TenantId tenant) const {
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : &it->second;
}

Time TenantRouter::StaggerPhase(TenantId tenant) const {
  const size_t slots = std::max<size_t>(1, config_.stagger_slots);
  return static_cast<Time>(tenant % slots) * (config_.checkpoint_interval / static_cast<Time>(slots));
}

ReferenceSink* TenantRouter::SinkFor(TenantId tenant) {
  auto [it, inserted] = tenants_.try_emplace(tenant);
  Tenant& t = it->second;
  if (inserted) {
    t.id = tenant;
    t.manager.set_budget_bytes(config_.hoard_budget_bytes);
    t.scoped = std::make_unique<TenantScopedSink>(
        tenant, [this](TenantId id) { return Route(id); });
  }
  return t.scoped.get();
}

StatusOr<Correlator*> TenantRouter::CorrelatorFor(TenantId tenant) {
  SinkFor(tenant);  // ensure the tenant exists
  Tenant* t = ResidentTenant(tenant);
  if (t == nullptr) {
    return last_error_;
  }
  return &t->durable->correlator();
}

ReferenceSink* TenantRouter::Route(TenantId tenant) {
  Tenant* t = ResidentTenant(tenant);
  if (t == nullptr) {
    return nullptr;
  }
  t->last_touch_seq.store(touch_seq_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  return t->durable.get();
}

TenantRouter::Tenant* TenantRouter::ResidentTenant(TenantId tenant) {
  if (tenant == kInvalidTenantId) {
    // Never materialise a store for the sentinel id — a directory named
    // after it would shadow a real tenant's namespace and confuse every
    // admin surface.
    if (last_error_.ok()) {
      last_error_ = Status::InvalidArgument("invalid tenant id " + std::to_string(tenant));
    }
    return nullptr;
  }
  SinkFor(tenant);
  Tenant* t = FindTenant(tenant);
  if (t->durable == nullptr) {
    const Status restored = Restore(t);
    if (!restored.ok()) {
      if (last_error_.ok()) {
        last_error_ = restored;
      }
      return nullptr;
    }
  }
  return t;
}

Status TenantRouter::EnsureAuxLoaded(Tenant* t) {
  // Loaded once per router lifetime — after that the in-memory copies
  // survive eviction and are strictly newer than disk.
  if (t->aux_loaded) {
    return Status::Ok();
  }
  SEER_ASSIGN_OR_RETURN(TenantAuxState aux,
                        LoadTenantAux(fs_, SnapshotStore::TenantDirectory(root_, t->id)));
  if (!aux.empty()) {
    for (const PathId pin : aux.pins) {
      t->manager.Pin(pin);
    }
    t->miss_log.RestoreState(std::move(aux.miss_records), std::move(aux.pending_hoard));
  }
  t->aux_loaded = true;
  return Status::Ok();
}

Status TenantRouter::Restore(Tenant* t) {
  const std::string dir = SnapshotStore::TenantDirectory(root_, t->id);
  // Recover the aux section (pins, miss log, pending hoards) before the
  // store opens: a malformed aux file must fail while the tenant is still
  // cleanly evicted.
  SEER_RETURN_IF_ERROR(EnsureAuxLoaded(t));
  // Per-tenant params override, layered over the fleet defaults. A fresh
  // store seeds from it directly; a recovered snapshot's own PRMS section
  // wins inside Open, so the override is re-applied afterwards
  // (max_neighbors stays pinned to the slab geometry either way).
  SeerParams effective = config_.defaults;
  bool overridden = false;
  const std::string params_path = ParamsPath(t->id);
  if (fs_->Exists(params_path)) {
    SEER_ASSIGN_OR_RETURN(const std::string text, fs_->ReadFile(params_path));
    SEER_ASSIGN_OR_RETURN(effective, ParseSeerParams(text, config_.defaults));
    overridden = true;
  }
  SEER_ASSIGN_OR_RETURN(t->durable, DurableCorrelator::Open(fs_, dir, effective,
                                                            config_.store_options));
  if (overridden) {
    t->durable->correlator().OverrideTuningParams(effective);
  }
  // The router's scheduler owns checkpoint cadence, so the daemon gets no
  // durable handle: its job here is purely the refill recipe.
  HoardDaemonConfig daemon_config;
  daemon_config.interval = config_.hoard_interval;
  t->daemon = std::make_unique<HoardDaemon>(
      &t->durable->correlator(), /*observer=*/nullptr, &t->manager, &t->miss_log,
      /*install=*/nullptr, config_.size_of, daemon_config);
  if (t->restores > 0 || t->evictions > 0) {
    ++restores_;
    ++t->restores;
  } else {
    // First materialisation counts as neither a restore nor an eviction.
    t->restores = 1;
  }
  t->next_checkpoint_due = StaggerPhase(t->id);
  t->checkpoint_inflight = false;
  t->durable_generation = t->durable->generation();
  t->last_files = t->durable->correlator().files().size();
  return Status::Ok();
}

std::string TenantRouter::ParamsPath(TenantId tenant) const {
  return SnapshotStore::TenantDirectory(root_, tenant) + "/params.seer";
}

Status TenantRouter::PersistTenantMeta(Tenant* t) {
  t->durable_generation = t->durable->generation();
  t->last_files = t->durable->correlator().files().size();
  return WriteTenantAux(fs_, SnapshotStore::TenantDirectory(root_, t->id), t->manager,
                        t->miss_log);
}

Status TenantRouter::SetTenantParams(TenantId tenant, const std::string& text) {
  if (tenant == kInvalidTenantId) {
    return Status::InvalidArgument("invalid tenant id " + std::to_string(tenant));
  }
  // Validate before touching disk: a bad directive must not leave a
  // half-written override behind.
  SEER_ASSIGN_OR_RETURN(const SeerParams effective, ParseSeerParams(text, config_.defaults));
  SinkFor(tenant);  // materialise the tenant entry
  const std::string dir = SnapshotStore::TenantDirectory(root_, tenant);
  SEER_RETURN_IF_ERROR(fs_->MakeDirs(dir));
  const std::string path = ParamsPath(tenant);
  const std::string tmp = path + ".tmp";
  SEER_RETURN_IF_ERROR(fs_->WriteFile(tmp, text));
  SEER_RETURN_IF_ERROR(fs_->SyncFile(tmp));
  SEER_RETURN_IF_ERROR(fs_->RenameFile(tmp, path));
  SEER_RETURN_IF_ERROR(fs_->SyncDir(dir));
  Tenant* t = FindTenant(tenant);
  if (t != nullptr && t->durable != nullptr) {
    t->durable->correlator().OverrideTuningParams(effective);
  }
  return Status::Ok();
}

StatusOr<std::string> TenantRouter::GetTenantParams(TenantId tenant) const {
  const Tenant* t = FindTenant(tenant);
  if (t != nullptr && t->durable != nullptr) {
    return FormatSeerParams(t->durable->correlator().params());
  }
  const std::string path = ParamsPath(tenant);
  SeerParams effective = config_.defaults;
  if (fs_->Exists(path)) {
    SEER_ASSIGN_OR_RETURN(const std::string text, fs_->ReadFile(path));
    SEER_ASSIGN_OR_RETURN(effective, ParseSeerParams(text, config_.defaults));
  } else if (t == nullptr && !fs_->Exists(SnapshotStore::TenantDirectory(root_, tenant))) {
    // A tenant with a store on disk but no params.seer runs the defaults,
    // whether or not this router has registered it yet.
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  return FormatSeerParams(effective);
}

HoardManager* TenantRouter::HoardFor(TenantId tenant) {
  if (tenant == kInvalidTenantId) {
    return nullptr;
  }
  SinkFor(tenant);
  Tenant* t = FindTenant(tenant);
  // The pin set must reflect persisted state even while the tenant is
  // evicted (no Restore has run yet on this router).
  const Status loaded = EnsureAuxLoaded(t);
  if (!loaded.ok() && last_error_.ok()) {
    last_error_ = loaded;
  }
  return &t->manager;
}

MissLog* TenantRouter::MissLogFor(TenantId tenant) {
  if (tenant == kInvalidTenantId) {
    return nullptr;
  }
  SinkFor(tenant);
  Tenant* t = FindTenant(tenant);
  const Status loaded = EnsureAuxLoaded(t);
  if (!loaded.ok() && last_error_.ok()) {
    last_error_ = loaded;
  }
  return &t->miss_log;
}

void TenantRouter::RecordSealStall(uint64_t micros) {
  if (seal_stalls_.size() < kSealStallWindow) {
    seal_stalls_.push_back(micros);
    return;
  }
  seal_stalls_[seal_stall_next_] = micros;
  seal_stall_next_ = (seal_stall_next_ + 1) % kSealStallWindow;
}

void TenantRouter::HarvestCheckpoint(Tenant* t) {
  const Status finished = t->durable->FinishCheckpoint();
  t->checkpoint_inflight = false;
  if (inflight_ > 0) {
    --inflight_;
  }
  if (!finished.ok()) {
    if (last_error_.ok()) {
      last_error_ = finished;
    }
    return;
  }
  ++checkpoints_harvested_;
  ++t->checkpoints;
  RecordSealStall(t->durable->last_checkpoint_stats().seal_micros);
  const Status persisted = PersistTenantMeta(t);
  if (last_error_.ok() && !persisted.ok()) {
    last_error_ = persisted;
  }
}

Status TenantRouter::SettleCheckpoint(Tenant* t) {
  if (!t->checkpoint_inflight) {
    return Status::Ok();
  }
  const Status finished = t->durable->FinishCheckpoint();
  t->checkpoint_inflight = false;
  if (inflight_ > 0) {
    --inflight_;
  }
  if (finished.ok()) {
    ++checkpoints_harvested_;
    ++t->checkpoints;
    RecordSealStall(t->durable->last_checkpoint_stats().seal_micros);
    return PersistTenantMeta(t);
  }
  return finished;
}

Status TenantRouter::CheckpointTenant(TenantId tenant) {
  Tenant* t = ResidentTenant(tenant);
  if (t == nullptr) {
    return last_error_;
  }
  SEER_RETURN_IF_ERROR(SettleCheckpoint(t));
  SEER_RETURN_IF_ERROR(t->durable->Checkpoint());
  ++checkpoints_started_;
  ++checkpoints_harvested_;
  ++t->checkpoints;
  RecordSealStall(t->durable->last_checkpoint_stats().seal_micros);
  return PersistTenantMeta(t);
}

Status TenantRouter::EvictLocked(Tenant* t) {
  // Settle, then fold the WAL into a final snapshot so the next restore
  // decodes one chain and replays nothing.
  SEER_RETURN_IF_ERROR(SettleCheckpoint(t));
  SEER_RETURN_IF_ERROR(t->durable->Checkpoint());
  ++checkpoints_started_;
  ++checkpoints_harvested_;
  ++t->checkpoints;
  SEER_RETURN_IF_ERROR(PersistTenantMeta(t));
  t->daemon.reset();
  t->durable.reset();
  t->memory_bytes = 0;
  ++evictions_;
  ++t->evictions;
  return Status::Ok();
}

Status TenantRouter::EvictTenant(TenantId tenant) {
  Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  if (t->durable == nullptr) {
    return Status::Ok();
  }
  const Status status = EvictLocked(t);
  RefreshResidentBytes();
  return status;
}

void TenantRouter::RefreshResidentBytes() {
  uint64_t total = 0;
  for (auto& [id, t] : tenants_) {
    (void)id;
    if (t.durable == nullptr) {
      continue;
    }
    t.memory_bytes = t.durable->correlator().MemoryBytes();
    t.durable_generation = t.durable->generation();
    t.last_files = t.durable->correlator().files().size();
    total += t.memory_bytes;
  }
  resident_bytes_ = total;
}

Status TenantRouter::Tick(Time now) {
  Status first_error;
  const auto latch = [&first_error](const Status& status) {
    if (first_error.ok() && !status.ok()) {
      first_error = status;
    }
  };

  // 1. Harvest checkpoints that finished since the last tick — frees
  //    inflight slots before the start pass below.
  for (auto& [id, t] : tenants_) {
    (void)id;
    if (t.checkpoint_inflight && t.durable->CheckpointDone()) {
      HarvestCheckpoint(&t);
    }
  }

  // 2. Start due checkpoints, most overdue first, within the budget.
  std::vector<Tenant*> due;
  for (auto& [id, t] : tenants_) {
    (void)id;
    if (t.durable == nullptr || t.checkpoint_inflight) {
      continue;
    }
    if (now >= t.next_checkpoint_due ||
        t.durable->wal_bytes() >= config_.wal_checkpoint_bytes) {
      due.push_back(&t);
    }
  }
  std::sort(due.begin(), due.end(), [](const Tenant* a, const Tenant* b) {
    return a->next_checkpoint_due != b->next_checkpoint_due
               ? a->next_checkpoint_due < b->next_checkpoint_due
               : a->id < b->id;
  });
  for (Tenant* t : due) {
    if (inflight_ >= config_.max_checkpoints_inflight) {
      break;
    }
    const Status begun = t->durable->BeginCheckpoint();
    latch(begun);
    if (t->durable->checkpoint_in_flight()) {
      t->checkpoint_inflight = true;
      ++inflight_;
      ++checkpoints_started_;
    }
    t->next_checkpoint_due = now + config_.checkpoint_interval;
  }

  // 3. Due hoard refills (bounded per tick; the selection runs inline).
  if (config_.hoard_budget_bytes > 0) {
    size_t refilled = 0;
    for (auto& [id, t] : tenants_) {
      (void)id;
      if (refilled >= config_.max_refills_per_tick) {
        break;
      }
      if (t.durable == nullptr || t.daemon == nullptr) {
        continue;
      }
      if (t.last_refill >= 0 && now - t.last_refill < config_.hoard_interval) {
        continue;
      }
      const auto refill_start = std::chrono::steady_clock::now();
      t.daemon->ForceRefill(now);
      t.last_refill_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - refill_start)
              .count());
      t.refill_us_total += t.last_refill_us;
      t.last_refill = now;
      ++t.refills;
      ++refilled;
    }
  }

  // 4. Eviction pass: recompute residency, then release the coldest
  //    tenants until both budgets hold. Tenants with a checkpoint in
  //    flight are skipped this round (the next tick gets them).
  RefreshResidentBytes();
  const bool bounded = config_.max_resident_bytes > 0 || config_.max_resident_tenants > 0;
  if (bounded) {
    while (true) {
      const size_t residents = resident_tenants();
      const bool over_bytes =
          config_.max_resident_bytes > 0 && resident_bytes_ > config_.max_resident_bytes;
      const bool over_count =
          config_.max_resident_tenants > 0 && residents > config_.max_resident_tenants;
      if (!over_bytes && !over_count) {
        break;
      }
      Tenant* coldest = nullptr;
      for (auto& [id, t] : tenants_) {
        (void)id;
        if (t.durable == nullptr || t.checkpoint_inflight) {
          continue;
        }
        if (coldest == nullptr || t.last_touch_seq.load(std::memory_order_relaxed) <
                                      coldest->last_touch_seq.load(std::memory_order_relaxed)) {
          coldest = &t;
        }
      }
      if (coldest == nullptr) {
        break;  // everything evictable is checkpointing; next tick
      }
      const uint64_t freed = coldest->memory_bytes;
      const Status evicted = EvictLocked(coldest);
      latch(evicted);
      if (!evicted.ok()) {
        // A failed eviction (e.g. the folding checkpoint hit a full disk)
        // leaves the tenant resident with its LRU clock unchanged, so
        // retrying within this pass would re-select the same victim
        // forever. Give up for this tick; the next one retries.
        break;
      }
      resident_bytes_ -= std::min(resident_bytes_, freed);
    }
  }
  return first_error;
}

Status TenantRouter::DrainCheckpoints() {
  Status first_error;
  for (auto& [id, t] : tenants_) {
    (void)id;
    const Status status = SettleCheckpoint(&t);
    if (first_error.ok() && !status.ok()) {
      first_error = status;
    }
  }
  return first_error;
}

Status TenantRouter::Shutdown() {
  Status first_error;
  for (auto& [id, t] : tenants_) {
    (void)id;
    if (t.durable == nullptr) {
      continue;
    }
    const Status status = EvictLocked(&t);
    if (first_error.ok() && !status.ok()) {
      first_error = status;
    }
  }
  resident_bytes_ = 0;
  return first_error;
}

std::vector<TenantId> TenantRouter::ListTenants() const {
  std::vector<TenantId> out;
  out.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) {
    (void)t;
    out.push_back(id);
  }
  return out;
}

StatusOr<TenantStats> TenantRouter::Stats(TenantId tenant) const {
  const Tenant* t = FindTenant(tenant);
  if (t == nullptr) {
    return Status::NotFound("unknown tenant " + std::to_string(tenant));
  }
  TenantStats stats;
  stats.tenant = tenant;
  stats.resident = t->durable != nullptr;
  stats.references = t->scoped != nullptr ? t->scoped->routed() : 0;
  stats.memory_bytes = t->memory_bytes;
  stats.checkpoints = t->checkpoints;
  stats.evictions = t->evictions;
  stats.restores = t->restores > 0 ? t->restores - 1 : 0;  // first open is not a restore
  stats.refills = t->refills;
  stats.refill_us_total = t->refill_us_total;
  stats.last_refill_us = t->last_refill_us;
  stats.hoard_dirty_clusters = t->manager.last_fill_stats().dirty_clusters;
  stats.generation = t->durable_generation;
  stats.files = t->last_files;
  if (t->durable != nullptr) {
    stats.generation = t->durable->generation();
    stats.wal_bytes = t->durable->wal_bytes();
  }
  if (t->daemon != nullptr) {
    stats.hoard_files = t->daemon->last_selection().files.size();
  }
  return stats;
}

bool TenantRouter::TenantResident(TenantId tenant) const {
  const Tenant* t = FindTenant(tenant);
  return t != nullptr && t->durable != nullptr;
}

size_t TenantRouter::resident_tenants() const {
  size_t n = 0;
  for (const auto& [id, t] : tenants_) {
    (void)id;
    if (t.durable != nullptr) {
      ++n;
    }
  }
  return n;
}

}  // namespace seer
