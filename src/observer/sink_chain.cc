#include "src/observer/sink_chain.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace seer {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

size_t BucketOf(uint64_t ns) {
  size_t b = 0;
  while (ns > 1 && b + 1 < LatencyHistogram::kBuckets) {
    ns >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void LatencyHistogram::Record(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
  sum_ns_ += ns;
  max_ns_ = std::max(max_ns_, ns);
}

uint64_t LatencyHistogram::PercentileNs(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const uint64_t target = static_cast<uint64_t>(p * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= target) {
      return 1ull << (b + 1);  // bucket upper bound
    }
  }
  return max_ns_;
}

// --- InstrumentedSink ---------------------------------------------------------

void InstrumentedSink::OnReference(const FileReference& ref) {
  ++counters_.references;
  if (measure_latency_) {
    const uint64_t start = NowNs();
    next_->OnReference(ref);
    latency_.Record(NowNs() - start);
  } else {
    next_->OnReference(ref);
  }
}

void InstrumentedSink::OnProcessFork(Pid parent, Pid child) {
  ++counters_.forks;
  next_->OnProcessFork(parent, child);
}

void InstrumentedSink::OnProcessExit(Pid pid) {
  ++counters_.exits;
  next_->OnProcessExit(pid);
}

void InstrumentedSink::OnFileDeleted(PathId path, Time time) {
  ++counters_.deletes;
  next_->OnFileDeleted(path, time);
}

void InstrumentedSink::OnFileRenamed(PathId from, PathId to, Time time) {
  ++counters_.renames;
  next_->OnFileRenamed(from, to, time);
}

void InstrumentedSink::OnFileExcluded(PathId path) {
  ++counters_.exclusions;
  next_->OnFileExcluded(path);
}

// --- TenantScopedSink ---------------------------------------------------------

ReferenceSink* TenantScopedSink::Resolve() {
  ReferenceSink* sink = route_ ? route_(tenant_) : nullptr;
  if (sink == nullptr) {
    ++unrouted_;
  } else {
    ++routed_;
  }
  return sink;
}

void TenantScopedSink::OnReference(const FileReference& ref) {
  if (ReferenceSink* sink = Resolve()) {
    sink->OnReference(ref);
  }
}

void TenantScopedSink::OnProcessFork(Pid parent, Pid child) {
  if (ReferenceSink* sink = Resolve()) {
    sink->OnProcessFork(parent, child);
  }
}

void TenantScopedSink::OnProcessExit(Pid pid) {
  if (ReferenceSink* sink = Resolve()) {
    sink->OnProcessExit(pid);
  }
}

void TenantScopedSink::OnFileDeleted(PathId path, Time time) {
  if (ReferenceSink* sink = Resolve()) {
    sink->OnFileDeleted(path, time);
  }
}

void TenantScopedSink::OnFileRenamed(PathId from, PathId to, Time time) {
  if (ReferenceSink* sink = Resolve()) {
    sink->OnFileRenamed(from, to, time);
  }
}

void TenantScopedSink::OnFileExcluded(PathId path) {
  if (ReferenceSink* sink = Resolve()) {
    sink->OnFileExcluded(path);
  }
}

// --- SinkChain ----------------------------------------------------------------

SinkChain& SinkChain::Instrument(std::string label, bool measure_latency) {
  auto stage = std::make_unique<InstrumentedSink>(std::move(label), head_, measure_latency);
  head_ = stage.get();
  stages_.push_back(std::move(stage));
  return *this;
}

std::vector<const InstrumentedSink*> SinkChain::instrumented() const {
  // Stored in insertion (consumer-to-producer) order; report producer-first.
  std::vector<const InstrumentedSink*> out;
  out.reserve(stages_.size());
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    out.push_back(it->get());
  }
  return out;
}

std::string SinkChain::FormatMetrics() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-18s %10s %8s %8s %8s %9s %9s %9s\n", "stage", "refs",
                "forks", "exits", "ns/ref", "p50", "p99", "max");
  out += line;
  for (const InstrumentedSink* s : instrumented()) {
    const SinkCounters& c = s->counters();
    const LatencyHistogram& h = s->latency();
    std::snprintf(line, sizeof(line), "%-18s %10llu %8llu %8llu %8.0f %9llu %9llu %9llu\n",
                  s->label().c_str(), static_cast<unsigned long long>(c.references),
                  static_cast<unsigned long long>(c.forks),
                  static_cast<unsigned long long>(c.exits), h.mean_ns(),
                  static_cast<unsigned long long>(h.PercentileNs(0.50)),
                  static_cast<unsigned long long>(h.PercentileNs(0.99)),
                  static_cast<unsigned long long>(h.max_ns()));
    out += line;
  }
  return out;
}

}  // namespace seer
