// Composable ReferenceSink decorators with a lightweight metrics layer.
//
// The observer-to-correlator data plane is a chain of ReferenceSinks; this
// header provides the decorators to compose and instrument it without the
// core stages knowing they are being watched:
//
//   * InstrumentedSink — per-callback-kind counters plus a log2-bucketed
//     nanosecond latency histogram of the downstream call (the cost added
//     to the traced syscall, Section 5.3);
//   * TenantScopedSink — routes one tenant's stream to its current
//     consumer in the multi-tenant router.
//
// SinkChain owns a stack of decorators terminating at a caller-provided
// sink and renders their metrics for seerctl's `pipeline` command.
#ifndef SRC_OBSERVER_SINK_CHAIN_H_
#define SRC_OBSERVER_SINK_CHAIN_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/observer/reference.h"

namespace seer {

// Per-stage message counts, one counter per ReferenceSink callback.
struct SinkCounters {
  uint64_t references = 0;
  uint64_t forks = 0;
  uint64_t exits = 0;
  uint64_t deletes = 0;
  uint64_t renames = 0;
  uint64_t exclusions = 0;

  uint64_t total() const {
    return references + forks + exits + deletes + renames + exclusions;
  }
};

// Log2-bucketed nanosecond histogram: bucket b holds samples in
// [2^b, 2^(b+1)) ns. Cheap enough for the per-reference hot path.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Record(uint64_t ns);

  uint64_t count() const { return count_; }
  uint64_t max_ns() const { return max_ns_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_ns_) / static_cast<double>(count_);
  }
  // Upper bound of the bucket containing the p-quantile (p in [0,1]).
  uint64_t PercentileNs(double p) const;
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  uint64_t max_ns_ = 0;
};

// Counts every message and (optionally) times the downstream call.
class InstrumentedSink : public ReferenceSink {
 public:
  InstrumentedSink(std::string label, ReferenceSink* next, bool measure_latency = true)
      : label_(std::move(label)), next_(next), measure_latency_(measure_latency) {}

  void OnReference(const FileReference& ref) override;
  void OnProcessFork(Pid parent, Pid child) override;
  void OnProcessExit(Pid pid) override;
  void OnFileDeleted(PathId path, Time time) override;
  void OnFileRenamed(PathId from, PathId to, Time time) override;
  void OnFileExcluded(PathId path) override;

  const std::string& label() const { return label_; }
  const SinkCounters& counters() const { return counters_; }
  const LatencyHistogram& latency() const { return latency_; }

 private:
  std::string label_;
  ReferenceSink* next_;
  bool measure_latency_;
  SinkCounters counters_;
  LatencyHistogram latency_;
};

// Tags a reference stream with one TenantId and routes every callback
// through a resolver to that tenant's current consumer. The resolver runs
// per callback, not once: the multi-tenant router may evict a cold
// tenant's correlator and transparently restore it on the next event, so
// the downstream sink pointer is not stable. Messages for which the
// resolver returns nullptr (unknown or failed tenant) are counted and
// dropped. A TenantScopedSink is the terminal of a tenant's SinkChain:
//
//   TenantScopedSink scoped(tenant_id, route);
//   SinkChain chain(&scoped);
//   chain.Instrument("tenant-7");
//   observer.set_sink(chain.head());
class TenantScopedSink : public ReferenceSink {
 public:
  // Resolves a tenant tag to its current consumer (or nullptr to drop).
  using RouteFn = std::function<ReferenceSink*(TenantId tenant)>;

  TenantScopedSink(TenantId tenant, RouteFn route)
      : tenant_(tenant), route_(std::move(route)) {}

  void OnReference(const FileReference& ref) override;
  void OnProcessFork(Pid parent, Pid child) override;
  void OnProcessExit(Pid pid) override;
  void OnFileDeleted(PathId path, Time time) override;
  void OnFileRenamed(PathId from, PathId to, Time time) override;
  void OnFileExcluded(PathId path) override;

  TenantId tenant() const { return tenant_; }
  uint64_t routed() const { return routed_; }
  uint64_t unrouted() const { return unrouted_; }

 private:
  ReferenceSink* Resolve();

  TenantId tenant_;
  RouteFn route_;
  uint64_t routed_ = 0;
  uint64_t unrouted_ = 0;
};

// Owning builder: stages added later sit closer to the producer, so
//
//   SinkChain chain(&correlator);
//   chain.Instrument("correlator");   // runs second
//   chain.Instrument("observer");     // runs first
//   observer.set_sink(chain.head());
//
// yields observer -> "observer" stage -> "correlator" stage -> correlator.
class SinkChain {
 public:
  explicit SinkChain(ReferenceSink* terminal) : head_(terminal) {}
  SinkChain(const SinkChain&) = delete;
  SinkChain& operator=(const SinkChain&) = delete;

  SinkChain& Instrument(std::string label, bool measure_latency = true);

  ReferenceSink* head() const { return head_; }

  // Instrumented stages in producer-to-consumer order.
  std::vector<const InstrumentedSink*> instrumented() const;

  // Human-readable per-stage metrics table (seerctl pipeline).
  std::string FormatMetrics() const;

 private:
  ReferenceSink* head_;
  // Producer-to-consumer order is the reverse of insertion order.
  std::vector<std::unique_ptr<InstrumentedSink>> stages_;
};

}  // namespace seer

#endif  // SRC_OBSERVER_SINK_CHAIN_H_
