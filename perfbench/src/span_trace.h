// In-memory span recording for the traced benchmark pass.
//
// Every call the benchmark makes into a layer's public functions is
// wrapped in a Span: a record of its name, start, end and parent span,
// appended to the active SpanTrace and written out when the benchmark
// ends. A span's self time is its duration minus the time of its child
// spans; the per-layer numbers are sums of self times over the span names
// of each layer.
//
// Recording is per thread: a SpanTrace is installed on the benchmark's
// own thread (ScopedTrace), and spans opened on any other thread (the
// server's shards, background checkpoint encoders) are no-ops. With no
// trace installed a Span costs one thread-local load and a branch, which
// is how the untraced pass runs.
#ifndef PERFBENCH_SRC_SPAN_TRACE_H_
#define PERFBENCH_SRC_SPAN_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/observer/reference.h"
#include "src/process/syscall_tracer.h"

namespace seerbench {

// Span names, one per public entry point the benchmark calls. Each name
// belongs to one layer (see span_trace.cc).
enum class SpanName : uint16_t {
  kBench,              // the benchmark's own work: the root span
  kWorkload,           // UserModel, environment, vfs, syscall tracer
  kObserver,           // Observer::OnEvent / OnInternedEvent
  kCorrelator,         // ReferenceSink callbacks into a Correlator; investigators
  kClustering,         // Correlator::BuildClusters
  kHoard,              // SeerCoverageOrder
  kSimTracker,         // WorkingSetTracker
  kSimMissFree,        // ComputeMissFree, WorkingSetBytes, WithTail
  kBaselinesLru,       // LruTracker::OnEvent
  kBaselinesLruOrder,  // LruTracker::CoverageOrder
  kWireFrame,          // FrameDecoder::Append / NextView
  kWireDecode,         // EventArena::Decode
  kRouterIngest,       // TenantRouter::SinkFor(t) callbacks
  kRouterTick,         // TenantRouter::Tick
  kRouterEvict,        // TenantRouter::EvictTenant
  kRouterRestore,      // TenantRouter::CorrelatorFor on an evicted tenant
  kRouterCorrelatorFor,  // TenantRouter::CorrelatorFor on a resident tenant
  kRouterShutdown,     // TenantRouter::DrainCheckpoints + Shutdown
  kPersistence,        // Fs calls (snapshot, WAL, store)
  kCount
};

constexpr size_t kSpanNameCount = static_cast<size_t>(SpanName::kCount);

struct SpanRecord {
  int64_t start_ns = 0;  // since the trace's origin
  int64_t end_ns = 0;
  uint32_t parent = kNoParent;
  uint16_t name = 0;

  static constexpr uint32_t kNoParent = 0xffffffffu;
};

class SpanTrace {
 public:
  explicit SpanTrace(size_t reserve = 0);

  void Begin(SpanName name) {
    const int64_t now = NowNs();
    stack_.push_back(Open{static_cast<uint32_t>(spans_.size()), 0});
    SpanRecord record;
    record.start_ns = now;
    record.parent = stack_.size() > 1 ? stack_[stack_.size() - 2].index : SpanRecord::kNoParent;
    record.name = static_cast<uint16_t>(name);
    spans_.push_back(record);
  }

  void End() {
    const int64_t now = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    SpanRecord& record = spans_[open.index];
    record.end_ns = now;
    const int64_t duration = now - record.start_ns;
    self_ns_[record.name] += duration - open.child_ns;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  bool balanced() const { return stack_.empty(); }

  int64_t self_ns(SpanName name) const { return self_ns_[static_cast<size_t>(name)]; }
  // Sum of self times over every span name: equals the root spans' total
  // duration when spans nest properly.
  int64_t total_self_ns() const;
  // Self time summed per layer, in layer order of first appearance.
  std::vector<std::pair<std::string, int64_t>> SelfNsByLayer() const;
  // Durations (ms) of every span with this name, in record order.
  std::vector<double> DurationsMs(SpanName name) const;

  // Writes the spans to `path`: a text header (one "name layer" line per
  // span name, then a blank line), followed by the SpanRecords as raw
  // little-endian structs. Returns false on I/O failure.
  bool WriteTo(const std::string& path) const;

 private:
  struct Open {
    uint32_t index = 0;
    int64_t child_ns = 0;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<Open> stack_;
  std::array<int64_t, kSpanNameCount> self_ns_{};
};

// The trace installed on the calling thread, or null.
SpanTrace* ActiveTrace();

// Installs `trace` on the calling thread for the object's lifetime.
class ScopedTrace {
 public:
  explicit ScopedTrace(SpanTrace* trace);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  SpanTrace* previous_;
};

// RAII span on the calling thread's trace; a no-op when none is installed.
class Span {
 public:
  explicit Span(SpanName name) : trace_(ActiveTrace()) {
    if (trace_ != nullptr) {
      trace_->Begin(name);
    }
  }
  ~Span() {
    if (trace_ != nullptr) {
      trace_->End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTrace* trace_;
};

// Forwards every event to `inner` inside a span: wraps the sinks a
// SyscallTracer fans out to (observer, LRU, working-set tracker).
class SpannedTraceSink : public seer::TraceSink {
 public:
  SpannedTraceSink(SpanName name, seer::TraceSink* inner) : name_(name), inner_(inner) {}
  void OnEvent(const seer::TraceEvent& event) override {
    Span span(name_);
    inner_->OnEvent(event);
  }

 private:
  SpanName name_;
  seer::TraceSink* inner_;
};

// Forwards every reference callback to `inner` inside a span: sits
// between an Observer and the correlator (or router ingress) it feeds.
class SpannedReferenceSink : public seer::ReferenceSink {
 public:
  SpannedReferenceSink(SpanName name, seer::ReferenceSink* inner) : name_(name), inner_(inner) {}

  void OnReference(const seer::FileReference& ref) override {
    Span span(name_);
    inner_->OnReference(ref);
  }
  void OnProcessFork(seer::Pid parent, seer::Pid child) override {
    Span span(name_);
    inner_->OnProcessFork(parent, child);
  }
  void OnProcessExit(seer::Pid pid) override {
    Span span(name_);
    inner_->OnProcessExit(pid);
  }
  void OnFileDeleted(seer::PathId path, seer::Time time) override {
    Span span(name_);
    inner_->OnFileDeleted(path, time);
  }
  void OnFileRenamed(seer::PathId from, seer::PathId to, seer::Time time) override {
    Span span(name_);
    inner_->OnFileRenamed(from, to, time);
  }
  void OnFileExcluded(seer::PathId path) override {
    Span span(name_);
    inner_->OnFileExcluded(path);
  }

 private:
  SpanName name_;
  seer::ReferenceSink* inner_;
};

}  // namespace seerbench

#endif  // PERFBENCH_SRC_SPAN_TRACE_H_
