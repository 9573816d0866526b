#include "span_trace.h"

#include <algorithm>
#include <cstdio>

namespace seerbench {

namespace {

struct SpanNameInfo {
  const char* name;
  const char* layer;
};

constexpr SpanNameInfo kInfo[kSpanNameCount] = {
    {"bench", "bench"},
    {"workload", "workload"},
    {"observer", "observer"},
    {"correlator", "correlator"},
    {"clustering.build", "clustering"},
    {"hoard.order", "hoard"},
    {"sim.tracker", "sim"},
    {"sim.missfree", "sim"},
    {"baselines.lru", "baselines"},
    {"baselines.lru_order", "baselines"},
    {"wire.frame", "wire"},
    {"wire.decode", "wire"},
    {"router.ingest", "router"},
    {"router.tick", "router"},
    {"router.evict", "router"},
    {"router.restore", "router"},
    {"router.correlator_for", "router"},
    {"router.shutdown", "router"},
    {"persistence.fs", "persistence"},
};

thread_local SpanTrace* t_active = nullptr;

}  // namespace

SpanTrace::SpanTrace(size_t reserve) : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(reserve);
  stack_.reserve(64);
}

int64_t SpanTrace::total_self_ns() const {
  int64_t total = 0;
  for (const int64_t ns : self_ns_) {
    total += ns;
  }
  return total;
}

std::vector<std::pair<std::string, int64_t>> SpanTrace::SelfNsByLayer() const {
  std::vector<std::pair<std::string, int64_t>> layers;
  for (size_t i = 0; i < kSpanNameCount; ++i) {
    auto it = std::find_if(layers.begin(), layers.end(),
                           [&](const auto& layer) { return layer.first == kInfo[i].layer; });
    if (it == layers.end()) {
      layers.emplace_back(kInfo[i].layer, 0);
      it = layers.end() - 1;
    }
    it->second += self_ns_[i];
  }
  return layers;
}

std::vector<double> SpanTrace::DurationsMs(SpanName name) const {
  std::vector<double> out;
  const auto id = static_cast<uint16_t>(name);
  for (const SpanRecord& record : spans_) {
    if (record.name == id) {
      out.push_back(static_cast<double>(record.end_ns - record.start_ns) / 1e6);
    }
  }
  return out;
}

bool SpanTrace::WriteTo(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "seerbench spans v1: %zu records of %zu bytes "
               "(int64 start_ns, int64 end_ns, uint32 parent, uint16 name)\n",
               spans_.size(), sizeof(SpanRecord));
  for (size_t i = 0; i < kSpanNameCount; ++i) {
    std::fprintf(out, "%zu %s %s\n", i, kInfo[i].name, kInfo[i].layer);
  }
  std::fputc('\n', out);
  const size_t written = std::fwrite(spans_.data(), sizeof(SpanRecord), spans_.size(), out);
  const bool closed = std::fclose(out) == 0;
  return closed && written == spans_.size();
}

SpanTrace* ActiveTrace() { return t_active; }

ScopedTrace::ScopedTrace(SpanTrace* trace) : previous_(t_active) { t_active = trace; }

ScopedTrace::~ScopedTrace() { t_active = previous_; }

}  // namespace seerbench
