#include "src/server/wire.h"

#include <sstream>

#include "src/trace/binary_trace.h"
#include "src/util/bytes.h"

namespace seer {
namespace wire {

namespace {

bool ValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kEvents) &&
         type <= static_cast<uint8_t>(FrameType::kResponse);
}

bool ValidVerb(uint8_t verb) {
  return verb >= static_cast<uint8_t>(ControlVerb::kPing) &&
         verb <= static_cast<uint8_t>(ControlVerb::kShutdown);
}

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kInternal);
}

void PutStats(ByteWriter* w, const TenantStats& s) {
  w->PutU32(s.tenant);
  w->PutU8(s.resident ? 1 : 0);
  w->PutU64(s.references);
  w->PutU64(s.memory_bytes);
  w->PutU64(s.generation);
  w->PutU64(s.files);
  w->PutU64(s.wal_bytes);
  w->PutU64(s.checkpoints);
  w->PutU64(s.evictions);
  w->PutU64(s.restores);
  w->PutU64(s.refills);
  w->PutU64(s.hoard_files);
  w->PutU64(s.refill_us_total);
  w->PutU64(s.last_refill_us);
  w->PutU64(s.hoard_dirty_clusters);
}

TenantStats GetStats(ByteReader* r) {
  TenantStats s;
  s.tenant = r->GetU32();
  s.resident = r->GetU8() != 0;
  s.references = r->GetU64();
  s.memory_bytes = r->GetU64();
  s.generation = r->GetU64();
  s.files = r->GetU64();
  s.wal_bytes = r->GetU64();
  s.checkpoints = r->GetU64();
  s.evictions = r->GetU64();
  s.restores = r->GetU64();
  s.refills = r->GetU64();
  s.hoard_files = r->GetU64();
  s.refill_us_total = r->GetU64();
  s.last_refill_us = r->GetU64();
  s.hoard_dirty_clusters = r->GetU64();
  return s;
}

}  // namespace

std::string_view ControlVerbName(ControlVerb verb) {
  switch (verb) {
    case ControlVerb::kPing:
      return "ping";
    case ControlVerb::kTenantList:
      return "tenant-list";
    case ControlVerb::kTenantStats:
      return "tenant-stats";
    case ControlVerb::kTenantEvict:
      return "tenant-evict";
    case ControlVerb::kTenantCheckpoint:
      return "tenant-checkpoint";
    case ControlVerb::kParamsGet:
      return "params-get";
    case ControlVerb::kParamsSet:
      return "params-set";
    case ControlVerb::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, uint32_t channel, std::string_view payload) {
  ByteWriter w;
  w.PutU32(kFrameMagic);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU8(0);  // flags lo
  w.PutU8(0);  // flags hi
  w.PutU32(channel);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutBytes(payload);
  return w.Take();
}

Status FrameDecoder::Scan(FrameType* type, uint32_t* channel, uint32_t* length, bool* complete) {
  *complete = false;
  if (!status_.ok()) {
    return status_;
  }
  if (buffered() < kFrameHeaderSize) {
    return Status::Ok();
  }
  ByteReader r(std::string_view(buffer_).substr(pos_));
  const uint32_t magic = r.GetU32();
  const uint8_t version = r.GetU8();
  const uint8_t raw_type = r.GetU8();
  const uint8_t flags_lo = r.GetU8();
  const uint8_t flags_hi = r.GetU8();
  *channel = r.GetU32();
  *length = r.GetU32();
  if (magic != kFrameMagic) {
    status_ = Status::InvalidArgument("wire: bad frame magic");
    return status_;
  }
  if (version != kProtocolVersion) {
    status_ = Status::InvalidArgument("wire: unsupported protocol version " +
                                      std::to_string(version));
    return status_;
  }
  if (!ValidFrameType(raw_type)) {
    status_ = Status::InvalidArgument("wire: unknown frame type " + std::to_string(raw_type));
    return status_;
  }
  if (flags_lo != 0 || flags_hi != 0) {
    status_ = Status::InvalidArgument("wire: nonzero reserved flags");
    return status_;
  }
  if (*length > kMaxFramePayload) {
    status_ = Status::InvalidArgument("wire: frame payload length " + std::to_string(*length) +
                                      " exceeds limit");
    return status_;
  }
  if (buffered() < kFrameHeaderSize + *length) {
    return Status::Ok();  // payload still in flight
  }
  *type = static_cast<FrameType>(raw_type);
  *complete = true;
  return Status::Ok();
}

StatusOr<std::optional<Frame>> FrameDecoder::Next() {
  FrameType type = FrameType::kEvents;
  uint32_t channel = 0;
  uint32_t length = 0;
  bool complete = false;
  SEER_RETURN_IF_ERROR(Scan(&type, &channel, &length, &complete));
  if (!complete) {
    return std::optional<Frame>();
  }
  Frame frame;
  frame.type = type;
  frame.channel = channel;
  frame.payload = buffer_.substr(pos_ + kFrameHeaderSize, length);
  pos_ += kFrameHeaderSize + length;
  return std::optional<Frame>(std::move(frame));
}

StatusOr<std::optional<FrameView>> FrameDecoder::NextView() {
  FrameType type = FrameType::kEvents;
  uint32_t channel = 0;
  uint32_t length = 0;
  bool complete = false;
  SEER_RETURN_IF_ERROR(Scan(&type, &channel, &length, &complete));
  if (!complete) {
    return std::optional<FrameView>();
  }
  FrameView view;
  view.type = type;
  view.channel = channel;
  view.payload = std::string_view(buffer_).substr(pos_ + kFrameHeaderSize, length);
  pos_ += kFrameHeaderSize + length;
  return std::optional<FrameView>(view);
}

std::string EncodeEvents(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  BinaryTraceWriter writer(out);
  for (const TraceEvent& e : events) {
    writer.Write(e);
  }
  return out.str();
}

StatusOr<std::vector<TraceEvent>> DecodeEvents(std::string_view payload) {
  std::istringstream in{std::string(payload)};
  BinaryTraceReader reader(in);
  std::vector<TraceEvent> events;
  for (;;) {
    SEER_ASSIGN_OR_RETURN(auto event, reader.Next());
    if (!event.has_value()) {
      return events;
    }
    events.push_back(*std::move(event));
  }
}

// --- EventArena ---------------------------------------------------------------
//
// A cursor-based re-implementation of BinaryTraceReader over a
// string_view. Field order, bounds checks, and error strings must stay
// in lockstep with binary_trace.cc — parser_fuzz_test pins the parity.

Status EventArena::GetVarint(const char* field, uint64_t* value) {
  *value = 0;
  int shift = 0;
  for (;;) {
    if (pos_ >= data_.size()) {
      return Status::DataLoss(std::string("binary trace: truncated ") + field + " after " +
                              std::to_string(events_read_) + " events");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    if (shift > 63) {
      return Status::DataLoss(std::string("binary trace: oversized varint in ") + field);
    }
    *value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return Status::Ok();
    }
    shift += 7;
  }
}

Status EventArena::GetZigzag(const char* field, int64_t* value) {
  uint64_t raw = 0;
  SEER_RETURN_IF_ERROR(GetVarint(field, &raw));
  *value = static_cast<int64_t>(raw >> 1) ^ -static_cast<int64_t>(raw & 1);
  return Status::Ok();
}

Status EventArena::GetPath(const char* field, PathId* out) {
  uint64_t id = 0;
  SEER_RETURN_IF_ERROR(GetVarint(field, &id));
  if (id < dict_.size()) {
    *out = dict_[id];
    return Status::Ok();
  }
  if (id != dict_.size() || id >= kBinaryTraceMaxDictionary) {
    // Ids are assigned densely; a gap means the stream is corrupt.
    return Status::DataLoss(std::string("binary trace: non-dense dictionary id in ") + field);
  }
  uint64_t len = 0;
  SEER_RETURN_IF_ERROR(GetVarint(field, &len));
  if (len > kBinaryTraceMaxPathLen) {
    return Status::DataLoss(std::string("binary trace: path length ") + std::to_string(len) +
                            " exceeds limit in " + field);
  }
  if (data_.size() - pos_ < len) {
    return Status::DataLoss(std::string("binary trace: truncated path bytes in ") + field);
  }
  const PathId interned = GlobalPaths().Intern(data_.substr(pos_, len));
  pos_ += len;
  dict_.push_back(interned);
  *out = interned;
  return Status::Ok();
}

Status EventArena::Decode(std::string_view payload) {
  data_ = payload;
  pos_ = 0;
  last_seq_ = 0;
  last_time_ = 0;
  events_read_ = 0;
  events_.clear();
  dict_.clear();

  const size_t got = data_.size() < kBinaryTraceMagicLen ? data_.size() : kBinaryTraceMagicLen;
  if (got == kBinaryTraceMagicLen &&
      data_.compare(0, kBinaryTraceMagicLen, kBinaryTraceMagic, kBinaryTraceMagicLen) == 0) {
    pos_ = kBinaryTraceMagicLen;
  } else if (got < kBinaryTraceMagicLen && data_.compare(0, got, kBinaryTraceMagic, got) == 0) {
    // A short payload whose bytes are a prefix of the magic is truncation
    // (a torn frame), not a different format.
    return Status::DataLoss("binary trace: truncated magic header");
  } else {
    return Status::InvalidArgument("binary trace: missing or bad magic header");
  }

  for (;;) {
    if (pos_ >= data_.size()) {
      // The previous event ended exactly at end of payload: a clean end.
      return Status::Ok();
    }
    int64_t seq_delta = 0;
    int64_t time_delta = 0;
    uint64_t pid = 0;
    int64_t uid = 0;
    Status s = GetZigzag("seq", &seq_delta);
    if (s.ok()) s = GetZigzag("time", &time_delta);
    if (s.ok()) s = GetVarint("pid", &pid);
    if (s.ok()) s = GetZigzag("uid", &uid);
    if (!s.ok()) {
      return s;
    }
    if (data_.size() - pos_ < 2) {
      return Status::DataLoss("binary trace: truncated op/status after " +
                              std::to_string(events_read_) + " events");
    }
    const uint8_t op_and_flags = static_cast<uint8_t>(data_[pos_]);
    const uint8_t status_byte = static_cast<uint8_t>(data_[pos_ + 1]);
    pos_ += 2;
    if ((op_and_flags & 0x7f) > static_cast<uint8_t>(Op::kChdir)) {
      return Status::DataLoss("binary trace: unknown op byte " +
                              std::to_string(op_and_flags & 0x7f));
    }
    if (status_byte > static_cast<uint8_t>(OpStatus::kNotLocal)) {
      return Status::DataLoss("binary trace: unknown status byte " + std::to_string(status_byte));
    }
    InternedEvent e;
    int64_t fd = 0;
    int64_t detail = 0;
    s = GetPath("path", &e.path);
    if (s.ok()) s = GetPath("path2", &e.path2);
    if (s.ok()) s = GetZigzag("fd", &fd);
    if (s.ok()) s = GetZigzag("detail", &detail);
    if (!s.ok()) {
      return s;
    }
    last_seq_ = static_cast<uint64_t>(static_cast<int64_t>(last_seq_) + seq_delta);
    last_time_ += time_delta;
    e.seq = last_seq_;
    e.time = last_time_;
    e.pid = static_cast<Pid>(pid);
    e.uid = static_cast<Uid>(uid);
    e.op = static_cast<Op>(op_and_flags & 0x7f);
    e.write = (op_and_flags & 0x80) != 0;
    e.status = static_cast<OpStatus>(status_byte);
    e.fd = static_cast<Fd>(fd);
    e.detail = static_cast<int32_t>(detail);
    events_.push_back(e);
    ++events_read_;
  }
}

std::string EncodeControlRequest(const ControlRequest& request) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(request.verb));
  w.PutU32(request.tenant);
  w.PutString(request.text);
  return w.Take();
}

StatusOr<ControlRequest> DecodeControlRequest(std::string_view payload) {
  ByteReader r(payload);
  const uint8_t verb = r.GetU8();
  ControlRequest request;
  request.tenant = r.GetU32();
  request.text = std::string(r.GetString());
  if (!r.ok() || !r.AtEnd()) {
    return Status::DataLoss("wire: truncated or overlong control request");
  }
  if (!ValidVerb(verb)) {
    return Status::InvalidArgument("wire: unknown control verb " + std::to_string(verb));
  }
  request.verb = static_cast<ControlVerb>(verb);
  return request;
}

Status ControlResponse::ToStatus() const {
  if (code == StatusCode::kOk) {
    return Status::Ok();
  }
  return Status(code, message);
}

std::string EncodeControlResponse(const ControlResponse& response) {
  ByteWriter w;
  w.PutU8(static_cast<uint8_t>(response.code));
  w.PutString(response.message);
  w.PutU8(static_cast<uint8_t>(response.verb));
  w.PutU32(static_cast<uint32_t>(response.tenants.size()));
  for (const TenantId t : response.tenants) {
    w.PutU32(t);
  }
  w.PutU32(static_cast<uint32_t>(response.stats.size()));
  for (const TenantStats& s : response.stats) {
    PutStats(&w, s);
  }
  w.PutString(response.text);
  return w.Take();
}

StatusOr<ControlResponse> DecodeControlResponse(std::string_view payload) {
  ByteReader r(payload);
  ControlResponse response;
  const uint8_t code = r.GetU8();
  response.message = std::string(r.GetString());
  const uint8_t verb = r.GetU8();
  const uint32_t tenant_count = r.GetU32();
  response.tenants.reserve(PlausibleCount(tenant_count, r.remaining(), 4));
  for (uint32_t i = 0; i < tenant_count && r.ok(); ++i) {
    response.tenants.push_back(r.GetU32());
  }
  const uint32_t stats_count = r.GetU32();
  response.stats.reserve(PlausibleCount(stats_count, r.remaining(), 109));
  for (uint32_t i = 0; i < stats_count && r.ok(); ++i) {
    response.stats.push_back(GetStats(&r));
  }
  response.text = std::string(r.GetString());
  if (!r.ok() || !r.AtEnd()) {
    return Status::DataLoss("wire: truncated or overlong control response");
  }
  if (!ValidStatusCode(code)) {
    return Status::InvalidArgument("wire: unknown status code " + std::to_string(code));
  }
  if (!ValidVerb(verb)) {
    return Status::InvalidArgument("wire: unknown response verb " + std::to_string(verb));
  }
  response.code = static_cast<StatusCode>(code);
  response.verb = static_cast<ControlVerb>(verb);
  return response;
}

}  // namespace wire
}  // namespace seer
