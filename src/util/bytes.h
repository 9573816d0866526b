// Little-endian byte packing for the binary persistence formats.
//
// Both the snapshot codec and the WAL serialise through these helpers so
// the on-disk encoding is explicit and platform-independent (fixed-width
// little-endian integers, IEEE-754 doubles as raw bits — hex-float-exact
// without any text parsing). ByteReader is fully bounds-checked: any
// over-read latches !ok() and returns zeros, so a truncated or corrupt
// buffer can never walk off the end.
#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace seer {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  // u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }
  void PutBytes(std::string_view s) { out_.append(s); }

  const std::string& data() const { return out_; }
  std::string Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t GetU8() {
    if (!Need(1)) {
      return 0;
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t GetU32() {
    if (!Need(4)) {
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
    }
    return v;
  }
  uint64_t GetU64() {
    if (!Need(8)) {
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++])) << (8 * i);
    }
    return v;
  }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  double GetDouble() { return std::bit_cast<double>(GetU64()); }
  std::string_view GetString() {
    const uint32_t len = GetU32();
    if (!Need(len)) {
      return {};
    }
    const std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }
  std::string_view GetBytes(size_t n) {
    if (!Need(n)) {
      return {};
    }
    const std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Caps a decoded count by what the remaining bytes could possibly hold, so
// a corrupt count cannot trigger a huge allocation before the
// bounds-checked reads fail. Use it for every reserve() sized by a count
// read off the wire or the disk.
inline size_t PlausibleCount(uint32_t count, size_t remaining, size_t min_record_bytes) {
  const size_t most = remaining / min_record_bytes;
  return count <= most ? count : most + 1;
}

}  // namespace seer

#endif  // SRC_UTIL_BYTES_H_
