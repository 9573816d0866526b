// Test helpers that edit section payloads inside an encoded snapshot and
// re-seal every section's CRC, so an edit reaches the section decoders
// instead of being stopped by the CRC check. This is how the hostile-input
// tests build snapshots that are well-framed and checksummed yet lie about
// their contents.
#ifndef TESTS_SNAPSHOT_SURGERY_H_
#define TESTS_SNAPSHOT_SURGERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/core/snapshot_codec.h"
#include "src/util/bytes.h"

namespace seer {

// Re-frames `snapshot` section by section, letting `edit` rewrite each
// payload (its ordinal among all sections and its tag are passed along),
// then seals each section with a fresh CRC. Returns "" when `snapshot`
// does not even split into sections.
inline std::string ResealSections(
    std::string_view snapshot,
    const std::function<void(size_t ordinal, uint32_t tag, std::string* payload)>& edit) {
  using namespace snapshot_internal;  // NOLINT(build/namespaces)
  const auto sections = ParseSections(snapshot);
  if (!sections.ok()) {
    return "";
  }
  ByteWriter out;
  out.PutBytes(kMagicV2);
  for (size_t i = 0; i < sections->size(); ++i) {
    const RawSection& section = (*sections)[i];
    std::string payload(section.payload);
    edit(i, section.tag, &payload);
    PutSection(&out, section.tag, payload);
  }
  return out.Take();
}

inline uint32_t U32At(std::string_view payload, size_t offset) {
  ByteReader r(payload.substr(offset, 4));
  return r.GetU32();
}

inline uint64_t U64At(std::string_view payload, size_t offset) {
  ByteReader r(payload.substr(offset, 8));
  return r.GetU64();
}

inline void PutU32At(std::string* payload, size_t offset, uint32_t value) {
  ByteWriter w;
  w.PutU32(value);
  payload->replace(offset, 4, w.data());
}

inline void PutU64At(std::string* payload, size_t offset, uint64_t value) {
  ByteWriter w;
  w.PutU64(value);
  payload->replace(offset, 8, w.data());
}

}  // namespace seer

#endif  // TESTS_SNAPSHOT_SURGERY_H_
