// Sectioned binary snapshot codec — the v2 checkpoint wire format.
//
// A v2 snapshot is a sequence of independently CRC'd sections, the relation
// table split into per-stripe sections so encode can be sharded across a
// thread pool and recovery can decode stripes in parallel straight into the
// slab (zero-copy: one file read, per-section CRC checks, in-place writes).
//
//   magic "SEERSNP2"
//   META  u32 version=2 | u8 kind (0 full, 1 delta) | u64 base-generation
//         | u64 file-count | u32 stripe-size | u32 stripe-section-count
//   PRMS  u32 len | params text
//   PATH  u32 count | (u32 len | bytes)*
//   FILE  u64 file-count | u64 deletion-count | u64 global-ref-seq
//         | u64 references-processed
//         | (u32 path-index | i64 last-ref-time | u64 last-ref-seq
//            | u64 ref-count | u8 flags | u64 deleted-at)*
//         | u32 purge-count | u32 file-id*
//   RLHD  u64 update-count | 4 x u64 rng state
//   STRM  u32 removed-count | i32 pid* | u32 stream-count |
//         (i32 pid | i32 parent | u64 open-counter | u64 ref-counter
//          | u32 file-count | (u32 file | u64 open-idx | u64 ref-idx
//             | i64 open-time | u32 nesting | u8 compensated)*
//          | u32 window-count | (u32 file | u64 idx)*)*
//         (removed pids: processes that exited since the base — empty in
//         a full snapshot)
//   RST0* u32 stripe-index | u32 list-count |
//         (u32 from | u32 count | (u32 id | f64 log | f64 lin | u32 obs
//          | u64 upd)*)*                              (ascending index; a
//                                                     full snapshot omits
//                                                     all-empty stripes, a
//                                                     delta carries every
//                                                     dirty stripe so it
//                                                     can mask its base)
//   END!  empty
//
// Every section is `u32 tag | u64 size | u32 crc32(payload) | payload`.
// Any other "SEERSNP" format digit (the retired v1 layout) is rejected as
// kDataLoss naming the unsupported format. A delta snapshot
// carries the full PRMS/PATH/FILE sections (they are small and their
// interleaving with relation state is subtle) but only dirty relation
// stripes and dirty/removed streams.
#ifndef SRC_CORE_SNAPSHOT_CODEC_H_
#define SRC_CORE_SNAPSHOT_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/file_table.h"
#include "src/core/reference_streams.h"
#include "src/core/relation_table.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace seer {

class Correlator;
class ThreadPool;

// Everything a checkpoint needs, deep-copied from the correlator at the
// seal point. Building this is the ONLY work done while ingest is paused;
// encoding and writing proceed off-thread against the copy. The copy is
// memcpy-dominated (string table + slab stripes), so sealing is an order of
// magnitude cheaper than the byte-at-a-time encode it unblocks.
struct SealedSnapshot {
  bool delta = false;
  uint64_t base_generation = 0;  // delta only: generation this applies over

  std::string params_text;
  std::vector<std::string> paths;              // dense path table
  std::vector<uint32_t> record_path_index;     // per record, or kNoPath
  std::vector<FileRecord> records;
  std::vector<FileId> purge_queue;
  uint64_t deletion_count = 0;
  uint64_t global_ref_seq = 0;
  uint64_t references_processed = 0;

  uint64_t update_count = 0;
  uint64_t rng_state[4] = {0, 0, 0, 0};
  uint64_t file_count = 0;
  uint32_t stripe_size = 0;
  std::vector<RelationStripeCopy> stripes;     // ascending stripe index

  std::vector<Pid> removed_pids;               // exits since the base cut
  std::vector<ReferenceStreams::ExportedStream> streams;

  // Epoch cuts this seal represents; the next delta exports changes after
  // these. Not serialized — the durable layer tracks them in memory.
  uint64_t relation_epoch = 0;
  uint64_t stream_epoch = 0;
};

// Parsed META section.
struct SnapshotMeta {
  uint32_t version = 0;          // always 2
  bool delta = false;
  uint64_t base_generation = 0;
  uint64_t file_count = 0;
  uint32_t stripe_size = 0;
  uint32_t stripe_sections = 0;
};

// What one checkpoint cost, for `seerctl db info --stats` and the bench.
struct CheckpointStats {
  uint64_t generation = 0;
  bool delta = false;
  uint64_t seal_micros = 0;      // ingest stall: time spent copying state
  uint64_t encode_micros = 0;    // off-thread: sharded section encode
  uint64_t write_micros = 0;     // off-thread: atomic write + fsync + prune
  uint64_t bytes = 0;            // encoded snapshot size
  uint64_t full_bytes = 0;       // last full snapshot's size (ratio base)
  double delta_ratio = 0.0;      // bytes / full_bytes (1.0 for a full)
};

// Encodes a sealed snapshot to v2 bytes. Stripe sections are framed
// concurrently on `pool` (nullptr encodes serially); assembly order is
// fixed, so the output is byte-identical at any thread count.
std::string EncodeSealedSnapshot(const SealedSnapshot& seal, ThreadPool* pool);

// Decodes a base snapshot plus its delta chain (oldest first; a single
// full snapshot is the one-element chain). Relation stripes decode
// concurrently on `pool` straight into the slab; nullptr decodes serially.
StatusOr<std::unique_ptr<Correlator>> DecodeSnapshotChain(
    const std::vector<std::string_view>& chain, ThreadPool* pool = nullptr);

// Reads the META header of a snapshot. Cheap: touches only the magic and
// the META section, CRC-checked.
StatusOr<SnapshotMeta> ReadSnapshotMeta(std::string_view bytes);

// Walks every section of a snapshot verifying framing and CRCs.
// On corruption the status names the section (fourcc + ordinal), so a
// deep verify can say *what* is damaged, not just that the file is.
Status VerifySnapshotSections(std::string_view bytes);

namespace snapshot_internal {

constexpr std::string_view kMagicV2 = "SEERSNP2";

// Section tags, as little-endian fourcc values.
constexpr uint32_t Tag(const char (&t)[5]) {
  return static_cast<uint32_t>(static_cast<unsigned char>(t[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(t[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(t[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(t[3])) << 24;
}
constexpr uint32_t kTagMeta = Tag("META");
constexpr uint32_t kTagParams = Tag("PRMS");
constexpr uint32_t kTagPaths = Tag("PATH");
constexpr uint32_t kTagFiles = Tag("FILE");
constexpr uint32_t kTagRelHead = Tag("RLHD");
constexpr uint32_t kTagStreams = Tag("STRM");
constexpr uint32_t kTagStripe = Tag("RST0");
constexpr uint32_t kTagEnd = Tag("END!");

constexpr uint32_t kNoPath = 0xffffffffu;

void PutSection(ByteWriter* out, uint32_t tag, std::string_view payload);

// One section located in a buffer, framing parsed but payload NOT yet
// CRC-verified — verification happens per consumer (in parallel for
// stripes), so a chain decode reads each byte range exactly once.
struct RawSection {
  uint32_t tag = 0;
  uint32_t crc = 0;
  std::string_view payload;
};

// Splits a snapshot into its sections (framing checks only).
StatusOr<std::vector<RawSection>> ParseSections(std::string_view bytes);

// "RST0"-style printable name for a tag.
std::string FourCc(uint32_t tag);

// CRC check of one parsed section; names the section on failure.
Status CheckCrc(const RawSection& section, size_t ordinal);

}  // namespace snapshot_internal

}  // namespace seer

#endif  // SRC_CORE_SNAPSHOT_CODEC_H_
