#include "src/core/snapshot_codec.h"

#include <string>

#include "src/util/crc32.h"
#include "src/util/thread_pool.h"

namespace seer {

namespace snapshot_internal {

namespace {

// The magic is "SEERSNP" plus one format digit, and only v2 is read: an
// older digit is named in the error so an operator knows to migrate, not
// to restore from backup.
Status ReadMagic(ByteReader* reader) {
  const std::string_view magic = reader->GetBytes(kMagicV2.size());
  if (magic == kMagicV2) {
    return Status::Ok();
  }
  const std::string_view family = kMagicV2.substr(0, kMagicV2.size() - 1);
  if (magic.substr(0, family.size()) == family) {
    return Status::DataLoss("snapshot: unsupported format " + std::string(magic) +
                            "; only " + std::string(kMagicV2) + " is read");
  }
  return Status::DataLoss("snapshot: bad magic");
}

}  // namespace

void PutSection(ByteWriter* out, uint32_t tag, std::string_view payload) {
  out->PutU32(tag);
  out->PutU64(payload.size());
  out->PutU32(Crc32(payload));
  out->PutBytes(payload);
}

std::string FourCc(uint32_t tag) {
  std::string out(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    if (c >= 0x20 && c < 0x7f) {
      out[i] = c;
    }
  }
  return out;
}

StatusOr<std::vector<RawSection>> ParseSections(std::string_view bytes) {
  ByteReader reader(bytes);
  SEER_RETURN_IF_ERROR(ReadMagic(&reader));
  std::vector<RawSection> sections;
  while (!reader.AtEnd()) {
    RawSection s;
    s.tag = reader.GetU32();
    const uint64_t size = reader.GetU64();
    s.crc = reader.GetU32();
    if (!reader.ok() || size > reader.remaining()) {
      return Status::DataLoss("snapshot: truncated section #" +
                              std::to_string(sections.size()));
    }
    s.payload = reader.GetBytes(static_cast<size_t>(size));
    sections.push_back(s);
  }
  if (sections.empty() || sections.back().tag != kTagEnd) {
    return Status::DataLoss("snapshot: missing end section");
  }
  return sections;
}

Status CheckCrc(const RawSection& section, size_t ordinal) {
  if (Crc32(section.payload) != section.crc) {
    return Status::DataLoss("snapshot: bad crc in section " + FourCc(section.tag) +
                            " (#" + std::to_string(ordinal) + ")");
  }
  return Status::Ok();
}

}  // namespace snapshot_internal

namespace {

using namespace snapshot_internal;  // NOLINT

// Frames one relation stripe into a complete `tag|size|crc|payload` block.
// Pure function of the stripe copy, so stripes can be framed concurrently.
std::string EncodeStripeSection(const RelationStripeCopy& stripe) {
  ByteWriter payload;
  payload.PutU32(stripe.index);
  uint32_t list_count = 0;
  for (const uint32_t count : stripe.counts) {
    if (count > 0) {
      ++list_count;
    }
  }
  payload.PutU32(list_count);
  size_t base = 0;  // packed: file f's entries follow file f-1's
  for (uint32_t f = 0; f < stripe.files; ++f) {
    const uint32_t count = stripe.counts[f];
    if (count == 0) {
      continue;
    }
    payload.PutU32(stripe.begin + f);
    payload.PutU32(count);
    for (uint32_t i = 0; i < count; ++i) {
      payload.PutU32(stripe.ids[base + i]);
      payload.PutDouble(stripe.logs[base + i]);
      payload.PutDouble(stripe.lins[base + i]);
      payload.PutU32(stripe.obs[base + i]);
      payload.PutU64(stripe.upds[base + i]);
    }
    base += count;
  }
  ByteWriter section;
  PutSection(&section, kTagStripe, payload.data());
  return section.Take();
}

}  // namespace

std::string EncodeSealedSnapshot(const SealedSnapshot& seal, ThreadPool* pool) {
  ByteWriter meta;
  meta.PutU32(2);
  meta.PutU8(seal.delta ? 1 : 0);
  meta.PutU64(seal.base_generation);
  meta.PutU64(seal.file_count);
  meta.PutU32(seal.stripe_size);
  meta.PutU32(static_cast<uint32_t>(seal.stripes.size()));

  ByteWriter params;
  params.PutString(seal.params_text);

  ByteWriter path_table;
  path_table.PutU32(static_cast<uint32_t>(seal.paths.size()));
  for (const std::string& p : seal.paths) {
    path_table.PutString(p);
  }

  ByteWriter file_table;
  file_table.PutU64(seal.records.size());
  file_table.PutU64(seal.deletion_count);
  file_table.PutU64(seal.global_ref_seq);
  file_table.PutU64(seal.references_processed);
  for (size_t id = 0; id < seal.records.size(); ++id) {
    const FileRecord& rec = seal.records[id];
    file_table.PutU32(seal.record_path_index[id]);
    file_table.PutI64(rec.last_ref_time);
    file_table.PutU64(rec.last_ref_seq);
    file_table.PutU64(rec.ref_count);
    file_table.PutU8(static_cast<uint8_t>((rec.deleted ? 1 : 0) | (rec.excluded ? 2 : 0)));
    file_table.PutU64(rec.deleted_at_deletion_count);
  }
  file_table.PutU32(static_cast<uint32_t>(seal.purge_queue.size()));
  for (const FileId id : seal.purge_queue) {
    file_table.PutU32(id);
  }

  ByteWriter rel_head;
  rel_head.PutU64(seal.update_count);
  for (const uint64_t s : seal.rng_state) {
    rel_head.PutU64(s);
  }

  ByteWriter streams;
  streams.PutU32(static_cast<uint32_t>(seal.removed_pids.size()));
  for (const Pid pid : seal.removed_pids) {
    streams.PutI32(pid);
  }
  streams.PutU32(static_cast<uint32_t>(seal.streams.size()));
  for (const auto& s : seal.streams) {
    streams.PutI32(s.pid);
    streams.PutI32(s.parent);
    streams.PutU64(s.open_counter);
    streams.PutU64(s.ref_counter);
    streams.PutU32(static_cast<uint32_t>(s.files.size()));
    for (const auto& f : s.files) {
      streams.PutU32(f.file);
      streams.PutU64(f.last_open_index);
      streams.PutU64(f.last_ref_index);
      streams.PutI64(f.last_open_time);
      streams.PutU32(f.open_nesting);
      streams.PutU8(f.compensated ? 1 : 0);
    }
    streams.PutU32(static_cast<uint32_t>(s.window.size()));
    for (const auto& [file, idx] : s.window) {
      streams.PutU32(file);
      streams.PutU64(idx);
    }
  }

  // The stripe sections dominate the encode at scale; frame them in
  // parallel. Each slot is written by exactly one worker and assembly below
  // follows slot order, so the output is identical at any thread count.
  std::vector<std::string> stripe_sections(seal.stripes.size());
  if (pool != nullptr && seal.stripes.size() > 1) {
    pool->ParallelChunks(seal.stripes.size(), [&](size_t i) {
      stripe_sections[i] = EncodeStripeSection(seal.stripes[i]);
    });
  } else {
    for (size_t i = 0; i < seal.stripes.size(); ++i) {
      stripe_sections[i] = EncodeStripeSection(seal.stripes[i]);
    }
  }

  ByteWriter out;
  out.PutBytes(kMagicV2);
  PutSection(&out, kTagMeta, meta.data());
  PutSection(&out, kTagParams, params.data());
  PutSection(&out, kTagPaths, path_table.data());
  PutSection(&out, kTagFiles, file_table.data());
  PutSection(&out, kTagRelHead, rel_head.data());
  PutSection(&out, kTagStreams, streams.data());
  for (const std::string& s : stripe_sections) {
    out.PutBytes(s);
  }
  PutSection(&out, kTagEnd, {});
  return out.Take();
}

StatusOr<SnapshotMeta> ReadSnapshotMeta(std::string_view bytes) {
  ByteReader reader(bytes);
  SEER_RETURN_IF_ERROR(ReadMagic(&reader));
  RawSection section;
  section.tag = reader.GetU32();
  const uint64_t size = reader.GetU64();
  section.crc = reader.GetU32();
  if (!reader.ok() || section.tag != kTagMeta || size > reader.remaining()) {
    return Status::DataLoss("snapshot: bad or missing meta section");
  }
  section.payload = reader.GetBytes(static_cast<size_t>(size));
  SEER_RETURN_IF_ERROR(CheckCrc(section, 0));
  ByteReader meta_reader(section.payload);
  SnapshotMeta meta;
  meta.version = meta_reader.GetU32();
  meta.delta = meta_reader.GetU8() != 0;
  meta.base_generation = meta_reader.GetU64();
  meta.file_count = meta_reader.GetU64();
  meta.stripe_size = meta_reader.GetU32();
  meta.stripe_sections = meta_reader.GetU32();
  if (!meta_reader.ok() || meta.version != 2) {
    return Status::DataLoss("snapshot: malformed meta section");
  }
  return meta;
}

Status VerifySnapshotSections(std::string_view bytes) {
  SEER_ASSIGN_OR_RETURN(const std::vector<RawSection> sections,
                        ParseSections(bytes));
  for (size_t i = 0; i < sections.size(); ++i) {
    SEER_RETURN_IF_ERROR(CheckCrc(sections[i], i));
  }
  return Status::Ok();
}

}  // namespace seer
