// Robustness fuzzing for every input surface: the trace format, the
// control file, the parameter file, the wire codecs, and the persisted
// snapshot. None of them may crash, hang, or accept-and-corrupt on
// arbitrary bytes.
#include <algorithm>
#include <sstream>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlator.h"
#include "src/core/params_io.h"
#include "src/core/snapshot_codec.h"
#include "src/observer/control_file.h"
#include "src/server/wire.h"
#include "src/trace/trace_io.h"
#include "src/util/rng.h"
#include "tests/snapshot_surgery.h"

namespace seer {
namespace {

std::string RandomText(Rng* rng, size_t max_len) {
  std::string out;
  const size_t len = rng->NextBounded(max_len);
  for (size_t i = 0; i < len; ++i) {
    const int roll = static_cast<int>(rng->NextBounded(100));
    if (roll < 70) {
      out += static_cast<char>(' ' + rng->NextBounded(95));  // printable
    } else if (roll < 85) {
      out += '\n';
    } else if (roll < 95) {
      // Format-relevant tokens, to get past the first parse stages.
      const char* tokens[] = {"transient", "files",  "list", "end",   "params",
                              "open",    "ok",     "-",    "0x1.8p+1", "meaningless",
                              "critical", "kn",    "42",   "-7",    "relations"};
      out += tokens[rng->NextBounded(15)];
      out += ' ';
    } else {
      out += static_cast<char>(rng->NextBounded(256));  // raw bytes
    }
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t Seed() const { return static_cast<uint64_t>(GetParam()) * 48271 + 11; }
};

// The snapshot of a small correlator that fills every section: two
// projects, live processes with open files, a fork and exit, and a
// pending purge.
std::string FuzzSnapshot() {
  Correlator correlator;
  for (int i = 0; i < 60; ++i) {
    FileReference ref;
    ref.pid = 1 + i % 2;
    ref.kind = i % 5 == 0 ? RefKind::kBegin : RefKind::kPoint;
    ref.path = GlobalPaths().Intern("/m" + std::to_string(i % 2) + "/f" + std::to_string(i % 9));
    ref.time = i + 1;
    correlator.OnReference(ref);
  }
  correlator.OnProcessFork(1, 7);
  correlator.OnProcessExit(7);
  correlator.OnFileDeleted(GlobalPaths().Intern("/m0/f8"), 61);
  return correlator.EncodeSnapshot();
}

// The contract for hostile snapshot bytes: a typed error with a message,
// or a correlator whose clusters are well-formed.
void ExpectUsableOrRejected(const StatusOr<std::unique_ptr<Correlator>>& loaded) {
  if (!loaded.ok()) {
    EXPECT_FALSE(loaded.status().message().empty());
    return;
  }
  const Correlator& correlator = **loaded;
  const ClusterSet clusters = correlator.BuildClusters();
  for (const Cluster& c : clusters.clusters) {
    EXPECT_FALSE(c.members.empty());
    for (const FileId id : c.members) {
      EXPECT_LT(id, correlator.files().size());
    }
  }
}

TEST_P(ParserFuzz, TraceLinesNeverCrash) {
  Rng rng(Seed());
  for (int i = 0; i < 300; ++i) {
    const std::string text = RandomText(&rng, 200);
    std::istringstream in(text);
    TraceReader reader(in);
    size_t events = 0;
    for (;;) {
      const auto next = reader.Next();
      if (!next.ok()) {
        EXPECT_FALSE(next.status().message().empty());
        continue;  // malformed line: reader stays usable
      }
      if (!next->has_value()) {
        break;
      }
      ++events;
    }
    // Parsed or rejected — either is fine; no crash is the property.
    EXPECT_LE(events, 300u);
  }
}

TEST_P(ParserFuzz, ControlFileNeverCrashes) {
  Rng rng(Seed() ^ 1);
  for (int i = 0; i < 300; ++i) {
    const auto config = ParseObserverControlFile(RandomText(&rng, 300));
    if (!config.has_value()) {
      EXPECT_FALSE(config.status().message().empty());
    }
  }
}

TEST_P(ParserFuzz, ParamsFileNeverCrashes) {
  Rng rng(Seed() ^ 2);
  for (int i = 0; i < 300; ++i) {
    const auto params = ParseSeerParams(RandomText(&rng, 300));
    if (params.has_value()) {
      // Anything accepted must still satisfy the structural constraint.
      EXPECT_LT(params->cluster_far, params->cluster_near);
    }
  }
}

// A snapshot built from shuffled pieces of a valid one: sections dropped,
// duplicated, swapped, or swapped for random payloads under real tags,
// sometimes with unframed bytes after them. The decoder must reject or
// accept — never crash or throw.
TEST_P(ParserFuzz, DatabaseLoaderNeverCrashes) {
  const std::string valid = FuzzSnapshot();
  const auto parsed = snapshot_internal::ParseSections(valid);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  std::vector<std::pair<uint32_t, std::string>> original;
  for (const auto& section : *parsed) {
    original.emplace_back(section.tag, std::string(section.payload));
  }

  Rng rng(Seed() ^ 3);
  for (int i = 0; i < 200; ++i) {
    auto sections = original;
    const int edits = 1 + static_cast<int>(rng.NextBounded(3));
    for (int e = 0; e < edits && !sections.empty(); ++e) {
      const size_t at = rng.NextBounded(sections.size());
      switch (rng.NextBounded(4)) {
        case 0:
          sections.erase(sections.begin() + static_cast<std::ptrdiff_t>(at));
          break;
        case 1:
          sections.insert(sections.begin() + static_cast<std::ptrdiff_t>(
                                                 rng.NextBounded(sections.size() + 1)),
                          sections[at]);
          break;
        case 2:
          std::swap(sections[at], sections[rng.NextBounded(sections.size())]);
          break;
        default:
          sections[at].second = RandomText(&rng, 64);
          break;
      }
    }
    ByteWriter out;
    out.PutBytes(snapshot_internal::kMagicV2);
    for (const auto& [tag, payload] : sections) {
      snapshot_internal::PutSection(&out, tag, payload);
    }
    if (rng.NextBounded(8) == 0) {
      out.PutBytes(RandomText(&rng, 32));
    }
    ExpectUsableOrRejected(Correlator::DecodeSnapshot(out.data()));
  }
}

// Mutate bytes inside the section payloads of a VALID snapshot and re-seal
// every CRC, so the mutations reach the section decoders. Half the
// mutations overwrite a 32-bit field (often a section's leading count)
// with a boundary value. The decoder must either reject the snapshot with
// a typed error or produce a structurally sound correlator — never crash
// or throw.
TEST_P(ParserFuzz, MutatedDatabaseHandled) {
  const std::string valid = FuzzSnapshot();
  const auto parsed = snapshot_internal::ParseSections(valid);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const size_t section_count = parsed->size();
  const uint32_t boundary[] = {0, 1, 0x7fffffffu, 0x80000000u, 0xffffffffu};

  Rng rng(Seed() ^ 4);
  for (int i = 0; i < 400; ++i) {
    const size_t target = rng.NextBounded(section_count);
    const std::string mutated =
        ResealSections(valid, [&](size_t ordinal, uint32_t, std::string* payload) {
          if (ordinal != target || payload->size() < 4) {
            return;
          }
          const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
          for (int m = 0; m < mutations; ++m) {
            if (rng.NextBounded(2) == 0) {
              (*payload)[rng.NextBounded(payload->size())] =
                  static_cast<char>(rng.NextBounded(256));
            } else {
              const size_t at =
                  rng.NextBounded(4) == 0 ? 0 : rng.NextBounded(payload->size() - 3);
              PutU32At(payload, at, boundary[rng.NextBounded(5)]);
            }
          }
        });
    ASSERT_FALSE(mutated.empty());
    ExpectUsableOrRejected(Correlator::DecodeSnapshot(mutated));
  }
}

// Random bytes through the wire-frame decoder: it must return frames,
// "need more", or a latched typed error — never crash or hang — no matter
// how the stream is chunked or where it is cut off.
TEST_P(ParserFuzz, FrameDecoderNeverCrashes) {
  Rng rng(Seed() ^ 5);
  for (int i = 0; i < 200; ++i) {
    // Mix of raw garbage and valid frame bytes, so the fuzz also walks the
    // accept path and the boundary between consecutive frames.
    std::string stream;
    const int pieces = 1 + static_cast<int>(rng.NextBounded(6));
    for (int p = 0; p < pieces; ++p) {
      if (rng.NextBounded(2) == 0) {
        stream += RandomText(&rng, 64);
      } else {
        const auto type = static_cast<wire::FrameType>(1 + rng.NextBounded(3));
        stream += wire::EncodeFrame(type, static_cast<uint32_t>(rng.NextBounded(1u << 16)),
                                    RandomText(&rng, 96));
      }
    }
    // Truncate at a random point: mid-header, mid-payload, anywhere.
    if (!stream.empty() && rng.NextBounded(2) == 0) {
      stream.resize(rng.NextBounded(stream.size()));
    }

    wire::FrameDecoder decoder;
    size_t pos = 0;
    size_t frames = 0;
    bool dead = false;
    while (pos < stream.size() && !dead) {
      const size_t n = std::min<size_t>(1 + rng.NextBounded(48), stream.size() - pos);
      decoder.Append(std::string_view(stream).substr(pos, n));
      pos += n;
      for (;;) {
        const auto next = decoder.Next();
        if (!next.ok()) {
          EXPECT_FALSE(next.status().message().empty());
          // Latched: every later call reports the same corruption.
          EXPECT_FALSE(decoder.Next().ok());
          dead = true;
          break;
        }
        if (!next->has_value()) {
          break;
        }
        ++frames;
        EXPECT_LE((*next)->payload.size(), wire::kMaxFramePayload);
      }
    }
    EXPECT_LE(frames, static_cast<size_t>(pieces));
  }
}

// Random bytes through the control codec and the event-payload decoder:
// reject or accept, never crash. Event payloads additionally get valid
// prefixes with torn tails (the crash-truncation case).
TEST_P(ParserFuzz, ControlAndEventPayloadsNeverCrash) {
  Rng rng(Seed() ^ 6);
  for (int i = 0; i < 200; ++i) {
    const std::string bytes = RandomText(&rng, 160);
    const auto request = wire::DecodeControlRequest(bytes);
    if (!request.ok()) {
      EXPECT_FALSE(request.status().message().empty());
    }
    const auto response = wire::DecodeControlResponse(bytes);
    if (!response.ok()) {
      EXPECT_FALSE(response.status().message().empty());
    }
    const auto events = wire::DecodeEvents(bytes);
    if (!events.ok()) {
      EXPECT_FALSE(events.status().message().empty());
    }
  }

  std::vector<TraceEvent> events;
  for (int i = 0; i < 40; ++i) {
    TraceEvent e;
    e.seq = static_cast<uint64_t>(i);
    e.time = i * 1000;
    e.pid = 7;
    e.op = Op::kOpen;
    e.path = "/fz/f" + std::to_string(i % 5);
    e.fd = i;
    events.push_back(e);
  }
  const std::string valid = wire::EncodeEvents(events);
  for (int i = 0; i < 100; ++i) {
    const auto torn =
        wire::DecodeEvents(std::string_view(valid).substr(0, rng.NextBounded(valid.size())));
    if (!torn.ok()) {
      EXPECT_EQ(StatusCode::kDataLoss, torn.status().code());
    }
  }
}

// The zero-copy arena decoder against the legacy DecodeEvents on the same
// bytes: same accept/reject verdict, same typed error (code AND message —
// the arena reimplements the binary-trace scan, and its error surface must
// not drift), and identical decoded values on accepts. Inputs cover raw
// garbage, torn valid payloads (including dictionary-definition
// truncations), and bit flips inside the dictionary region.
TEST_P(ParserFuzz, ArenaDecodeMatchesLegacy) {
  Rng rng(Seed() ^ 7);
  wire::EventArena arena;  // reused across every Decode, like a shard's

  const auto check_parity = [&](std::string_view payload) {
    const auto legacy = wire::DecodeEvents(payload);
    const Status arena_status = arena.Decode(payload);
    ASSERT_EQ(legacy.ok(), arena_status.ok()) << "payload size " << payload.size();
    if (!legacy.ok()) {
      EXPECT_EQ(legacy.status().code(), arena_status.code());
      EXPECT_EQ(legacy.status().message(), arena_status.message());
      return;
    }
    const std::vector<InternedEvent>& got = arena.events();
    ASSERT_EQ(legacy->size(), got.size());
    for (size_t i = 0; i < got.size(); ++i) {
      const TraceEvent& want = (*legacy)[i];
      EXPECT_EQ(want.seq, got[i].seq) << i;
      EXPECT_EQ(want.time, got[i].time) << i;
      EXPECT_EQ(want.pid, got[i].pid) << i;
      EXPECT_EQ(want.uid, got[i].uid) << i;
      EXPECT_EQ(want.op, got[i].op) << i;
      EXPECT_EQ(want.status, got[i].status) << i;
      EXPECT_EQ(want.path, GlobalPaths().PathOf(got[i].path)) << i;
      EXPECT_EQ(want.path2, GlobalPaths().PathOf(got[i].path2)) << i;
      EXPECT_EQ(want.fd, got[i].fd) << i;
      EXPECT_EQ(want.write, got[i].write) << i;
      EXPECT_EQ(want.detail, got[i].detail) << i;
    }
  };

  // Raw garbage: both decoders must agree byte-for-byte on the rejection.
  for (int i = 0; i < 150; ++i) {
    check_parity(RandomText(&rng, 160));
  }

  // A valid payload with a path-heavy dictionary (every event defines a
  // new entry), truncated at every interesting point — including inside
  // dictionary definitions, the arena's trickiest region.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 50; ++i) {
    TraceEvent e;
    e.seq = static_cast<uint64_t>(i);
    e.time = i * 1000;
    e.pid = 7;
    e.op = i % 7 == 3 ? Op::kRename : Op::kOpen;
    e.path = "/fz/arena-dict-" + std::to_string(i);  // always a fresh entry
    if (e.op == Op::kRename) {
      e.path2 = "/fz/renamed-" + std::to_string(i);
    }
    e.fd = i;
    events.push_back(e);
  }
  const std::string valid = wire::EncodeEvents(events);
  check_parity(valid);
  for (size_t cut = 0; cut < valid.size(); cut += 1 + rng.NextBounded(3)) {
    check_parity(std::string_view(valid).substr(0, cut));
  }

  // Bit flips in the dictionary region: non-dense ids, oversized lengths,
  // bad op/status bytes — whatever the flip lands on, the two decoders
  // must fail (or accept) identically.
  for (int i = 0; i < 150; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      mutated[8 + rng.NextBounded(mutated.size() - 8)] ^=
          static_cast<char>(1 << rng.NextBounded(8));
    }
    check_parity(mutated);
  }
}

// NextView must hand out the same frames as Next under any chunking, with
// payload views that stay valid until the next Append — the contract the
// server's read loop leans on.
TEST_P(ParserFuzz, FrameViewMatchesOwnedFrameUnderRandomChunking) {
  Rng rng(Seed() ^ 8);
  for (int i = 0; i < 100; ++i) {
    std::vector<std::string> payloads;
    std::string stream;
    const int count = 1 + static_cast<int>(rng.NextBounded(5));
    for (int p = 0; p < count; ++p) {
      payloads.push_back(RandomText(&rng, 3000));  // big enough to straddle reads
      stream += wire::EncodeFrame(wire::FrameType::kEvents,
                                  static_cast<uint32_t>(p + 1), payloads.back());
    }
    wire::FrameDecoder decoder;
    size_t pos = 0;
    size_t seen = 0;
    while (pos < stream.size()) {
      const size_t n = std::min<size_t>(1 + rng.NextBounded(512), stream.size() - pos);
      decoder.Append(std::string_view(stream).substr(pos, n));
      pos += n;
      for (;;) {
        const auto view = decoder.NextView();
        ASSERT_TRUE(view.ok()) << view.status().message();
        if (!view->has_value()) {
          break;
        }
        ASSERT_LT(seen, payloads.size());
        EXPECT_EQ(static_cast<uint32_t>(seen + 1), (*view)->channel);
        // The view must survive further NextView calls (no compaction
        // until Append) — compare after a copy taken now and again below.
        EXPECT_EQ(payloads[seen], (*view)->payload);
        ++seen;
      }
    }
    EXPECT_EQ(payloads.size(), seen);
    EXPECT_TRUE(decoder.AtFrameBoundary());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(0, 4));

}  // namespace
}  // namespace seer
