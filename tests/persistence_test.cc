// Tests for the persisted correlator database: the v2 snapshot round trip
// (EncodeSnapshot/DecodeSnapshot) and its rejection of damaged or hostile
// input.
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/core/correlator.h"
#include "src/core/params_io.h"
#include "src/core/snapshot_store.h"
#include "src/util/fs.h"
#include "tests/snapshot_surgery.h"

namespace seer {
namespace {

using snapshot_internal::kTagFiles;
using snapshot_internal::kTagParams;
using snapshot_internal::kTagPaths;
using snapshot_internal::kTagStreams;
using snapshot_internal::kTagStripe;

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, RefKind kind, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = kind;
  r.path = P(path);
  r.time = time;
  return r;
}

// Loads the correlator with a couple of projects' worth of relations.
void Populate(Correlator* correlator) {
  Time t = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (int proj = 0; proj < 2; ++proj) {
      for (int f = 0; f < 6; ++f) {
        correlator->OnReference(Ref(proj + 1, RefKind::kPoint,
                                    "/p" + std::to_string(proj) + "/f" + std::to_string(f),
                                    t += kMicrosPerSecond));
      }
    }
  }
  correlator->OnFileDeleted(P("/p0/f5"), t);
}

std::unique_ptr<Correlator> RoundTrip(const Correlator& original) {
  auto decoded = Correlator::DecodeSnapshot(original.EncodeSnapshot());
  EXPECT_TRUE(decoded.ok()) << decoded.status();
  return decoded.ok() ? *std::move(decoded) : nullptr;
}

TEST(Persistence, SaveLoadRoundTrip) {
  SeerParams params;
  params.max_neighbors = 12;
  params.cluster_near = 7;
  params.cluster_far = 4;
  Correlator original(params);
  Populate(&original);

  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);

  // Same parameters.
  EXPECT_EQ(loaded->params().max_neighbors, 12);
  EXPECT_EQ(loaded->params().cluster_near, 7);

  // Same files (including the deleted mark).
  ASSERT_EQ(loaded->files().size(), original.files().size());
  const FileId deleted = loaded->files().FindPath("/p0/f5");
  ASSERT_NE(deleted, kInvalidFileId);
  EXPECT_TRUE(loaded->files().Get(deleted).deleted);

  // Identical distances for every tracked pair.
  for (int f = 1; f < 5; ++f) {
    const std::string from = "/p0/f0";
    const std::string to = "/p0/f" + std::to_string(f);
    EXPECT_EQ(loaded->Distance(from, to), original.Distance(from, to)) << to;
  }

  // Identical clustering.
  const ClusterSet a = original.BuildClusters();
  const ClusterSet b = loaded->BuildClusters();
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].members, b.clusters[i].members) << i;
  }
  EXPECT_EQ(loaded->EncodeSnapshot(), original.EncodeSnapshot());
}

// The name dates from the text format, which spelled doubles as hex
// floats; the v2 snapshot stores raw IEEE-754 bits, and the same awkward
// distances must still come back bit-exact.
TEST(Persistence, HexFloatExactness) {
  Correlator original;
  // Distances with awkward log values.
  for (int i = 0; i < 50; ++i) {
    original.OnReference(Ref(1, RefKind::kPoint, "/a", i * 2 + 1));
    original.OnReference(Ref(1, RefKind::kPoint, "/b", i * 2 + 2));
  }
  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Distance("/a", "/b"), original.Distance("/a", "/b"))
      << "snapshot serialisation must be bit-exact";
  EXPECT_EQ(loaded->EncodeSnapshot(), original.EncodeSnapshot());
}

TEST(Persistence, LoadedCorrelatorKeepsLearning) {
  Correlator original;
  Populate(&original);
  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);

  // New references extend the old database; the global sequence resumes
  // past the saved point so recency ordering stays monotone.
  const uint64_t before = loaded->files().Get(loaded->files().FindPath("/p0/f0")).last_ref_seq;
  loaded->OnReference(Ref(1, RefKind::kPoint, "/p0/f0", 999 * kMicrosPerSecond));
  EXPECT_GT(loaded->files().Get(loaded->files().FindPath("/p0/f0")).last_ref_seq, before);
  loaded->OnReference(Ref(1, RefKind::kPoint, "/p0/new", 1000 * kMicrosPerSecond));
  EXPECT_NE(loaded->files().FindPath("/p0/new"), kInvalidFileId);
  EXPECT_GE(loaded->Distance("/p0/f0", "/p0/new"), 0.0);
}

TEST(Persistence, DeletionDelayResumesAfterLoad) {
  SeerParams params;
  params.delete_delay = 2;
  Correlator original(params);
  Populate(&original);  // one deletion recorded

  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);

  // Two more deletions expire /p0/f5's grace period in the LOADED instance.
  loaded->OnReference(Ref(1, RefKind::kPoint, "/x1", 1));
  loaded->OnFileDeleted(P("/x1"), 2);
  EXPECT_GE(loaded->Distance("/p0/f0", "/p0/f5"), 0.0) << "one deletion is within the delay";
  loaded->OnReference(Ref(1, RefKind::kPoint, "/x2", 3));
  loaded->OnFileDeleted(P("/x2"), 4);
  EXPECT_LT(loaded->Distance("/p0/f0", "/p0/f5"), 0.0)
      << "purge queue should survive the reload";
}

TEST(Persistence, PathsWithSpacesSurvive) {
  // Spaces, control characters, UTF-8 and a raw non-UTF-8 byte: the
  // snapshot stores paths as length-prefixed bytes, so none needs escaping.
  const std::string paths[] = {"/docs/My Report.doc", "/docs/line\nbreak",
                               "/docs/tab\there",     "/docs/r\xc3\xa9sum\xc3\xa9.txt",
                               "/docs/raw\xff byte",  "/docs/back\\slash"};
  Correlator original;
  Time t = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& path : paths) {
      original.OnReference(Ref(1, RefKind::kPoint, path, ++t));
    }
  }
  const auto loaded = RoundTrip(original);
  ASSERT_NE(loaded, nullptr);
  for (const std::string& path : paths) {
    EXPECT_NE(loaded->files().FindPath(path), kInvalidFileId) << path;
    EXPECT_EQ(loaded->Distance(paths[0], path), original.Distance(paths[0], path)) << path;
  }
  EXPECT_GE(loaded->Distance(paths[0], paths[1]), 0.0);
  EXPECT_EQ(loaded->EncodeSnapshot(), original.EncodeSnapshot());
}

TEST(Persistence, RejectsGarbage) {
  Correlator valid;
  Populate(&valid);
  const std::string magic = valid.EncodeSnapshot().substr(0, 8);
  for (const std::string& bytes :
       {std::string(), std::string("not a database\n"), std::string("SEERSNP"), magic,
        magic + "garbage that is not a section"}) {
    const auto loaded = Correlator::DecodeSnapshot(bytes);
    ASSERT_FALSE(loaded.ok()) << '"' << bytes << '"';
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_FALSE(loaded.status().message().empty());
  }
}

TEST(Persistence, RejectsTruncation) {
  Correlator original;
  Populate(&original);
  const std::string full = original.EncodeSnapshot();
  // Every proper prefix is rejected: the format ends with an END! section.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const auto loaded = Correlator::DecodeSnapshot(std::string_view(full).substr(0, cut));
    ASSERT_FALSE(loaded.ok()) << cut;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << cut;
  }
}

TEST(Persistence, RejectsNonFiniteDistances) {
  // A CRC-valid snapshot whose first neighbour entry carries a NaN or an
  // infinite sum: no real accumulator is either, and a NaN would poison
  // every mean distance downstream.
  Correlator original;
  original.OnReference(Ref(1, RefKind::kPoint, "/a", 1));
  original.OnReference(Ref(1, RefKind::kPoint, "/b", 2));
  const std::string valid = original.EncodeSnapshot();
  // Stripe payload: u32 index | u32 lists | u32 from | u32 count | u32 id
  // | f64 log-sum (offset 20) | f64 linear-sum (offset 28) | ...
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (const size_t offset : {20u, 28u}) {
    for (const double bad : bad_values) {
      const std::string hostile =
          ResealSections(valid, [&](size_t, uint32_t tag, std::string* payload) {
            if (tag == kTagStripe) {
              PutU64At(payload, offset, std::bit_cast<uint64_t>(bad));
            }
          });
      const auto loaded = Correlator::DecodeSnapshot(hostile);
      ASSERT_FALSE(loaded.ok()) << offset << ' ' << bad;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    }
  }
}

// Every count a decoder sizes an allocation from, set to a value the
// payload cannot possibly hold, in an otherwise valid and CRC-sealed
// snapshot: the decode must end in kDataLoss, not in std::bad_alloc or a
// multi-gigabyte loop.
TEST(Persistence, HostileSectionCountsAreDataLoss) {
  Correlator original;
  Populate(&original);
  // A live process with an open file, so the first stream has non-empty
  // file-state and window lists; a pending purge so FILE has a queue.
  original.OnReference(Ref(1, RefKind::kBegin, "/p0/f1", 100 * kMicrosPerSecond));
  ASSERT_FALSE(original.files().pending_purge().empty());
  const std::string valid = original.EncodeSnapshot();
  ASSERT_TRUE(Correlator::DecodeSnapshot(valid).ok());

  struct Site {
    const char* name;
    uint32_t tag;
    // Offset of the count within the section payload.
    std::function<size_t(std::string_view payload)> offset;
  };
  // STRM: u32 removed | i32 pid* | u32 streams | first stream: i32 pid |
  // i32 parent | u64 open | u64 ref | u32 files | 33-byte states | u32
  // window.
  const auto first_stream = [](std::string_view p) { return 8 + 4 * size_t{U32At(p, 0)}; };
  const Site sites[] = {
      {"path count", kTagPaths, [](std::string_view) { return size_t{0}; }},
      {"purge count", kTagFiles,
       [](std::string_view p) { return 32 + 37 * static_cast<size_t>(U64At(p, 0)); }},
      {"removed-pid count", kTagStreams, [](std::string_view) { return size_t{0}; }},
      {"stream count", kTagStreams,
       [](std::string_view p) { return 4 + 4 * size_t{U32At(p, 0)}; }},
      {"stream file count", kTagStreams,
       [&](std::string_view p) { return first_stream(p) + 24; }},
      {"stream window count", kTagStreams,
       [&](std::string_view p) {
         const size_t files_at = first_stream(p) + 24;
         return files_at + 4 + 33 * size_t{U32At(p, files_at)};
       }},
  };
  for (const Site& site : sites) {
    for (const uint32_t count : {0xffffffffu, 0x7fffffffu}) {
      bool edited = false;
      const std::string hostile =
          ResealSections(valid, [&](size_t, uint32_t tag, std::string* payload) {
            if (tag == site.tag && !edited) {
              const size_t at = site.offset(*payload);
              ASSERT_LE(at + 4, payload->size()) << site.name;
              PutU32At(payload, at, count);
              edited = true;
            }
          });
      ASSERT_TRUE(edited) << site.name;
      const auto loaded = Correlator::DecodeSnapshot(hostile);
      ASSERT_FALSE(loaded.ok()) << site.name << ' ' << count;
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << site.name;
    }
  }
}

// A CRC-valid snapshot whose params ask for n = 2,000,000,000 neighbor
// slots: the restore would size the relation slab files x n. Decode and
// store recovery must both end in kDataLoss before any such allocation.
TEST(Persistence, HostileNeighborCountIsDataLoss) {
  Correlator original;
  Populate(&original);
  SeerParams hostile_params = original.params();
  hostile_params.max_neighbors = 2'000'000'000;
  const std::string hostile =
      ResealSections(original.EncodeSnapshot(), [&](size_t, uint32_t tag, std::string* payload) {
        if (tag == kTagParams) {
          ByteWriter w;
          w.PutString(FormatSeerParams(hostile_params));
          *payload = w.Take();
        }
      });
  ASSERT_FALSE(hostile.empty());

  const auto loaded = Correlator::DecodeSnapshot(hostile);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);

  MemFs fs;
  SnapshotStore store(&fs, "/store");
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(fs.WriteFile(store.SnapshotPath(1), hostile).ok());
  const auto recovered = store.Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace seer
