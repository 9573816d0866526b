// Tests for the stall-free checkpoint plane: the v2 section format (and
// the typed rejection of the retired v1 one), encoded bytes pinned by a
// committed digest, delta chain recovery byte-equality against the full
// path, async begin/finish checkpointing, and per-section damage
// diagnosis.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlator.h"
#include "src/core/durable_correlator.h"
#include "src/core/snapshot_codec.h"
#include "src/core/snapshot_store.h"
#include "src/util/fs.h"
#include "src/util/status.h"

namespace seer {
namespace {

PathId P(std::string_view path) { return GlobalPaths().Intern(path); }

FileReference Ref(Pid pid, const std::string& path, Time time) {
  FileReference r;
  r.pid = pid;
  r.kind = RefKind::kPoint;
  r.path = P(path);
  r.time = time;
  return r;
}

std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "seer_ckpt_plane_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// A deterministic pseudo-random event mix: many processes over many files
// with forks, exits, renames, deletions, and exclusions sprinkled in, so
// every section of the snapshot carries real weight.
void FeedRandomEvents(ReferenceSink* sink, std::mt19937* rng, int events, Time* t) {
  std::uniform_int_distribution<int> file_dist(0, 199);
  std::uniform_int_distribution<int> pid_dist(1, 12);
  std::uniform_int_distribution<int> kind_dist(0, 99);
  for (int i = 0; i < events; ++i) {
    const int k = kind_dist(*rng);
    const std::string path = "/w/d" + std::to_string(file_dist(*rng) % 17) + "/f" +
                             std::to_string(file_dist(*rng));
    if (k < 88) {
      sink->OnReference(Ref(pid_dist(*rng), path, *t += kMicrosPerSecond));
    } else if (k < 92) {
      const Pid parent = pid_dist(*rng);
      sink->OnProcessFork(parent, 1000 + i);
      sink->OnReference(Ref(1000 + i, path, *t += kMicrosPerSecond));
      sink->OnProcessExit(1000 + i);
    } else if (k < 95) {
      sink->OnFileRenamed(P(path), P(path + ".moved" + std::to_string(i)),
                          *t += kMicrosPerSecond);
    } else if (k < 98) {
      sink->OnFileDeleted(P(path), *t += kMicrosPerSecond);
    } else {
      sink->OnFileExcluded(P(path));
    }
  }
}

// --- format compatibility ---------------------------------------------------

// The retired v1 format is recognised by its magic and refused with a
// typed kDataLoss naming it, by every entry point that reads a snapshot.
TEST(CheckpointPlane, V1SnapshotIsUnsupported) {
  Correlator original;
  Time t = 0;
  std::mt19937 rng(7);
  FeedRandomEvents(&original, &rng, 400, &t);

  std::string v1 = original.EncodeSnapshot();
  ASSERT_EQ(v1.substr(0, 8), "SEERSNP2");
  v1[7] = '1';
  const std::string named = "unsupported format " + v1.substr(0, 8);
  const auto expect_unsupported = [&](const Status& status, const char* entry) {
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << entry;
    EXPECT_NE(status.message().find(named), std::string::npos)
        << entry << ": " << status.message();
  };
  expect_unsupported(Correlator::DecodeSnapshot(v1).status(), "DecodeSnapshot");
  expect_unsupported(DecodeSnapshotChain({v1}).status(), "DecodeSnapshotChain");
  expect_unsupported(ReadSnapshotMeta(v1).status(), "ReadSnapshotMeta");
  expect_unsupported(VerifySnapshotSections(v1), "VerifySnapshotSections");

  // A store holding only a v1 snapshot does not recover, and says why.
  const std::string dir = ScratchDir("v1_store");
  RealFs fs;
  ASSERT_TRUE(fs.MakeDirs(dir).ok());
  SnapshotStore store(&fs, dir);
  ASSERT_TRUE(store.WriteSnapshotBytes(v1, 1, /*delta=*/false).ok());
  const auto recovered = store.Recover();
  ASSERT_FALSE(recovered.ok());
  expect_unsupported(recovered.status(), "Recover");
}

TEST(CheckpointPlane, V2FullRoundTripsByteIdentically) {
  Correlator original;
  Time t = 0;
  std::mt19937 rng(11);
  FeedRandomEvents(&original, &rng, 600, &t);

  const std::string v2 = original.EncodeSnapshot();
  ASSERT_EQ(v2.substr(0, 8), "SEERSNP2");
  const auto decoded = Correlator::DecodeSnapshot(v2);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)->EncodeSnapshot(), v2);
}

// 64-bit FNV-1a, continued from `hash`.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ull) {
  for (const unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

// The encoded bytes of a full seal and of one delta seal over it are
// pinned by a digest recorded in tests/data, so any change to the v2 wire
// bytes (section order, framing, field layout) fails here.
TEST(CheckpointPlane, EncodeIsThreadCountInvariant) {
  Correlator correlator;
  Time t = 0;
  std::mt19937 rng(13);
  FeedRandomEvents(&correlator, &rng, 800, &t);
  const SealedSnapshot full = correlator.SealSnapshot();
  const std::string full_bytes = EncodeSealedSnapshot(full);

  FeedRandomEvents(&correlator, &rng, 200, &t);
  Correlator::SealRequest req;
  req.delta = true;
  req.base_generation = 1;
  req.relation_epoch = full.relation_epoch;
  req.stream_epoch = full.stream_epoch;
  const SealedSnapshot delta = correlator.SealSnapshot(req);
  ASSERT_TRUE(delta.delta);
  const std::string delta_bytes = EncodeSealedSnapshot(delta);

  char got[17];
  std::snprintf(got, sizeof(got), "%016" PRIx64, Fnv1a(delta_bytes, Fnv1a(full_bytes)));
  std::ifstream in(std::string(SEER_TEST_DATA_DIR) + "/snapshot_encode.digest");
  ASSERT_TRUE(in) << "missing tests/data/snapshot_encode.digest";
  std::string want;
  in >> want;
  EXPECT_EQ(want, got) << "full " << full_bytes.size() << " B, delta " << delta_bytes.size()
                       << " B";
}

TEST(CheckpointPlane, MetaDescribesTheSnapshot) {
  Correlator correlator;
  Time t = 0;
  correlator.OnReference(Ref(1, "/m/a", t += kMicrosPerSecond));
  correlator.OnReference(Ref(1, "/m/b", t += kMicrosPerSecond));

  const auto meta = ReadSnapshotMeta(correlator.EncodeSnapshot());
  ASSERT_TRUE(meta.ok()) << meta.status();
  EXPECT_EQ(meta->version, 2u);
  EXPECT_FALSE(meta->delta);
  EXPECT_EQ(meta->file_count, correlator.files().size());
}

// --- delta chains vs the serial full path -----------------------------------

// The core property of the delta plane: recovering base + deltas from the
// store reproduces, byte for byte, the state the full encode describes —
// across randomized workloads, through the store and the chain decode.
TEST(CheckpointPlane, DeltaChainRecoveryMatchesFullSnapshot) {
  RealFs fs;
  for (const uint32_t seed : {3u, 17u, 29u}) {
    const std::string dir = ScratchDir("chain_eq_" + std::to_string(seed));
    SnapshotStoreOptions options;
    options.full_checkpoint_every = 4;
    auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    DurableCorrelator& durable = **opened;

    std::mt19937 rng(seed);
    Time t = 0;
    std::uniform_int_distribution<int> burst(50, 300);
    for (int round = 0; round < 6; ++round) {
      FeedRandomEvents(&durable, &rng, burst(rng), &t);
      ASSERT_TRUE(durable.Checkpoint().ok()) << "seed " << seed << " round " << round;
    }
    const std::string live = durable.correlator().EncodeSnapshot();

    // The store's own recovery (nothing in the WAL after the last
    // checkpoint, so this is pure chain folding).
    const auto recovered = durable.store().Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live) << "seed " << seed;

    // And the chain decode directly.
    const auto files = durable.store().ListSnapshotFiles();
    ASSERT_TRUE(files.ok());
    size_t first = files->size() - 1;
    while ((*files)[first].delta) {
      ASSERT_GT(first, 0u);
      --first;
    }
    ASSERT_LT(first, files->size() - 1) << "workload produced no delta chain";
    std::vector<std::string> chain_bytes;
    for (size_t k = first; k < files->size(); ++k) {
      const auto& info = (*files)[k];
      const auto bytes = fs.ReadFile(info.delta ? durable.store().DeltaPath(info.generation)
                                                : durable.store().SnapshotPath(info.generation));
      ASSERT_TRUE(bytes.ok());
      chain_bytes.push_back(*bytes);
    }
    const std::vector<std::string_view> views(chain_bytes.begin(), chain_bytes.end());
    const auto folded = DecodeSnapshotChain(views);
    ASSERT_TRUE(folded.ok()) << folded.status();
    EXPECT_EQ((*folded)->EncodeSnapshot(), live) << "seed " << seed;
  }
}

// A WAL tail on top of a delta-chain head must replay too.
TEST(CheckpointPlane, ChainPlusWalTailRecoversEverything) {
  RealFs fs;
  const std::string dir = ScratchDir("chain_wal_tail");
  SnapshotStoreOptions options;
  options.full_checkpoint_every = 3;
  auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  std::mt19937 rng(41);
  Time t = 0;
  for (int round = 0; round < 4; ++round) {
    FeedRandomEvents(&durable, &rng, 150, &t);
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  FeedRandomEvents(&durable, &rng, 120, &t);  // tail: only in the WAL
  ASSERT_TRUE(durable.Sync().ok());
  const std::string live = durable.correlator().EncodeSnapshot();

  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GT(recovered->wal_records_replayed, 0u);
  EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live);
}

// --- async checkpointing ----------------------------------------------------

TEST(CheckpointPlane, AsyncCheckpointOverlapsIngest) {
  RealFs fs;
  const std::string dir = ScratchDir("async");
  auto opened = DurableCorrelator::Open(&fs, dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  std::mt19937 rng(5);
  Time t = 0;
  FeedRandomEvents(&durable, &rng, 500, &t);

  const uint64_t before = durable.generation();
  ASSERT_TRUE(durable.BeginCheckpoint().ok());
  EXPECT_TRUE(durable.checkpoint_in_flight());
  EXPECT_GT(durable.generation(), before) << "WAL rotates before the encode finishes";

  // Ingest keeps going while the encode/write runs behind us; these events
  // land in the new generation's WAL.
  FeedRandomEvents(&durable, &rng, 300, &t);
  ASSERT_TRUE(durable.Sync().ok());
  const std::string live = durable.correlator().EncodeSnapshot();

  ASSERT_TRUE(durable.FinishCheckpoint().ok());
  EXPECT_FALSE(durable.checkpoint_in_flight());
  const CheckpointStats& stats = durable.last_checkpoint_stats();
  EXPECT_EQ(stats.generation, durable.generation());
  EXPECT_TRUE(stats.delta) << "rides the genesis full written by Open()";
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.delta_ratio, 0.0);

  // Recovery folds the async snapshot plus the WAL tail written during it.
  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live);
  EXPECT_TRUE(durable.store().Verify().ok());
}

TEST(CheckpointPlane, BeginCheckpointSettlesThePreviousOne) {
  RealFs fs;
  const std::string dir = ScratchDir("async_chain");
  SnapshotStoreOptions options;
  options.full_checkpoint_every = 4;
  auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;

  std::mt19937 rng(23);
  Time t = 0;
  for (int round = 0; round < 5; ++round) {
    FeedRandomEvents(&durable, &rng, 200, &t);
    ASSERT_TRUE(durable.BeginCheckpoint().ok()) << "round " << round;
  }
  ASSERT_TRUE(durable.FinishCheckpoint().ok());
  // Back-to-back Begins produced a healthy base+delta store.
  const auto files = durable.store().ListSnapshotFiles();
  ASSERT_TRUE(files.ok());
  bool any_delta = false;
  for (const auto& f : *files) {
    any_delta |= f.delta;
  }
  EXPECT_TRUE(any_delta);
  EXPECT_TRUE(durable.store().Verify(/*deep=*/true).ok());

  const std::string live = durable.correlator().EncodeSnapshot();
  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->correlator->EncodeSnapshot(), live);
}

// --- damage diagnosis -------------------------------------------------------

TEST(CheckpointPlane, VerifyNamesTheDamagedSection) {
  Correlator correlator;
  Time t = 0;
  std::mt19937 rng(31);
  FeedRandomEvents(&correlator, &rng, 300, &t);
  std::string bytes = correlator.EncodeSnapshot();

  const auto sections = snapshot_internal::ParseSections(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status();
  ASSERT_GT(sections->size(), 3u);
  // Flip one payload byte of the third section; the error must name it by
  // fourcc and ordinal, not just "corrupt".
  const auto& victim = (*sections)[2];
  ASSERT_FALSE(victim.payload.empty());
  const size_t offset = static_cast<size_t>(victim.payload.data() - bytes.data());
  bytes[offset] ^= 0x40;

  const Status status = VerifySnapshotSections(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad crc in section"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(snapshot_internal::FourCc(victim.tag)), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("#2"), std::string::npos) << status.message();

  // With several relation stripes damaged, decode names the lowest stripe
  // index, whichever order the sections are checked in.
  FeedRandomEvents(&correlator, &rng, 900, &t);
  std::string striped = correlator.EncodeSnapshot();
  const auto striped_sections = snapshot_internal::ParseSections(striped);
  ASSERT_TRUE(striped_sections.ok()) << striped_sections.status();
  std::vector<snapshot_internal::RawSection> stripes;
  for (const auto& section : *striped_sections) {
    if (section.tag == snapshot_internal::kTagStripe) {
      stripes.push_back(section);
    }
  }
  ASSERT_GE(stripes.size(), 3u);
  uint32_t lowest = 0;
  for (size_t k : {stripes.size() - 1, size_t{1}}) {
    ByteReader index_reader(stripes[k].payload);
    lowest = index_reader.GetU32();
    striped[static_cast<size_t>(stripes[k].payload.data() - striped.data()) + 5] ^= 0x40;
  }
  const Status decoded = Correlator::DecodeSnapshot(striped).status();
  EXPECT_NE(decoded.message().find("bad crc in section RST0 (#" + std::to_string(lowest) + ")"),
            std::string::npos)
      << decoded.message();
}

TEST(CheckpointPlane, StoreVerifyReportsDamagedChainFile) {
  RealFs fs;
  const std::string dir = ScratchDir("verify_deep");
  SnapshotStoreOptions options;
  options.full_checkpoint_every = 3;
  auto opened = DurableCorrelator::Open(&fs, dir, {}, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  DurableCorrelator& durable = **opened;
  std::mt19937 rng(37);
  Time t = 0;
  // Genesis full, deltas at 2/3, full at 4, delta head at 5 — so the
  // newest chain is full-4 + delta-5 and damaging the head delta breaks it.
  for (int round = 0; round < 4; ++round) {
    FeedRandomEvents(&durable, &rng, 150, &t);
    ASSERT_TRUE(durable.Checkpoint().ok());
  }
  ASSERT_TRUE(durable.store().Verify(/*deep=*/true).ok());

  // Damage a delta in the newest chain: shallow Verify (which folds the
  // newest chain) and deep Verify must both fail, naming a section.
  const auto files = durable.store().ListSnapshotFiles();
  ASSERT_TRUE(files.ok());
  std::string delta_path;
  for (const auto& f : *files) {
    if (f.delta) {
      delta_path = durable.store().DeltaPath(f.generation);
    }
  }
  ASSERT_FALSE(delta_path.empty());
  auto bytes = fs.ReadFile(delta_path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.size() / 2] ^= 0x01;
  ASSERT_TRUE(fs.WriteFile(delta_path, damaged).ok());

  const Status shallow = durable.store().Verify();
  EXPECT_FALSE(shallow.ok());
  const Status deep = durable.store().Verify(/*deep=*/true);
  EXPECT_FALSE(deep.ok());
  // Recovery still works — it falls back past the damaged head.
  const auto recovered = durable.store().Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GT(recovered->snapshots_discarded, 0u);
}

}  // namespace
}  // namespace seer
