// Tests for the utility layer: deterministic RNG, statistics, path
// handling (including the directory-distance measure of Section 3.2), the
// clustering engine's support structures (DSU, FlatMap), and thread-count
// validation for SEER_THREADS and --io-threads.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/dsu.h"
#include "src/util/flat_map.h"
#include "src/util/path.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_count.h"

namespace seer {
namespace {

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoundedInRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values reachable
}

// The paper's unknown-file-size distribution: geometric with p = 0.00007,
// mean 14284 bytes.
TEST(Rng, GeometricMeanMatchesPaper) {
  Rng rng(11);
  double total = 0;
  constexpr int kSamples = 200'000;
  for (int i = 0; i < kSamples; ++i) {
    total += static_cast<double>(rng.NextGeometric(0.00007));
  }
  const double mean = total / kSamples;
  EXPECT_NEAR(mean, 1.0 / 0.00007, 300.0);  // ~14286 +- 2%
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double total = 0;
  for (int i = 0; i < 100'000; ++i) {
    total += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(total / 100'000, 5.0, 0.15);
}

TEST(Rng, LogNormalMedian) {
  Rng rng(17);
  std::vector<double> samples;
  for (int i = 0; i < 20'001; ++i) {
    samples.push_back(rng.NextLogNormal(std::log(2.0), 1.0));
  }
  EXPECT_NEAR(Percentile(samples, 50), 2.0, 0.15);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  int low = 0;
  for (int i = 0; i < 10'000; ++i) {
    const uint64_t r = rng.NextZipf(100, 1.1);
    ASSERT_LT(r, 100u);
    if (r < 10) {
      ++low;
    }
  }
  EXPECT_GT(low, 5'000);  // top 10% of ranks get most of the mass
}

// --- stats ---------------------------------------------------------------------

TEST(Stats, SummaryBasics) {
  const Summary s = Summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.total, 10.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, SummaryOddMedian) {
  EXPECT_DOUBLE_EQ(Summarize({5.0, 1.0, 3.0}).median, 3.0);
}

TEST(Stats, SummaryEmpty) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, Ci99ShrinksWithSamples) {
  std::vector<double> few = {1, 2, 3, 4, 5};
  std::vector<double> many;
  for (int i = 0; i < 500; ++i) {
    many.push_back(static_cast<double>(i % 5 + 1));
  }
  EXPECT_GT(Summarize(few).ci99_half_width, Summarize(many).ci99_half_width);
}

TEST(Stats, WelfordMatchesSummary) {
  Welford w;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    w.Add(x);
  }
  EXPECT_DOUBLE_EQ(w.Mean(), 5.0);
  EXPECT_NEAR(w.Stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, GeometricMeanOnline) {
  RunningGeometricMean g;
  g.Add(2.0);
  g.Add(8.0);
  EXPECT_NEAR(g.Mean(), 4.0, 1e-12);
}

TEST(Stats, GeometricMeanZeroFloor) {
  RunningGeometricMean g(0.5);
  g.Add(0.0);
  g.Add(0.0);
  EXPECT_NEAR(g.Mean(), 0.5, 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 25.0);
}

// --- path ---------------------------------------------------------------------

TEST(Path, NormalizeCollapsesAndResolves) {
  EXPECT_EQ(NormalizePath("/a//b/./c"), "/a/b/c");
  EXPECT_EQ(NormalizePath("/a/b/../c"), "/a/c");
  EXPECT_EQ(NormalizePath("/../a"), "/a");
  EXPECT_EQ(NormalizePath("/"), "/");
  EXPECT_EQ(NormalizePath(""), ".");
}

TEST(Path, NormalizeIsIdempotent) {
  for (const char* p : {"/a/b/../c", "a/./b", "/x//y/z/..", "/", "..", "a/.."}) {
    EXPECT_EQ(NormalizePath(NormalizePath(p)), NormalizePath(p)) << p;
  }
}

TEST(Path, CanonicalInputsComeBackUnchanged) {
  for (const char* p : {"/", "/a/b", "a/b", "/a/.../b", "/.hidden/x", "a", "/a"}) {
    EXPECT_EQ(NormalizePath(p), p) << p;
  }
}

TEST(Path, NonCanonicalInputsStillNormalize) {
  EXPECT_EQ(NormalizePath("//a"), "/a");
  EXPECT_EQ(NormalizePath("/a/"), "/a");
  EXPECT_EQ(NormalizePath("a/./b"), "a/b");
  EXPECT_EQ(NormalizePath("a/.."), ".");
  EXPECT_EQ(NormalizePath("../a"), "../a");
  EXPECT_EQ(NormalizePath("."), ".");
  EXPECT_EQ(NormalizePath(""), ".");
  EXPECT_EQ(NormalizePath("/a//b/"), "/a/b");
  EXPECT_EQ(NormalizePath("/.."), "/");
  EXPECT_EQ(NormalizePath("a/../.."), "..");
}

// Split-and-stack reference normalizer, independent of the library's.
std::string ReferenceNormalize(const std::string& path) {
  const bool absolute = !path.empty() && path[0] == '/';
  std::vector<std::string> stack;
  size_t start = 0;
  while (start <= path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string::npos) {
      end = path.size();
    }
    const std::string part = path.substr(start, end - start);
    start = end + 1;
    if (part.empty() || part == ".") {
      continue;
    }
    if (part == "..") {
      if (!stack.empty() && stack.back() != "..") {
        stack.pop_back();
      } else if (!absolute) {
        stack.push_back(part);
      }
      continue;
    }
    stack.push_back(part);
  }
  std::string out = absolute ? "/" : "";
  for (size_t i = 0; i < stack.size(); ++i) {
    out += (i > 0 ? "/" : "") + stack[i];
  }
  return out.empty() ? "." : out;
}

TEST(Path, NormalizeMatchesReferenceOnRandomCorpus) {
  const char* const kParts[] = {"a", ".", "..", "", "..."};
  Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    std::string path = rng.NextBounded(2) == 0 ? "/" : "";
    const uint64_t parts = rng.NextBounded(6);
    for (uint64_t i = 0; i < parts; ++i) {
      if (i > 0) {
        path += '/';
      }
      path += kParts[rng.NextBounded(5)];
    }
    if (rng.NextBounded(4) == 0) {
      path += '/';
    }
    ASSERT_EQ(NormalizePath(path), ReferenceNormalize(path)) << '"' << path << '"';
  }
}

TEST(Path, AbsoluteAgainstCwd) {
  EXPECT_EQ(AbsolutePath("/home/u", "proj/a.c"), "/home/u/proj/a.c");
  EXPECT_EQ(AbsolutePath("/home/u", "/etc/passwd"), "/etc/passwd");
  EXPECT_EQ(AbsolutePath("/home/u", "../v/x"), "/home/v/x");
}

TEST(Path, DirnameBasename) {
  EXPECT_EQ(Dirname("/a/b/c"), "/a/b");
  EXPECT_EQ(Dirname("/a"), "/");
  EXPECT_EQ(Dirname("/"), "/");
  EXPECT_EQ(Basename("/a/b/c"), "c");
  EXPECT_EQ(Basename("/"), "");
}

TEST(Path, DotFileDetection) {
  EXPECT_TRUE(IsDotFile("/home/u/.login"));
  EXPECT_TRUE(IsDotFile(".cshrc"));
  EXPECT_FALSE(IsDotFile("/home/u/file"));
  EXPECT_FALSE(IsDotFile("/home/.hidden/file"));
}

TEST(Path, IsUnder) {
  EXPECT_TRUE(IsUnder("/tmp/x", "/tmp"));
  EXPECT_TRUE(IsUnder("/tmp", "/tmp"));
  EXPECT_FALSE(IsUnder("/tmpx/y", "/tmp"));
  EXPECT_TRUE(IsUnder("/anything", "/"));
}

// Section 3.2: zero within a directory, growing with tree separation.
TEST(Path, DirectoryDistance) {
  EXPECT_EQ(DirectoryDistance("/a/b/x.c", "/a/b/y.c"), 0);
  EXPECT_EQ(DirectoryDistance("/a/b/x.c", "/a/c/y.c"), 2);
  EXPECT_EQ(DirectoryDistance("/a/b/x.c", "/a/b/c/y.c"), 1);
  EXPECT_EQ(DirectoryDistance("/a/x", "/z/q/r/y"), 4);
  EXPECT_EQ(DirectoryDistance("/x", "/y"), 0);  // both in the root
}

TEST(Path, Extension) {
  EXPECT_EQ(Extension("/p/a.c"), "c");
  EXPECT_EQ(Extension("/p/a.tar.gz"), "gz");
  EXPECT_EQ(Extension("/p/Makefile"), "");
  EXPECT_EQ(Extension("/p/.hidden"), "");
}

// --- dsu ---------------------------------------------------------------------

TEST(Dsu, BasicUnionFind) {
  Dsu dsu(8);
  EXPECT_NE(dsu.Find(0), dsu.Find(1));
  dsu.Union(0, 1);
  dsu.Union(2, 3);
  EXPECT_EQ(dsu.Find(0), dsu.Find(1));
  EXPECT_EQ(dsu.Find(2), dsu.Find(3));
  EXPECT_NE(dsu.Find(1), dsu.Find(2));
  dsu.Union(1, 3);
  EXPECT_EQ(dsu.Find(0), dsu.Find(3));
  EXPECT_NE(dsu.Find(0), dsu.Find(7));
  dsu.Union(4, 4);  // self-union is a no-op
  EXPECT_EQ(dsu.Find(4), dsu.Find(4));
}

// Union by size bounds every root chain at log2(n) regardless of merge
// order. The tournament order (merge equal-size trees pairwise) is the
// worst case for tree height; the singleton-append order used to produce
// near-linear chains with naive linking.
TEST(Dsu, ChainLengthBoundedUnderPathologicalOrders) {
  constexpr uint32_t n = 1024;
  constexpr size_t log2_n = 10;

  Dsu tournament(n);
  for (uint32_t gap = 1; gap < n; gap *= 2) {
    for (uint32_t i = 0; i + gap < n; i += 2 * gap) {
      tournament.Union(i, i + gap);
    }
  }
  for (uint32_t x = 0; x < n; ++x) {
    EXPECT_LE(tournament.ChainLength(x), log2_n) << "element " << x;
  }
  EXPECT_EQ(tournament.Find(0), tournament.Find(n - 1));

  Dsu chain(n);
  for (uint32_t i = 1; i < n; ++i) {
    chain.Union(i, i - 1);  // always append to the growing set
  }
  for (uint32_t x = 0; x < n; ++x) {
    EXPECT_LE(chain.ChainLength(x), log2_n) << "element " << x;
  }
}

// --- flat_map ----------------------------------------------------------------

TEST(FlatMap, InsertFindGrowClear) {
  FlatMap<uint64_t, double> map(static_cast<uint64_t>(-1));
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(42), nullptr);

  // Push well past the initial capacity to exercise Grow().
  for (uint64_t k = 0; k < 1000; ++k) {
    bool inserted = false;
    map.InsertOrGet(k, &inserted) = static_cast<double>(k) * 3.0;
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t k = 0; k < 1000; ++k) {
    const double* v = map.Find(k);
    ASSERT_NE(v, nullptr) << "key " << k;
    EXPECT_EQ(*v, static_cast<double>(k) * 3.0);
  }
  EXPECT_EQ(map.Find(1000), nullptr);

  bool inserted = true;
  map.InsertOrGet(7, &inserted) += 1.0;  // accumulate on an existing key
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*map.Find(7), 22.0);
  EXPECT_EQ(map.size(), 1000u);

  size_t visited = 0;
  double sum = 0.0;
  map.ForEach([&](uint64_t, double v) {
    ++visited;
    sum += v;
  });
  EXPECT_EQ(visited, 1000u);
  EXPECT_EQ(sum, 3.0 * (999.0 * 1000.0 / 2.0) + 1.0);

  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  map[5] = 9.0;  // reusable after Clear
  EXPECT_EQ(*map.Find(5), 9.0);
}

// --- thread_count ------------------------------------------------------------

TEST(ThreadCount, DefaultThreadCountPositive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

TEST(ParseThreadCount, AcceptsPlainPositiveIntegers) {
  for (const auto& [text, want] : std::vector<std::pair<std::string, int>>{
           {"1", 1}, {"8", 8}, {"4096", kMaxThreads}}) {
    const auto got = ParseThreadCount(text);
    ASSERT_TRUE(got.ok()) << text;
    EXPECT_EQ(*got, want) << text;
  }
}

TEST(ParseThreadCount, RejectsGarbage) {
  for (const char* text : {"", "0", "-3", "abc", "8x", " 8", "8 ", "3.5", "0x10",
                           "99999999999999999999", "4097"}) {
    const auto got = ParseThreadCount(text);
    EXPECT_FALSE(got.ok()) << "accepted: " << text;
    EXPECT_FALSE(got.status().message().empty()) << text;
  }
}

TEST(ParseThreadCount, SeerThreadsFromEnvReflectsVariable) {
  // setenv/getenv in a single-threaded test context.
  ASSERT_EQ(0, setenv("SEER_THREADS", "3", 1));
  auto got = SeerThreadsFromEnv();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 3);

  ASSERT_EQ(0, setenv("SEER_THREADS", "zebra", 1));
  got = SeerThreadsFromEnv();
  EXPECT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("SEER_THREADS"), std::string::npos);

  ASSERT_EQ(0, unsetenv("SEER_THREADS"));
  got = SeerThreadsFromEnv();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 0);  // unset: caller falls back to hardware concurrency
}

}  // namespace
}  // namespace seer
