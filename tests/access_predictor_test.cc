// Tests for the generalised access predictor (Section 7 future work).
#include "src/core/access_predictor.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace seer {
namespace {

TEST(AccessPredictor, LearnsCoAccessPatterns) {
  AccessPredictor predictor;
  for (int i = 0; i < 5; ++i) {
    predictor.OnAccess("page");
    predictor.OnAccess("style.css");
    predictor.OnAccess("logo.png");
  }
  const auto related = predictor.PredictRelated("page");
  ASSERT_GE(related.size(), 2u);
  EXPECT_TRUE(std::find(related.begin(), related.end(), "style.css") != related.end());
  EXPECT_TRUE(std::find(related.begin(), related.end(), "logo.png") != related.end());
}

TEST(AccessPredictor, ClosestFirst) {
  AccessPredictor predictor;
  for (int i = 0; i < 5; ++i) {
    predictor.OnAccess("a");
    predictor.OnAccess("immediately-after");  // distance 1 from a
    predictor.OnAccess("x");
    predictor.OnAccess("y");
    predictor.OnAccess("later");  // distance 4 from a
  }
  const auto related = predictor.PredictRelated("a");
  ASSERT_GE(related.size(), 2u);
  EXPECT_EQ(related[0], "immediately-after");
}

TEST(AccessPredictor, UnknownKeyPredictsNothing) {
  AccessPredictor predictor;
  predictor.OnAccess("a");
  EXPECT_TRUE(predictor.PredictRelated("never-seen").empty());
  EXPECT_TRUE(predictor.PrefetchSet("never-seen").empty());
}

TEST(AccessPredictor, StreamsAreIndependent) {
  AccessPredictor predictor;
  for (int i = 0; i < 5; ++i) {
    predictor.OnAccess("tab1-page", /*stream=*/1);
    predictor.OnAccess("tab2-page", /*stream=*/2);
  }
  const auto related = predictor.PredictRelated("tab1-page");
  EXPECT_TRUE(std::find(related.begin(), related.end(), "tab2-page") == related.end())
      << "interleaved independent streams must not relate";
}

TEST(AccessPredictor, PrefetchSetCoversCluster) {
  // A 13-key working group: each key's neighbor list holds the other 12,
  // so every pair shares well over kn neighbors and clusters as one unit.
  AccessPredictor predictor;
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k < 13; ++k) {
      predictor.OnAccess(std::string("g").append(std::to_string(k)));
    }
  }
  const auto set = predictor.PrefetchSet("g0");
  EXPECT_GE(set.size(), 10u);
  EXPECT_TRUE(std::find(set.begin(), set.end(), "g0") == set.end())
      << "the key itself is excluded from its prefetch set";
  EXPECT_TRUE(std::find(set.begin(), set.end(), "g7") != set.end());
}

TEST(AccessPredictor, RespectsLimit) {
  AccessPredictor predictor;
  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 12; ++k) {
      predictor.OnAccess(std::string("k").append(std::to_string(k)));
    }
  }
  EXPECT_LE(predictor.PredictRelated("k0", 3).size(), 3u);
  EXPECT_LE(predictor.PrefetchSet("k0", 5).size(), 5u);
}

}  // namespace
}  // namespace seer
