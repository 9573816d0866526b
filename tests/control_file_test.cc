// Tests for the control-file and parameter-file parsers.
#include <string>

#include <gtest/gtest.h>

#include "src/core/params_io.h"
#include "src/observer/control_file.h"

namespace seer {
namespace {

TEST(ControlFile, ParsesFullExample) {
  const char* text = R"(
# SEER system control file
clear
meaningless /usr/bin/xargs
meaningless /usr/bin/rdist
transient /tmp
transient /var/tmp
critical /etc
critical /sbin
dot-files on
frequent-threshold 0.01
frequent-min-total 500
meaningless-mode ratio
meaningless-ratio 0.25
meaningless-min-potential 30
getcwd-threshold 3
collapse-stat-open off
)";
  const auto config = ParseObserverControlFile(text);
  ASSERT_TRUE(config.has_value()) << config.status();
  EXPECT_EQ(config->meaningless_programs.size(), 2u);
  EXPECT_EQ(config->meaningless_programs.count("/usr/bin/xargs"), 1u);
  EXPECT_EQ(config->transient_dirs.size(), 2u);
  EXPECT_EQ(config->critical_prefixes.size(), 2u);
  EXPECT_TRUE(config->exclude_dot_files);
  EXPECT_DOUBLE_EQ(config->frequent_threshold, 0.01);
  EXPECT_EQ(config->frequent_min_total, 500u);
  EXPECT_EQ(config->meaningless_mode, MeaninglessMode::kRatioHeuristic);
  EXPECT_DOUBLE_EQ(config->meaningless_ratio, 0.25);
  EXPECT_EQ(config->meaningless_min_potential, 30u);
  EXPECT_EQ(config->getcwd_climb_threshold, 3);
  EXPECT_FALSE(config->collapse_stat_open);
}

TEST(ControlFile, ExtendsBaseWithoutClear) {
  ObserverConfig base;
  const size_t base_meaningless = base.meaningless_programs.size();
  const auto config = ParseObserverControlFile("meaningless /usr/bin/updatedb\n", base);
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->meaningless_programs.size(), base_meaningless + 1);
}

TEST(ControlFile, ClearEmptiesListSettings) {
  const auto config = ParseObserverControlFile("clear\n");
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->meaningless_programs.empty());
  EXPECT_TRUE(config->transient_dirs.empty());
  EXPECT_TRUE(config->critical_prefixes.empty());
}

TEST(ControlFile, RejectsUnknownDirective) {
  const auto config = ParseObserverControlFile("frobnicate yes\n");
  ASSERT_FALSE(config.has_value());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(config.status().message().find("line 1"), std::string::npos);
  EXPECT_NE(config.status().message().find("frobnicate"), std::string::npos);
}

TEST(ControlFile, RejectsBadValues) {
  EXPECT_FALSE(ParseObserverControlFile("frequent-threshold 2.5\n").has_value());
  EXPECT_FALSE(ParseObserverControlFile("dot-files maybe\n").has_value());
  EXPECT_FALSE(ParseObserverControlFile("meaningless-mode psychic\n").has_value());
  EXPECT_FALSE(ParseObserverControlFile("meaningless\n").has_value());
}

TEST(ControlFile, AllModesParse) {
  for (const auto& [name, mode] :
       std::initializer_list<std::pair<const char*, MeaninglessMode>>{
           {"control-list", MeaninglessMode::kControlListOnly},
           {"any-dir-read", MeaninglessMode::kAnyDirectoryRead},
           {"while-dir-open", MeaninglessMode::kWhileDirectoryOpen},
           {"ratio", MeaninglessMode::kRatioHeuristic}}) {
    const auto config =
        ParseObserverControlFile(std::string("meaningless-mode ") + name + "\n");
    ASSERT_TRUE(config.has_value()) << name;
    EXPECT_EQ(config->meaningless_mode, mode) << name;
  }
}

TEST(ControlFile, FormatRoundTrips) {
  ObserverConfig config;
  config.meaningless_programs = {"/a", "/b"};
  config.transient_dirs = {"/tmp", "/scratch"};
  config.critical_prefixes = {"/etc"};
  config.exclude_dot_files = false;
  config.frequent_threshold = 0.004;
  config.frequent_min_total = 123;
  config.meaningless_mode = MeaninglessMode::kAnyDirectoryRead;
  config.meaningless_ratio = 0.4;
  config.meaningless_min_potential = 7;
  config.getcwd_climb_threshold = 5;
  config.collapse_stat_open = false;

  const auto back = ParseObserverControlFile(FormatObserverControlFile(config));
  ASSERT_TRUE(back.has_value()) << back.status();
  EXPECT_EQ(back->meaningless_programs, config.meaningless_programs);
  EXPECT_EQ(back->transient_dirs, config.transient_dirs);
  EXPECT_EQ(back->critical_prefixes, config.critical_prefixes);
  EXPECT_EQ(back->exclude_dot_files, config.exclude_dot_files);
  EXPECT_DOUBLE_EQ(back->frequent_threshold, config.frequent_threshold);
  EXPECT_EQ(back->frequent_min_total, config.frequent_min_total);
  EXPECT_EQ(back->meaningless_mode, config.meaningless_mode);
  EXPECT_DOUBLE_EQ(back->meaningless_ratio, config.meaningless_ratio);
  EXPECT_EQ(back->getcwd_climb_threshold, config.getcwd_climb_threshold);
}

// --- params ----------------------------------------------------------------------

TEST(ParamsIo, ParsesAllKeys) {
  const char* text = R"(
n 15            # neighbors
M 80
kn 12
kf 5
distance sequence
mean arithmetic
per-process off
aging-updates 9000
delete-delay 32
dir-weight 0.5
investigator-weight 2
temporal-horizon 120
)";
  const auto params = ParseSeerParams(text);
  ASSERT_TRUE(params.has_value()) << params.status();
  EXPECT_EQ(params->max_neighbors, 15);
  EXPECT_EQ(params->distance_horizon, 80);
  EXPECT_EQ(params->cluster_near, 12);
  EXPECT_EQ(params->cluster_far, 5);
  EXPECT_EQ(params->distance_kind, DistanceKind::kSequence);
  EXPECT_EQ(params->mean_kind, MeanKind::kArithmetic);
  EXPECT_FALSE(params->per_process_streams);
  EXPECT_EQ(params->aging_updates, 9000u);
  EXPECT_EQ(params->delete_delay, 32u);
  EXPECT_DOUBLE_EQ(params->dir_distance_weight, 0.5);
  EXPECT_DOUBLE_EQ(params->investigator_weight, 2.0);
  EXPECT_DOUBLE_EQ(params->temporal_horizon_seconds, 120.0);
}

TEST(ParamsIo, RejectsKfNotBelowKn) {
  const auto params = ParseSeerParams("kn 5\nkf 5\n");
  ASSERT_FALSE(params.has_value());
  EXPECT_NE(params.status().message().find("kf"), std::string::npos);
}

TEST(ParamsIo, RejectsUnknownKeyAndBadValues) {
  EXPECT_FALSE(ParseSeerParams("bogus 1\n").has_value());
  EXPECT_FALSE(ParseSeerParams("n zero\n").has_value());
  EXPECT_FALSE(ParseSeerParams("distance psychic\n").has_value());
}

// A params file may ask for at most kMaxNeighbors neighbor slots per file:
// the slab is sized files x n, so a larger n is a typed error, not an
// allocation.
TEST(ParamsIo, RejectsNeighborCountAboveLimit) {
  const auto at_limit = ParseSeerParams(std::string("n ").append(std::to_string(kMaxNeighbors)));
  ASSERT_TRUE(at_limit.ok()) << at_limit.status();
  EXPECT_EQ(at_limit->max_neighbors, kMaxNeighbors);
  const std::string above = std::string("n ").append(std::to_string(kMaxNeighbors + 1));
  for (const std::string& text : {above, std::string("n 2000000000\n")}) {
    const auto params = ParseSeerParams(text);
    ASSERT_FALSE(params.ok()) << text;
    EXPECT_EQ(params.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(params.status().message().find("limit"), std::string::npos) << text;
  }
}

TEST(ParamsIo, FormatRoundTrips) {
  SeerParams params;
  params.max_neighbors = 33;
  params.cluster_near = 9;
  params.cluster_far = 4;
  params.distance_kind = DistanceKind::kTemporal;
  params.per_process_streams = false;
  const auto back = ParseSeerParams(FormatSeerParams(params));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->max_neighbors, params.max_neighbors);
  EXPECT_EQ(back->cluster_near, params.cluster_near);
  EXPECT_EQ(back->cluster_far, params.cluster_far);
  EXPECT_EQ(back->distance_kind, params.distance_kind);
  EXPECT_EQ(back->per_process_streams, params.per_process_streams);
}

}  // namespace
}  // namespace seer
