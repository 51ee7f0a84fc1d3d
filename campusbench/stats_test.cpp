#include "stats.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace {

using campusbench::first_mismatch;
using campusbench::highest_supported;
using campusbench::Layer;
using campusbench::LayerAccount;
using campusbench::LayerTimes;
using campusbench::percentile;
using campusbench::split_region;

std::vector<double> one_to(int n) {
  std::vector<double> values(static_cast<std::size_t>(n));
  std::iota(values.begin(), values.end(), 1.0);
  // Reverse so the helpers cannot rely on sorted input.
  return {values.rbegin(), values.rend()};
}

TEST(Percentile, NearestRankWithCountBeyond) {
  const auto p50 = percentile(one_to(100), 50.0);
  EXPECT_EQ(p50.value, 50.0);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.supported());
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  const auto enough = percentile(one_to(1000), 99.0);
  EXPECT_EQ(enough.value, 990.0);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.supported());

  const auto short_by_one = percentile(one_to(999), 99.0);
  EXPECT_EQ(short_by_one.beyond, 9u);
  EXPECT_FALSE(short_by_one.supported());
}

TEST(Percentile, EmptySampleHasNoSupport) {
  const auto empty = percentile({}, 50.0);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_EQ(empty.value, 0.0);
  EXPECT_FALSE(empty.supported());
}

TEST(HighestSupported, ReadsTheEleventhLargest) {
  const auto tail = highest_supported(one_to(1000));
  EXPECT_EQ(tail.value, 990.0);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_TRUE(tail.supported());

  const auto small = highest_supported(one_to(25));
  EXPECT_EQ(small.value, 15.0);
  EXPECT_DOUBLE_EQ(small.percentile, 60.0);
  EXPECT_EQ(small.samples, 25u);
  EXPECT_TRUE(small.supported());
}

TEST(HighestSupported, TooFewSamplesReadTheMaximumUnsupported) {
  const auto tiny = highest_supported(one_to(5));
  EXPECT_EQ(tiny.value, 5.0);
  EXPECT_EQ(tiny.beyond, 0u);
  EXPECT_FALSE(tiny.supported());
}

TEST(PerWindow, OneFigurePerNonEmptyWindowByTime) {
  // Ten seconds in five windows; the window [4, 6) is empty and the
  // sample at the span's end falls into the last window.
  const std::vector<std::pair<double, double>> timed = {
      {0.5, 1.0}, {1.5, 3.0}, {2.0, 10.0}, {3.9, 20.0},
      {7.0, 5.0}, {9.5, 6.0}, {10.0, 7.0}};
  const auto sums = campusbench::per_window(
      timed, 10.0, 5, [](const std::vector<double>& values) {
        return std::accumulate(values.begin(), values.end(), 0.0);
      });
  EXPECT_EQ(sums, (std::vector<double>{4.0, 30.0, 5.0, 13.0}));
}

TEST(LayerAccount, RemainderIsJobTimeNoLayerCovers) {
  LayerAccount account;
  LayerTimes first{};
  first[static_cast<std::size_t>(Layer::ServiceSubmit)] = 1.0;
  first[static_cast<std::size_t>(Layer::Rt)] = 2.0;
  account.add_job(4.0, first);
  LayerTimes second{};
  second[static_cast<std::size_t>(Layer::Rt)] = 3.0;
  account.add_job(5.0, second);

  EXPECT_EQ(account.jobs(), 2);
  EXPECT_DOUBLE_EQ(account.job_s(), 9.0);
  EXPECT_DOUBLE_EQ(account.layer_s(Layer::Rt), 5.0);
  EXPECT_DOUBLE_EQ(account.attributed_s(), 6.0);
  EXPECT_DOUBLE_EQ(account.unattributed_s(), 3.0);
  EXPECT_DOUBLE_EQ(account.share(account.unattributed_s()), 1.0 / 3.0);

  const std::string table = account.table("split");
  EXPECT_NE(table.find("service.submit"), std::string::npos);
  EXPECT_NE(table.find("unattributed"), std::string::npos);
  EXPECT_EQ(table.find("oocore.spill"), std::string::npos)
      << "layers with no time are left out";
}

TEST(SplitRegion, PartsAddUpToTheRegionWallTime) {
  pblpar::rt::RunProfile profile;
  profile.num_threads = 2;
  profile.region_s = 1.0;
  profile.chunks.push_back({0, 0, 0, 10, 0, 0.1, 0.6});
  profile.chunks.push_back({0, 1, 10, 15, 1, 0.2, 0.5});
  profile.chunks.push_back({0, 1, 15, 20, 2, 0.6, 0.9});
  profile.steals.push_back({0, 1, 0, 15, 20, 2, 0.6});
  profile.spills.push_back({0, "shuffle", 5, 100, 0.2, 0.3});
  profile.merges.push_back({1, 2, 5, 100, 0.6, 0.7});

  const auto split = split_region(profile);
  EXPECT_EQ(split.width, 2);
  EXPECT_DOUBLE_EQ(split.member_work_s, 1.1);
  EXPECT_DOUBLE_EQ(split.spill_s, 0.05);
  EXPECT_DOUBLE_EQ(split.merge_s, 0.05);
  EXPECT_DOUBLE_EQ(split.work_s, 0.45);
  EXPECT_DOUBLE_EQ(split.runtime_s, 0.45);
  EXPECT_DOUBLE_EQ(
      split.work_s + split.spill_s + split.merge_s + split.runtime_s,
      split.wall_s);
  EXPECT_EQ(split.steals, 1u);
  EXPECT_EQ(split.launch_s, (std::vector<double>{0.1, 0.2}));
}

TEST(FirstMismatch, EqualOutputsMatch) {
  const std::vector<std::pair<std::string, long>> counts = {{"a", 1},
                                                            {"b", 2}};
  EXPECT_EQ(first_mismatch(counts, counts), "");
}

TEST(FirstMismatch, NamesTheFirstDifferingEntry) {
  const std::vector<std::pair<std::string, long>> expected = {
      {"a", 1}, {"b", 2}, {"c", 3}};
  const std::vector<std::pair<std::string, long>> actual = {
      {"a", 1}, {"b", 7}, {"c", 3}};
  EXPECT_EQ(first_mismatch(expected, actual),
            "entry 1: expected (b, 2), got (b, 7)");
}

TEST(FirstMismatch, ReportsAMissingTail) {
  const std::vector<std::pair<std::string, long>> expected = {
      {"a", 1}, {"b", 2}, {"c", 3}};
  const std::vector<std::pair<std::string, long>> actual = {{"a", 1},
                                                            {"b", 2}};
  EXPECT_EQ(first_mismatch(expected, actual), "expected 3 entries, got 2");
}

}  // namespace
