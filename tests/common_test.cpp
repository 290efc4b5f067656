// Unit tests for src/common: ids, time, rng, stats, strings, thread pool.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/flat_hash_map.hpp"
#include "common/flat_map.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace sdc {
namespace {

// --- SimTime -----------------------------------------------------------

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(millis(1), 1000);
  EXPECT_EQ(seconds(1), 1'000'000);
  EXPECT_EQ(to_millis(millis(1234)), 1234);
  EXPECT_EQ(to_millis(micros(999)), 0);
  EXPECT_EQ(to_millis(micros(1000)), 1);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_EQ(from_millis(42), micros(42'000));
}

TEST(SimTime, NegativeRoundsTowardNegativeInfinity) {
  EXPECT_EQ(to_millis(micros(-1)), -1);
  EXPECT_EQ(to_millis(micros(-1000)), -1);
  EXPECT_EQ(to_millis(micros(-1001)), -2);
}

// --- ApplicationId / ContainerId / NodeId -------------------------------

TEST(Ids, ApplicationIdRoundTrip) {
  const ApplicationId id{1'499'100'000'000, 7};
  EXPECT_EQ(id.str(), "application_1499100000000_0007");
  const auto parsed = ApplicationId::parse(id.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);
}

TEST(Ids, ApplicationIdParseRejectsGarbage) {
  EXPECT_FALSE(ApplicationId::parse("application_x_1").has_value());
  EXPECT_FALSE(ApplicationId::parse("application_123").has_value());
  EXPECT_FALSE(ApplicationId::parse("app_123_1").has_value());
  EXPECT_FALSE(ApplicationId::parse("application_123_1junk").has_value());
  EXPECT_FALSE(ApplicationId::parse("").has_value());
}

TEST(Ids, ContainerIdRoundTrip) {
  const ContainerId id{{1'499'100'000'000, 12}, 1, 3};
  EXPECT_EQ(id.str(), "container_1499100000000_0012_01_000003");
  const auto parsed = ContainerId::parse(id.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);
}

TEST(Ids, ContainerIdAmConvention) {
  EXPECT_TRUE((ContainerId{{1, 1}, 1, 1}).is_am());
  EXPECT_FALSE((ContainerId{{1, 1}, 1, 2}).is_am());
}

TEST(Ids, ContainerIdParseRejectsGarbage) {
  EXPECT_FALSE(ContainerId::parse("container_1_1_1").has_value());
  EXPECT_FALSE(ContainerId::parse("container_a_b_c_d").has_value());
}

TEST(Ids, NodeIdRoundTrip) {
  const NodeId node{3};
  EXPECT_EQ(node.hostname(), "node03.cluster");
  EXPECT_EQ(node.str(), "node03.cluster:45454");
  const auto parsed = NodeId::parse("node03.cluster:45454");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->index, 3);
  const auto bare = NodeId::parse("node03.cluster");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->index, 3);
}

TEST(Ids, RenderingMatchesPrintfFormats) {
  // The formats the ids were rendered with through snprintf, zero pad
  // and sign placement included.
  const auto app_ref = [](const ApplicationId& app) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "application_%lld_%04d",
                  static_cast<long long>(app.cluster_ts), app.id);
    return std::string(buf);
  };
  const auto container_ref = [](const ContainerId& container) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "container_%lld_%04d_%02d_%06lld",
                  static_cast<long long>(container.app.cluster_ts),
                  container.app.id, container.attempt,
                  static_cast<long long>(container.id));
    return std::string(buf);
  };
  constexpr auto kI32Min = std::numeric_limits<std::int32_t>::min();
  constexpr auto kI32Max = std::numeric_limits<std::int32_t>::max();
  constexpr auto kI64Min = std::numeric_limits<std::int64_t>::min();
  constexpr auto kI64Max = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> wide = {
      0, 1, -1, 7, -7, 42, -42, 999, -999, 1234567, -1234567,
      1499100000000, kI64Min, kI64Max};
  const std::vector<std::int32_t> narrow = {
      0, 1, -1, 7, -7, 42, -42, 123, -123, 9999, 10000, -10000,
      123456, kI32Min, kI32Max};
  for (const std::int64_t ts : wide) {
    for (const std::int32_t id : narrow) {
      const ApplicationId app{ts, id};
      EXPECT_EQ(app.str(), app_ref(app));
      const ContainerId container{app, id, ts};
      EXPECT_EQ(container.str(), container_ref(container));
    }
  }
  EXPECT_EQ((ApplicationId{1499100000000, 7}).str(),
            "application_1499100000000_0007");
  EXPECT_EQ((ContainerId{{1499100000000, 7}, 1, 2}).str(),
            "container_1499100000000_0007_01_000002");
  EXPECT_EQ((ApplicationId{-5, -5}).str(), "application_-5_-005");
}

TEST(Ids, OrderingIsLexicographicByFields) {
  const ApplicationId a{100, 1};
  const ApplicationId b{100, 2};
  const ApplicationId c{200, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

// --- Rng ----------------------------------------------------------------

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(99);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1'000'000) == b.uniform_int(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
  Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) samples.push_back(rng.lognormal(100.0, 0.5));
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  EXPECT_NEAR(median, 100.0, 5.0);
}

TEST(Rng, LognormalDurationPositive) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal_duration(millis(500), 0.4), 0);
  }
}

TEST(Rng, ParetoAtLeastScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(Rng, NormalClampedRespectsFloor) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.normal_clamped(0.0, 10.0, -1.0), -1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// --- SampleSet -----------------------------------------------------------

TEST(SampleSet, BasicMoments) {
  SampleSet set;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) set.add(v);
  EXPECT_DOUBLE_EQ(set.mean(), 5.0);
  EXPECT_NEAR(set.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(set.min(), 2.0);
  EXPECT_DOUBLE_EQ(set.max(), 9.0);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet set;
  for (int i = 1; i <= 5; ++i) set.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(set.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(set.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(set.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(set.percentile(25), 2.0);
  EXPECT_DOUBLE_EQ(set.percentile(12.5), 1.5);
}

TEST(SampleSet, PercentileAfterLateAdd) {
  SampleSet set;
  set.add(10.0);
  EXPECT_DOUBLE_EQ(set.median(), 10.0);
  set.add(20.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(set.median(), 15.0);
}

TEST(SampleSet, EmptyThrowsOnQuantiles) {
  SampleSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_THROW((void)set.percentile(50), std::out_of_range);
  EXPECT_THROW((void)set.min(), std::out_of_range);
  EXPECT_DOUBLE_EQ(set.mean(), 0.0);
  EXPECT_DOUBLE_EQ(set.stddev(), 0.0);
}

TEST(SampleSet, CdfMonotone) {
  SampleSet set;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) set.add(rng.uniform(0, 100));
  const auto cdf = set.cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LE(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.front().second, 0.0);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(SampleSet, StddevOfSingleSampleIsZero) {
  SampleSet set;
  set.add(42.0);
  EXPECT_DOUBLE_EQ(set.stddev(), 0.0);
}

// --- strings --------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc\t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("application_1_2", "application_"));
  EXPECT_FALSE(starts_with("app", "application_"));
}

TEST(Strings, FindTokenWithPrefix) {
  EXPECT_EQ(find_token_with_prefix(
                "allocated container_123_0001_01_000002 on host",
                "container_"),
            "container_123_0001_01_000002");
  EXPECT_EQ(find_token_with_prefix("no ids here", "container_"), "");
  // Prefix embedded mid-token must not match.
  EXPECT_EQ(find_token_with_prefix("xcontainer_1_2_3_4 container_9_8_7_6",
                                   "container_"),
            "container_9_8_7_6");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count, 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 10,
                            [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForZeroItems) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

// --- FlatHashMap -------------------------------------------------------

TEST(FlatHashMap, InsertFindAndGrow) {
  FlatHashMap<int, int> map;
  EXPECT_TRUE(map.empty());
  for (int i = 0; i < 1000; ++i) map[i] = i * 3;
  EXPECT_EQ(map.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    const auto it = map.find(i);
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->second, i * 3);
  }
  EXPECT_EQ(map.find(1000), map.end());
  EXPECT_FALSE(map.contains(-1));
}

TEST(FlatHashMap, OperatorBracketDefaultInsertsOnce) {
  FlatHashMap<int, int> map;
  EXPECT_EQ(map[7], 0);
  map[7] = 42;
  EXPECT_EQ(map[7], 42);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, IterationVisitsEveryEntryOnce) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 123; ++i) map[i] = i;
  std::set<int> seen;
  for (const auto& [k, v] : map) {
    EXPECT_EQ(k, v);
    EXPECT_TRUE(seen.insert(k).second);
  }
  EXPECT_EQ(seen.size(), 123u);
}

TEST(FlatHashMap, HeterogeneousStringLookup) {
  FlatHashMap<std::string, int, StringHash> map;
  map[std::string("alpha")] = 1;
  map[std::string("beta")] = 2;
  // find by string_view: no temporary std::string allocated.
  EXPECT_NE(map.find(std::string_view("alpha")), map.end());
  EXPECT_TRUE(map.contains(std::string_view("beta")));
  EXPECT_FALSE(map.contains(std::string_view("gamma")));
}

TEST(FlatHashMap, ClearResets) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 50; ++i) map[i] = i;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), map.end());
  map[1] = 9;
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, EraseRemovesOnlyTheKey) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 500; ++i) map[i] = i * 7;
  // Erase every third key; the rest must stay findable (backward-shift
  // deletion must not break probe chains through the holes).
  for (int i = 0; i < 500; i += 3) EXPECT_EQ(map.erase(i), 1u);
  EXPECT_EQ(map.erase(0), 0u);     // already gone
  EXPECT_EQ(map.erase(9999), 0u);  // never present
  for (int i = 0; i < 500; ++i) {
    if (i % 3 == 0) {
      EXPECT_FALSE(map.contains(i)) << i;
    } else {
      const auto it = map.find(i);
      ASSERT_NE(it, map.end()) << i;
      EXPECT_EQ(it->second, i * 7);
    }
  }
  EXPECT_EQ(map.size(), 500u - 167u);
}

TEST(FlatHashMap, EraseThenReinsertAndIterate) {
  FlatHashMap<std::string, int, StringHash> map;
  map[std::string("alpha")] = 1;
  map[std::string("beta")] = 2;
  map[std::string("gamma")] = 3;
  EXPECT_EQ(map.erase(std::string_view("beta")), 1u);
  EXPECT_EQ(map.size(), 2u);
  map[std::string("beta")] = 20;
  std::set<std::string> seen;
  int sum = 0;
  for (const auto& [key, value] : map) {
    EXPECT_TRUE(seen.insert(key).second);
    sum += value;
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(sum, 24);
}

TEST(FlatHashMap, EraseWholeTableLeavesItEmpty) {
  FlatHashMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i;
  for (int i = 99; i >= 0; --i) EXPECT_EQ(map.erase(i), 1u);
  EXPECT_TRUE(map.empty());
  for (const auto& entry : map) {
    FAIL() << "iteration over empty map yielded " << entry.first;
  }
  map[5] = 55;  // still usable after full drain
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(5)->second, 55);
}

// --- FlatOrderedMap ----------------------------------------------------

TEST(FlatOrderedMap, IterationIsSorted) {
  FlatOrderedMap<int, int> map;
  for (const int k : {9, 3, 7, 1, 5}) map[k] = k * 10;
  std::vector<int> keys;
  for (const auto& [k, v] : map) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 10);
  }
  EXPECT_EQ(keys, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(FlatOrderedMap, FindAtContains) {
  FlatOrderedMap<int, std::string> map;
  map[2] = "two";
  map[4] = "four";
  EXPECT_TRUE(map.contains(2));
  EXPECT_FALSE(map.contains(3));
  EXPECT_EQ(map.at(4), "four");
  EXPECT_THROW(map.at(5), std::out_of_range);
  EXPECT_EQ(map.find(3), map.end());
}

}  // namespace
}  // namespace sdc
