#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "dataflow/dataset.h"
#include "obs/metrics.h"
#include "tests/routing_test_util.h"

namespace tgraph::dataflow {
namespace {

using KV = std::pair<int64_t, int64_t>;

ExecutionContext* Ctx() {
  static ExecutionContext* ctx = new ExecutionContext(
      ContextOptions{.num_workers = 2, .default_parallelism = 4});
  return ctx;
}

Dataset<KV> ModKeyed(int64_t n, int64_t mod) {
  std::vector<KV> data;
  for (int64_t i = 0; i < n; ++i) data.emplace_back(i % mod, i);
  return Dataset<KV>::FromVector(Ctx(), std::move(data));
}

TEST(KeyedOpsTest, GroupByKeyCollectsAllValues) {
  auto grouped = ModKeyed(100, 10).GroupByKey();
  std::vector<std::pair<int64_t, std::vector<int64_t>>> groups =
      grouped.Collect();
  ASSERT_EQ(groups.size(), 10u);
  for (auto& [key, values] : groups) {
    EXPECT_EQ(values.size(), 10u);
    for (int64_t v : values) EXPECT_EQ(v % 10, key);
  }
}

TEST(KeyedOpsTest, ReduceByKeySums) {
  auto sums = ModKeyed(100, 4).ReduceByKey(
      [](const int64_t& a, const int64_t& b) { return a + b; });
  std::map<int64_t, int64_t> by_key;
  for (auto& [k, v] : sums.Collect()) by_key[k] = v;
  ASSERT_EQ(by_key.size(), 4u);
  int64_t total = 0;
  for (auto& [k, v] : by_key) total += v;
  EXPECT_EQ(total, 99 * 100 / 2);
  // Key 0 holds 0+4+...+96.
  EXPECT_EQ(by_key[0], 25 * 96 / 2 + 0);
}

TEST(KeyedOpsTest, ReduceByKeySingletonKeysPassThrough) {
  std::vector<KV> data = {{1, 10}, {2, 20}};
  auto ds = Dataset<KV>::FromVector(Ctx(), data);
  auto reduced = ds.ReduceByKey(
      [](const int64_t&, const int64_t&) -> int64_t { ADD_FAILURE(); return 0; });
  EXPECT_EQ(reduced.Count(), 2);
}

TEST(KeyedOpsTest, AggregateByKeyBuildsAccumulators) {
  auto agg = ModKeyed(60, 6).AggregateByKey<std::vector<int64_t>>(
      {},
      [](std::vector<int64_t>* acc, const int64_t& v) { acc->push_back(v); },
      [](std::vector<int64_t>* acc, std::vector<int64_t>&& other) {
        acc->insert(acc->end(), other.begin(), other.end());
      });
  for (auto& [key, values] : agg.Collect()) {
    EXPECT_EQ(values.size(), 10u) << "key " << key;
  }
}

TEST(KeyedOpsTest, CountByKey) {
  auto counts = ModKeyed(90, 9).CountByKey();
  for (auto& [key, count] : counts.Collect()) {
    EXPECT_EQ(count, 10) << "key " << key;
  }
}

TEST(KeyedOpsTest, JoinInner) {
  std::vector<KV> left = {{1, 10}, {2, 20}, {3, 30}};
  std::vector<std::pair<int64_t, std::string>> right = {
      {2, "two"}, {3, "three"}, {4, "four"}};
  auto l = Dataset<KV>::FromVector(Ctx(), left);
  auto r = Dataset<std::pair<int64_t, std::string>>::FromVector(Ctx(), right);
  auto joined = l.Join<std::string>(r);
  std::map<int64_t, std::pair<int64_t, std::string>> result;
  for (auto& [k, v] : joined.Collect()) result[k] = v;
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[2], std::make_pair(int64_t{20}, std::string("two")));
  EXPECT_EQ(result[3], std::make_pair(int64_t{30}, std::string("three")));
}

TEST(KeyedOpsTest, JoinProducesCrossProductPerKey) {
  std::vector<KV> left = {{1, 10}, {1, 11}};
  std::vector<KV> right = {{1, 100}, {1, 101}, {1, 102}};
  auto l = Dataset<KV>::FromVector(Ctx(), left);
  auto r = Dataset<KV>::FromVector(Ctx(), right);
  EXPECT_EQ(l.Join<int64_t>(r).Count(), 6);
}

TEST(KeyedOpsTest, SemiJoinKeepsMatchingKeysOnly) {
  auto left = ModKeyed(100, 10);
  std::vector<KV> right = {{3, 0}, {7, 0}, {3, 1}};
  auto r = Dataset<KV>::FromVector(Ctx(), right);
  auto filtered = left.SemiJoin<int64_t>(r);
  EXPECT_EQ(filtered.Count(), 20);  // keys 3 and 7, 10 records each
  for (auto& [k, v] : filtered.Collect()) {
    EXPECT_TRUE(k == 3 || k == 7);
  }
}

TEST(KeyedOpsTest, CoGroupIncludesKeysFromEitherSide) {
  std::vector<KV> left = {{1, 10}, {1, 11}, {2, 20}};
  std::vector<KV> right = {{2, 200}, {3, 300}};
  auto l = Dataset<KV>::FromVector(Ctx(), left);
  auto r = Dataset<KV>::FromVector(Ctx(), right);
  auto cogrouped = l.CoGroup<int64_t>(r);
  std::map<int64_t, std::pair<size_t, size_t>> sizes;
  for (auto& [k, pair] : cogrouped.Collect()) {
    sizes[k] = {pair.first.size(), pair.second.size()};
  }
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[1], std::make_pair(size_t{2}, size_t{0}));
  EXPECT_EQ(sizes[2], std::make_pair(size_t{1}, size_t{1}));
  EXPECT_EQ(sizes[3], std::make_pair(size_t{0}, size_t{1}));
}

TEST(KeyedOpsTest, StringKeys) {
  std::vector<std::pair<std::string, int64_t>> data = {
      {"a", 1}, {"b", 2}, {"a", 3}};
  auto ds = Dataset<std::pair<std::string, int64_t>>::FromVector(Ctx(), data);
  auto sums = ds.ReduceByKey(
      [](const int64_t& a, const int64_t& b) { return a + b; });
  std::map<std::string, int64_t> result;
  for (auto& [k, v] : sums.Collect()) result[k] = v;
  EXPECT_EQ(result["a"], 4);
  EXPECT_EQ(result["b"], 2);
}

TEST(KeyedOpsTest, PairKeys) {
  using PairKey = std::pair<int64_t, int64_t>;
  std::vector<std::pair<PairKey, int64_t>> data = {
      {{1, 2}, 5}, {{1, 2}, 6}, {{2, 1}, 7}};
  auto ds = Dataset<std::pair<PairKey, int64_t>>::FromVector(Ctx(), data);
  EXPECT_EQ(ds.GroupByKey().Count(), 2);
}

TEST(KeyedOpsTest, LargeShuffleIsCorrect) {
  const int64_t n = 50000;
  auto sums = ModKeyed(n, 137).ReduceByKey(
      [](const int64_t& a, const int64_t& b) { return a + b; }, 16);
  int64_t total = 0;
  for (auto& [k, v] : sums.Collect()) total += v;
  EXPECT_EQ(total, (n - 1) * n / 2);
  EXPECT_EQ(sums.Count(), 137);
}

/// 90% of records share one key — a hub-vertex workload in miniature.
std::vector<KV> HubRecords(int64_t n) {
  std::vector<KV> data;
  data.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    data.emplace_back(i % 10 == 0 ? 1 + i % 7 : 0, i);
  }
  return data;
}

TEST(KeyedOpsSkewTest, HistogramRecordsHotPartitionWithoutRebalancing) {
  ExecutionContext ctx(ContextOptions{.num_workers = 2,
                                      .default_parallelism = 8,
                                      .shuffle = {.enable = false}});
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  auto grouped =
      Dataset<KV>::FromVector(&ctx, HubRecords(10000)).GroupByKey().Collect();
  EXPECT_EQ(grouped.size(), 8u);  // keys 0..7

  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  // The plain hash shuffle funnels the hot key's ~9000 records into one
  // partition, and the skew histogram must expose that.
  const obs::HistogramSnapshot& skew =
      delta.histograms.at(obs::metric_names::kShufflePartitionSize);
  EXPECT_EQ(skew.sum, 10000);
  EXPECT_GE(skew.max, 9000);
  EXPECT_EQ(delta.counters[obs::metric_names::kShuffleRebalanced], 0);
}

TEST(KeyedOpsSkewTest, RebalancingSplitsHotPartitionAndKeepsResult) {
  ExecutionContext legacy_ctx(ContextOptions{.num_workers = 2,
                                             .default_parallelism = 8,
                                             .shuffle = {.enable = false}});
  auto expected = Dataset<KV>::FromVector(&legacy_ctx, HubRecords(10000))
                      .GroupByKey()
                      .Collect();

  ExecutionContext ctx(
      ContextOptions{.num_workers = 2,
                     .default_parallelism = 8,
                     .shuffle = {.enable = true,
                                 .skew_threshold = 2.0,
                                 .max_splits = 4,
                                 .min_records = 0}});
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  auto grouped =
      Dataset<KV>::FromVector(&ctx, HubRecords(10000)).GroupByKey().Collect();

  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters.at(obs::metric_names::kShuffleRebalanced), 1);
  EXPECT_GE(delta.counters.at(obs::metric_names::kShuffleHotKeys), 1);
  EXPECT_GE(delta.counters.at(obs::metric_names::kShuffleSplits), 2);
  // Pre-rebalance histogram still shows the would-be hot partition...
  EXPECT_GE(
      delta.histograms.at(obs::metric_names::kShufflePartitionSize).max,
      9000);
  // ...while the actual (rebalanced) layout caps it near 9000/4 splits.
  EXPECT_LE(delta.histograms
                .at(obs::metric_names::kShufflePartitionSizeRebalanced)
                .max,
            9000 / 2);

  // And the grouped result is unchanged up to group/value order.
  auto canonicalize = [](std::vector<std::pair<int64_t, std::vector<int64_t>>>
                             groups) {
    for (auto& [key, values] : groups) std::sort(values.begin(), values.end());
    std::sort(groups.begin(), groups.end());
    return groups;
  };
  EXPECT_EQ(canonicalize(grouped), canonicalize(expected));
}

// ---------------------------------------------------------------------------
// Every wide operator against a naive std::map reference, over seeded random
// inputs. Values are the records' positions in the flattened input, so the
// checks can also tell the order each output partition lists its records in.

template <typename K>
using Records = Partitions<std::pair<K, int64_t>>;

/// Deals `keys` into `num_parts` partitions at random (partitions listed in
/// `empty` stay empty), then numbers the records in flattened order.
template <typename K>
Records<K> Deal(const std::vector<K>& keys, size_t num_parts,
                const std::set<size_t>& empty, std::mt19937_64* rng) {
  std::vector<size_t> live;
  for (size_t p = 0; p < num_parts; ++p) {
    if (!empty.contains(p)) live.push_back(p);
  }
  Records<K> parts(num_parts);
  for (const K& key : keys) {
    parts[live[(*rng)() % live.size()]].emplace_back(key, 0);
  }
  int64_t position = 0;
  for (auto& part : parts) {
    for (auto& record : part) record.second = position++;
  }
  return parts;
}

template <typename K>
std::vector<std::pair<K, int64_t>> Flat(const Records<K>& parts) {
  std::vector<std::pair<K, int64_t>> all;
  for (const auto& part : parts) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

/// Each key's rank by first occurrence in `records`, counting on from
/// `ranks`' size (keys already ranked keep their rank).
template <typename K>
void RankFirstOccurrences(const std::vector<std::pair<K, int64_t>>& records,
                          std::map<K, size_t>* ranks) {
  for (const auto& record : records) {
    ranks->try_emplace(record.first, ranks->size());
  }
}

/// Each output key sits in one entry of one partition, and every partition
/// lists its keys in first-occurrence order.
template <typename E, typename KeyOf>
void ExpectFirstOccurrenceOrder(const Partitions<E>& out, const KeyOf& key_of,
                                const auto& ranks) {
  std::set<size_t> seen;
  for (size_t p = 0; p < out.size(); ++p) {
    bool first = true;
    size_t last = 0;
    for (const E& entry : out[p]) {
      const size_t rank = ranks.at(key_of(entry));
      EXPECT_TRUE(seen.insert(rank).second) << "key listed twice";
      if (!first) {
        EXPECT_LT(last, rank) << "partition " << p;
      }
      first = false;
      last = rank;
    }
  }
}

/// Runs ReduceByKey, AggregateByKey, CountByKey, GroupByKey, Distinct, Join,
/// SemiJoin and CoGroup over `left` and `right`, and compares each with a
/// std::map reference. Values within a group are compared in input order
/// when `ordered_values` (no hot-key spreading), else as sorted multisets.
///
/// The inputs are datasets, so they may come routed (see
/// ExpectRoutedWideOpsMatchReference); every order is checked against the
/// order the input partitions list their records in.
template <typename K>
void ExpectWideOpsMatchReference(const Dataset<std::pair<K, int64_t>>& lds,
                                 const Dataset<std::pair<K, int64_t>>& rds,
                                 int out_parts, bool ordered_values) {
  using Values = std::vector<int64_t>;
  using Entry = std::pair<K, int64_t>;
  const std::vector<Entry> lflat = Flat(lds.MaterializedPartitions());
  const std::vector<Entry> rflat = Flat(rds.MaterializedPartitions());
  // Each record's index in its side's input order (values are unique).
  std::map<int64_t, size_t> lorder;
  std::map<int64_t, size_t> rorder;
  for (const Entry& e : lflat) lorder.emplace(e.second, lorder.size());
  for (const Entry& e : rflat) rorder.emplace(e.second, rorder.size());

  std::map<K, Values> lgroups;
  std::map<K, Values> rgroups;
  for (const Entry& e : lflat) lgroups[e.first].push_back(e.second);
  for (const Entry& e : rflat) rgroups[e.first].push_back(e.second);
  std::map<K, size_t> ranks;
  RankFirstOccurrences(lflat, &ranks);
  auto first_key = [](const auto& entry) -> const K& { return entry.first; };
  auto maybe_sorted = [ordered_values](Values values) {
    if (!ordered_values) std::sort(values.begin(), values.end());
    return values;
  };

  {
    SCOPED_TRACE("ReduceByKey, vector values merged by value");
    auto reduced =
        lds.Map([](const Entry& e) {
             return std::pair<K, Values>(e.first, Values{e.second});
           })
            .ReduceByKey(
                [](Values a, Values b) {
                  a.insert(a.end(), b.begin(), b.end());
                  return a;
                },
                out_parts);
    ::tgraph::testing::ExpectRouted(reduced);
    const auto& parts = reduced.MaterializedPartitions();
    ExpectFirstOccurrenceOrder(parts, first_key, ranks);
    std::map<K, Values> got;
    for (const auto& part : parts) {
      for (const auto& [key, values] : part) {
        Values sorted = values;
        std::sort(sorted.begin(), sorted.end());
        got[key] = sorted;
      }
    }
    EXPECT_EQ(got, lgroups);
  }
  {
    SCOPED_TRACE("AggregateByKey and CountByKey");
    using CountSum = std::pair<int64_t, int64_t>;
    auto aggregated = lds.template AggregateByKey<CountSum>(
        CountSum{0, 0},
        [](CountSum* acc, const int64_t& v) {
          ++acc->first;
          acc->second += v;
        },
        [](CountSum* acc, CountSum&& other) {
          acc->first += other.first;
          acc->second += other.second;
        },
        out_parts);
    ::tgraph::testing::ExpectRouted(aggregated);
    ExpectFirstOccurrenceOrder(aggregated.MaterializedPartitions(), first_key,
                               ranks);
    std::map<K, CountSum> expected;
    for (const auto& [key, values] : lgroups) {
      expected[key] = {
          static_cast<int64_t>(values.size()),
          std::accumulate(values.begin(), values.end(), int64_t{0})};
    }
    auto collected = aggregated.Collect();
    EXPECT_EQ((std::map<K, CountSum>(collected.begin(), collected.end())),
              expected);
    std::map<K, int64_t> expected_counts;
    for (const auto& [key, cs] : expected) expected_counts[key] = cs.first;
    auto counts = lds.CountByKey(out_parts).Collect();
    EXPECT_EQ((std::map<K, int64_t>(counts.begin(), counts.end())),
              expected_counts);
  }
  {
    SCOPED_TRACE("GroupByKey");
    auto grouped = lds.GroupByKey(out_parts);
    ::tgraph::testing::ExpectRouted(grouped);
    const auto& parts = grouped.MaterializedPartitions();
    ExpectFirstOccurrenceOrder(parts, first_key, ranks);
    std::map<K, Values> got;
    std::map<K, Values> expected;
    for (const auto& part : parts) {
      for (const auto& [key, values] : part) got[key] = maybe_sorted(values);
    }
    for (const auto& [key, values] : lgroups) {
      expected[key] = maybe_sorted(values);
    }
    EXPECT_EQ(got, expected);
  }
  {
    SCOPED_TRACE("Distinct");
    auto distinct =
        lds.Map([](const Entry& e) { return e.first; }).Distinct(out_parts);
    const auto& parts = distinct.MaterializedPartitions();
    ExpectFirstOccurrenceOrder(
        parts, [](const K& key) -> const K& { return key; }, ranks);
    std::set<K> got;
    for (const auto& part : parts) got.insert(part.begin(), part.end());
    std::set<K> expected;
    for (const auto& [key, values] : lgroups) expected.insert(key);
    EXPECT_EQ(got, expected);
  }
  {
    SCOPED_TRACE("Join");
    using Match = std::pair<int64_t, int64_t>;  // (left, right) positions
    auto joined = lds.template Join<int64_t>(rds, out_parts);
    ::tgraph::testing::ExpectRouted(joined);
    std::multiset<std::pair<K, Match>> got;
    for (const auto& part : joined.MaterializedPartitions()) {
      // Probe records in input order, each with its matches in build order.
      auto order = [&](const std::pair<K, Match>& m) {
        return std::pair(lorder.at(m.second.first), rorder.at(m.second.second));
      };
      for (size_t i = 1; i < part.size(); ++i) {
        EXPECT_LT(order(part[i - 1]), order(part[i]));
      }
      got.insert(part.begin(), part.end());
    }
    std::multiset<std::pair<K, Match>> expected;
    for (const Entry& l : lflat) {
      auto it = rgroups.find(l.first);
      if (it == rgroups.end()) continue;
      for (int64_t r : it->second) expected.insert({l.first, {l.second, r}});
    }
    EXPECT_EQ(got, expected);
  }
  {
    SCOPED_TRACE("SemiJoin");
    auto kept = lds.template SemiJoin<int64_t>(rds, out_parts);
    ::tgraph::testing::ExpectRouted(kept);
    std::multiset<Entry> got;
    for (const auto& part : kept.MaterializedPartitions()) {
      for (size_t i = 1; i < part.size(); ++i) {
        EXPECT_LT(lorder.at(part[i - 1].second), lorder.at(part[i].second));
      }
      got.insert(part.begin(), part.end());
    }
    std::multiset<Entry> expected;
    for (const Entry& l : lflat) {
      if (rgroups.contains(l.first)) expected.insert(l);
    }
    EXPECT_EQ(got, expected);
  }
  {
    SCOPED_TRACE("CoGroup");
    std::map<K, size_t> cogroup_ranks = ranks;
    RankFirstOccurrences(rflat, &cogroup_ranks);
    auto cogrouped = lds.template CoGroup<int64_t>(rds, out_parts);
    ::tgraph::testing::ExpectRouted(cogrouped);
    const auto& parts = cogrouped.MaterializedPartitions();
    ExpectFirstOccurrenceOrder(parts, first_key, cogroup_ranks);
    std::map<K, std::pair<Values, Values>> got;
    for (const auto& part : parts) {
      for (const auto& [key, sides] : part) {
        got[key] = {maybe_sorted(sides.first), maybe_sorted(sides.second)};
      }
    }
    std::map<K, std::pair<Values, Values>> expected;
    for (const auto& [key, values] : lgroups) {
      expected[key].first = maybe_sorted(values);
    }
    for (const auto& [key, values] : rgroups) {
      expected[key].second = maybe_sorted(values);
    }
    EXPECT_EQ(got, expected);
  }
}

template <typename K>
void ExpectWideOpsMatchReference(ExecutionContext* ctx, const Records<K>& left,
                                 const Records<K>& right, int out_parts,
                                 bool ordered_values) {
  using Entry = std::pair<K, int64_t>;
  ExpectWideOpsMatchReference(Dataset<Entry>::FromPartitions(ctx, left),
                              Dataset<Entry>::FromPartitions(ctx, right),
                              out_parts, ordered_values);
}

ExecutionContext* PlainCtx() {
  static ExecutionContext* ctx = new ExecutionContext(
      ContextOptions{.num_workers = 2,
                     .default_parallelism = 4,
                     .shuffle = {.enable = false}});
  return ctx;
}

/// Splits hot keys eagerly, so small inputs exercise the spread path.
ExecutionContext* RebalancingCtx() {
  static ExecutionContext* ctx = new ExecutionContext(
      ContextOptions{.num_workers = 2,
                     .default_parallelism = 4,
                     .shuffle = {.enable = true,
                                 .skew_threshold = 2.0,
                                 .max_splits = 4,
                                 .min_records = 0}});
  return ctx;
}

std::vector<int64_t> UniformKeys(size_t n, int64_t range,
                                 std::mt19937_64* rng) {
  std::vector<int64_t> keys(n);
  for (int64_t& key : keys) key = static_cast<int64_t>((*rng)() % range);
  return keys;
}

TEST(WideOpsReferenceTest, DuplicateHeavyKeysAndEmptyPartitions) {
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto left = Deal(UniformKeys(3000, 6, &rng), 7, {1, 4}, &rng);
    auto right = Deal(UniformKeys(40, 9, &rng), 5, {0, 2, 3}, &rng);
    ExpectWideOpsMatchReference(PlainCtx(), left, right, 4, true);
    // More output partitions than keys: most come out empty.
    ExpectWideOpsMatchReference(PlainCtx(), left, right, 16, true);
    // An input with no records at all.
    ExpectWideOpsMatchReference(PlainCtx(), Records<int64_t>(3), right, 4,
                                true);
  }
}

TEST(WideOpsReferenceTest, KeysInOneResidueClassModuloPartitions) {
  // Every key hashes to partition 0 of 4, as all keys of one shuffled
  // partition do.
  std::vector<int64_t> pool;
  for (int64_t k = 0; pool.size() < 1500; ++k) {
    if (DfHash(k) % 4 == 0) pool.push_back(k);
  }
  std::mt19937_64 rng(11);
  std::vector<int64_t> lkeys(5000);
  std::vector<int64_t> rkeys(2000);
  for (int64_t& key : lkeys) key = pool[rng() % pool.size()];
  for (int64_t& key : rkeys) key = pool[rng() % pool.size()];
  ExpectWideOpsMatchReference(PlainCtx(), Deal(lkeys, 4, {}, &rng),
                              Deal(rkeys, 3, {}, &rng), 4, true);
}

TEST(WideOpsReferenceTest, StringKeys) {
  std::mt19937_64 rng(5);
  auto keys = [&](size_t n, int range) {
    std::vector<std::string> out(n);
    for (std::string& key : out) {
      int id = static_cast<int>(rng() % range);
      // append(), not "k" + std::string&& (GCC 12 -Wrestrict false
      // positive).
      key = std::string("k").append(std::to_string(id)).append(id % 13, 'x');
    }
    return out;
  };
  ExpectWideOpsMatchReference(PlainCtx(), Deal(keys(4000, 700), 5, {2}, &rng),
                              Deal(keys(1500, 900), 3, {}, &rng), 4, true);
  ExpectWideOpsMatchReference(RebalancingCtx(),
                              Deal(keys(4000, 700), 5, {}, &rng),
                              Deal(keys(1500, 900), 3, {}, &rng), 4, false);
}

TEST(WideOpsReferenceTest, NestedPairKeys) {
  using Key = std::pair<std::pair<int64_t, std::string>, int64_t>;
  std::mt19937_64 rng(9);
  auto keys = [&](size_t n) {
    std::vector<Key> out(n);
    for (Key& key : out) {
      key = {{static_cast<int64_t>(rng() % 20), std::to_string(rng() % 3)},
             static_cast<int64_t>(rng() % 15)};
    }
    return out;
  };
  ExpectWideOpsMatchReference(PlainCtx(), Deal(keys(3000), 4, {}, &rng),
                              Deal(keys(800), 4, {3}, &rng), 4, true);
}

TEST(WideOpsReferenceTest, HotKeysWithRebalancingOnAndOff) {
  for (uint64_t seed : {21, 22}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    // On the left ~80% of the records share key 0, on the right ~5%; the
    // rest spread over 500 keys.
    auto keys = [&](size_t n, uint64_t cold_in_20) {
      std::vector<int64_t> out(n);
      for (int64_t& key : out) {
        key = rng() % 20 < cold_in_20 ? 1 + static_cast<int64_t>(rng() % 500)
                                      : 0;
      }
      return out;
    };
    auto left = Deal(keys(6000, 4), 6, {}, &rng);
    auto right = Deal(keys(300, 19), 3, {}, &rng);
    ExpectWideOpsMatchReference(PlainCtx(), left, right, 4, true);
    obs::Counter* rebalanced = obs::MetricsRegistry::Global().GetCounter(
        obs::metric_names::kShuffleRebalanced);
    const int64_t before = rebalanced->value();
    ExpectWideOpsMatchReference(RebalancingCtx(), left, right, 4, false);
    EXPECT_GT(rebalanced->value(), before);
  }
}

TEST(WideOpsReferenceTest, PartitionLargerThanInitialTable) {
  // One output partition with more distinct keys than a table starts
  // with, so every operator's table grows while it is filled.
  const size_t distinct = internal_dataset::kFlatIndexMaxInitialKeys + 5000;
  std::mt19937_64 rng(31);
  std::vector<int64_t> lkeys(distinct);
  std::iota(lkeys.begin(), lkeys.end(), 0);
  for (size_t i = 0; i < distinct / 8; ++i) {
    lkeys.push_back(static_cast<int64_t>(rng() % distinct));
  }
  std::shuffle(lkeys.begin(), lkeys.end(), rng);
  std::vector<int64_t> rkeys = lkeys;
  std::shuffle(rkeys.begin(), rkeys.end(), rng);
  rkeys.resize(distinct / 4);
  ExpectWideOpsMatchReference(PlainCtx(), Deal(lkeys, 1, {}, &rng),
                              Deal(rkeys, 2, {}, &rng), 1, true);
}

// ---------------------------------------------------------------------------
// Wide operators over routed inputs. A side routed into the operator's
// partition count stays where it is: with both sides routed nothing moves,
// with one side routed only the other is shuffled. The results must match
// the same reference.

template <typename K>
using EntryDataset = Dataset<std::pair<K, int64_t>>;

/// How an input arrives routed into `parts` partitions.
enum class Routing {
  kNone,             // as dealt, no routing claimed
  kPartitionByKey,   // PartitionByKey
  kAggregated,       // AggregateByKey, expanded back with FlatMapValues
  kReduced,          // MapValues, ReduceByKey, then FlatMapValues
  kMappedValues,     // PartitionByKey, then MapValues
};

constexpr Routing kRoutings[] = {Routing::kNone, Routing::kPartitionByKey,
                                 Routing::kAggregated, Routing::kReduced,
                                 Routing::kMappedValues};

template <typename K>
EntryDataset<K> Route(const EntryDataset<K>& ds, Routing routing, int parts) {
  using Values = std::vector<int64_t>;
  auto expand = [](const Values& values, std::vector<int64_t>* out) {
    out->insert(out->end(), values.begin(), values.end());
  };
  auto concat = [](Values* acc, Values&& other) {
    acc->insert(acc->end(), other.begin(), other.end());
  };
  switch (routing) {
    case Routing::kNone:
      return ds;
    case Routing::kPartitionByKey:
      return ds.PartitionByKey(parts);
    case Routing::kAggregated:
      return ds
          .template AggregateByKey<Values>(
              {}, [](Values* acc, const int64_t& v) { acc->push_back(v); },
              concat, parts)
          .template FlatMapValues<int64_t>(expand);
    case Routing::kReduced:
      return ds.MapValues([](const int64_t& v) { return Values{v}; })
          .ReduceByKey(
              [concat](Values a, Values b) {
                concat(&a, std::move(b));
                return a;
              },
              parts)
          .template FlatMapValues<int64_t>(expand);
    case Routing::kMappedValues:
      return ds.PartitionByKey(parts).MapValues(
          [](const int64_t& v) { return v; });
  }
  return ds;
}

/// ExpectWideOpsMatchReference over every pairing of input routings.
/// Without rebalancing, every routed input must claim its routing.
template <typename K>
void ExpectRoutedWideOpsMatchReference(ExecutionContext* ctx,
                                       const Records<K>& left,
                                       const Records<K>& right, int parts,
                                       bool ordered_values) {
  const auto lds = EntryDataset<K>::FromPartitions(ctx, left);
  const auto rds = EntryDataset<K>::FromPartitions(ctx, right);
  for (Routing lr : kRoutings) {
    for (Routing rr : kRoutings) {
      SCOPED_TRACE(::testing::Message() << "left routing " << int(lr)
                                        << ", right routing " << int(rr));
      auto lrouted = Route(lds, lr, parts);
      auto rrouted = Route(rds, rr, parts);
      for (auto [routing, side] : {std::pair(lr, &lrouted),
                                   std::pair(rr, &rrouted)}) {
        const size_t claimed = ::tgraph::testing::ExpectRouted(*side);
        if (routing != Routing::kNone && !ctx->shuffle_options().enable) {
          EXPECT_EQ(claimed, static_cast<size_t>(parts));
        }
      }
      ExpectWideOpsMatchReference(lrouted, rrouted, parts, ordered_values);
    }
  }
}

TEST(RoutedWideOpsTest, MatchReferenceWithRebalancingOnAndOff) {
  for (uint64_t seed : {41, 42}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto left = Deal(UniformKeys(2500, 300, &rng), 5, {1}, &rng);
    auto right = Deal(UniformKeys(700, 400, &rng), 3, {}, &rng);
    ExpectRoutedWideOpsMatchReference(PlainCtx(), left, right, 4, true);
    ExpectRoutedWideOpsMatchReference(RebalancingCtx(), left, right, 4,
                                      false);
  }
}

TEST(RoutedWideOpsTest, HotKeysWithRebalancingOnAndOff) {
  std::mt19937_64 rng(43);
  // ~75% of the left records share key 0.
  std::vector<int64_t> lkeys(4000);
  for (int64_t& key : lkeys) {
    key = rng() % 4 == 0 ? 1 + static_cast<int64_t>(rng() % 200) : 0;
  }
  auto left = Deal(lkeys, 4, {}, &rng);
  auto right = Deal(UniformKeys(400, 201, &rng), 2, {}, &rng);
  ExpectRoutedWideOpsMatchReference(PlainCtx(), left, right, 4, true);
  ExpectRoutedWideOpsMatchReference(RebalancingCtx(), left, right, 4, false);
}

using Composite = PrefixKey<int64_t, int64_t>;

TEST(RoutedWideOpsTest, PrefixRoutedCompositeKeys) {
  std::mt19937_64 rng(44);
  auto keys = [&](size_t n) {
    std::vector<Composite> out(n);
    for (Composite& key : out) {
      key = {static_cast<int64_t>(rng() % 60), static_cast<int64_t>(rng() % 9)};
    }
    return out;
  };
  auto left = Deal(keys(3000), 4, {}, &rng);
  auto right = Deal(keys(900), 3, {2}, &rng);
  ExpectRoutedWideOpsMatchReference(PlainCtx(), left, right, 4, true);
  ExpectRoutedWideOpsMatchReference(RebalancingCtx(), left, right, 4, false);

  // Routed by the prefix alone, then re-keyed by the composite key with a
  // key-preserving Map: the composite-keyed operators need no shuffle.
  using ByPrefix = std::pair<int64_t, std::pair<int64_t, int64_t>>;
  auto lds = EntryDataset<Composite>::FromPartitions(PlainCtx(), left);
  auto by_prefix =
      lds.Map([](const std::pair<Composite, int64_t>& e) {
           return ByPrefix(e.first.prefix, {e.first.rest, e.second});
         })
          .PartitionByKey(4)
          .Map(
              [](const ByPrefix& kv) {
                return std::pair<Composite, int64_t>(
                    Composite{kv.first, kv.second.first}, kv.second.second);
              },
              kPreservesPartitioning);
  EXPECT_EQ(::tgraph::testing::ExpectRouted(by_prefix), 4u);
  ExpectWideOpsMatchReference(
      by_prefix, EntryDataset<Composite>::FromPartitions(PlainCtx(), right), 4,
      true);
}

int64_t ShufflesDuring(const std::function<void()>& fn) {
  obs::Counter* shuffles =
      obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kShuffles);
  const int64_t before = shuffles->value();
  fn();
  return shuffles->value() - before;
}

TEST(RoutedWideOpsTest, RoutedInputsSkipTheirShuffle) {
  auto sum = [](const int64_t& a, const int64_t& b) { return a + b; };
  auto unrouted = ModKeyed(2000, 37);
  auto routed = ModKeyed(2000, 37).PartitionByKey();
  auto other = ModKeyed(500, 53).PartitionByKey();
  EXPECT_EQ(ShufflesDuring([&] { routed.Cache(); other.Cache(); }), 2);
  EXPECT_EQ(routed.RoutedPartitions(), 4u);

  EXPECT_EQ(ShufflesDuring([&] { routed.ReduceByKey(sum).Cache(); }), 0);
  EXPECT_EQ(ShufflesDuring([&] { routed.GroupByKey().Cache(); }), 0);
  EXPECT_EQ(ShufflesDuring([&] { routed.CountByKey().Cache(); }), 0);
  EXPECT_EQ(ShufflesDuring([&] { routed.Join<int64_t>(other).Cache(); }), 0);
  EXPECT_EQ(ShufflesDuring([&] { routed.CoGroup<int64_t>(other).Cache(); }),
            0);
  EXPECT_EQ(
      ShufflesDuring([&] { routed.SemiJoin<int64_t>(unrouted).Cache(); }), 1);
  EXPECT_EQ(ShufflesDuring([&] { unrouted.Join<int64_t>(routed).Cache(); }),
            1);
  // Another partition count is another routing.
  EXPECT_EQ(ShufflesDuring([&] { routed.ReduceByKey(sum, 8).Cache(); }), 1);
  EXPECT_EQ(ShufflesDuring([&] { unrouted.ReduceByKey(sum).Cache(); }), 1);
  // A plain Map may change the key, so it drops the routing.
  EXPECT_EQ(routed.Map([](const KV& kv) { return kv; }).RoutedPartitions(),
            0u);
  EXPECT_EQ(routed.Filter([](const KV& kv) { return kv.second % 2 == 0; })
                .RoutedPartitions(),
            4u);
}

TEST(RoutedWideOpsTest, IsolatedOrSpreadHotKeyFallsBackToAShuffle) {
  auto sum = [](const int64_t& a, const int64_t& b) { return a + b; };
  std::map<int64_t, int64_t> expected;
  for (const auto& [key, value] : HubRecords(10000)) expected[key] += value;
  auto as_map = [](const std::vector<KV>& records) {
    return std::map<int64_t, int64_t>(records.begin(), records.end());
  };

  // PartitionByKey isolates the hub key in a partition of its own.
  auto isolated =
      Dataset<KV>::FromVector(RebalancingCtx(), HubRecords(10000))
          .PartitionByKey();
  EXPECT_GT(isolated.NumPartitions(), 4u);
  EXPECT_EQ(isolated.RoutedPartitions(), 0u);
  Dataset<KV> reduced;
  EXPECT_EQ(ShufflesDuring([&] { reduced = isolated.ReduceByKey(sum).Cache(); }),
            1);
  EXPECT_EQ(as_map(reduced.Collect()), expected);

  // GroupByKey spreads it over sub-partitions and merges them back into
  // one, outside the base partitions.
  auto spread = Dataset<KV>::FromVector(RebalancingCtx(), HubRecords(10000))
                    .GroupByKey()
                    .FlatMapValues<int64_t>(
                        [](const std::vector<int64_t>& values,
                           std::vector<int64_t>* out) {
                          out->insert(out->end(), values.begin(),
                                      values.end());
                        });
  EXPECT_EQ(spread.RoutedPartitions(), 0u);
  EXPECT_EQ(ShufflesDuring([&] { reduced = spread.ReduceByKey(sum).Cache(); }),
            1);
  EXPECT_EQ(as_map(reduced.Collect()), expected);

  // A routed build side with an unrouted hot probe side: the probe's
  // sketch finds the hub, so both sides take the skew-aware shuffle.
  auto build = Dataset<KV>::FromVector(RebalancingCtx(),
                                       {{0, -1}, {3, -3}, {9, -9}})
                   .PartitionByKey();
  EXPECT_EQ(build.RoutedPartitions(), 4u);
  auto probe = Dataset<KV>::FromVector(RebalancingCtx(), HubRecords(10000));
  int64_t matches = 0;
  EXPECT_EQ(ShufflesDuring([&] {
              matches = probe.Join<int64_t>(build).Count();
            }),
            2);
  int64_t expected_matches = 0;
  for (const auto& [key, value] : HubRecords(10000)) {
    expected_matches += key == 0 || key == 3 ? 1 : 0;
  }
  EXPECT_EQ(matches, expected_matches);

  // CoGroup plans over both sides: with either side routed, the hub on the
  // other side sends both down the spread path, and every key of both
  // sides comes out once.
  std::set<int64_t> keys = {0, 3, 9};
  for (const auto& [key, value] : HubRecords(10000)) keys.insert(key);
  for (bool build_left : {true, false}) {
    SCOPED_TRACE(build_left);
    int64_t groups = 0;
    EXPECT_EQ(ShufflesDuring([&] {
                groups = build_left ? build.CoGroup<int64_t>(probe).Count()
                                    : probe.CoGroup<int64_t>(build).Count();
              }),
              2);
    EXPECT_EQ(groups, static_cast<int64_t>(keys.size()));
  }
}

}  // namespace
}  // namespace tgraph::dataflow
