// Property tests for the shuffle primitive itself (internal_shuffle):
// seeded key distributions — uniform, Zipf, all-one-key, empty — pushed
// through PlanShuffle/ShuffleWithPlan directly, checking the invariants
// the wide operators rely on:
//
//  * multiset preservation: every record comes out exactly once (kSpread,
//    kIsolate) or exactly `splits` times (kReplicate, hot keys only);
//  * the partition invariant: a non-hot key's records land in
//    `hash % num_base`, a hot key's records stay inside its dedicated
//    sub-partition range — so each key is visible to exactly one reduce
//    group after the operator's merge step;
//  * metrics ground truth: `records_shuffled`, `dataflow.shuffle.records`
//    and `.bytes` match hand-computed totals, and the pre-rebalance
//    partition-size histogram accounts for every routed record.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dataflow/dataset.h"
#include "dataflow/hashing.h"
#include "dataflow/shuffle.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgraph::dataflow::internal_shuffle {
namespace {

using KV = std::pair<int64_t, int64_t>;

constexpr auto kKeyOf = [](const KV& kv) -> const int64_t& {
  return kv.first;
};

/// Chunks `data` into `parts` input partitions (round-robin, so every
/// partition sees every key class).
Partitions<KV> Chunk(const std::vector<KV>& data, size_t parts) {
  Partitions<KV> out(parts);
  for (size_t i = 0; i < data.size(); ++i) {
    out[i % parts].push_back(data[i]);
  }
  return out;
}

std::vector<KV> Flattened(const Partitions<KV>& parts) {
  std::vector<KV> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  return all;
}

enum class Distribution { kUniform, kZipf, kAllOneKey };

std::vector<KV> MakeRecords(Distribution distribution, int64_t n,
                            uint64_t seed, int64_t key_space = 500) {
  Rng rng(seed);
  std::vector<KV> data;
  data.reserve(static_cast<size_t>(n));
  std::vector<double> cdf;
  double cumulative = 0;
  if (distribution == Distribution::kZipf) {
    cdf.resize(static_cast<size_t>(key_space));
    for (int64_t r = 0; r < key_space; ++r) {
      cumulative += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
      cdf[static_cast<size_t>(r)] = cumulative;
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    int64_t key = 0;
    switch (distribution) {
      case Distribution::kUniform:
        key = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(key_space)));
        break;
      case Distribution::kZipf: {
        auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                   rng.NextDouble() * cumulative);
        key = it == cdf.end() ? key_space - 1 : it - cdf.begin();
        break;
      }
      case Distribution::kAllOneKey:
        key = 7;
        break;
    }
    data.emplace_back(key, i);
  }
  return data;
}

ExecutionContext MakeContext(double skew_threshold = 2.0, int max_splits = 4,
                             int64_t min_records = 0) {
  return ExecutionContext(
      ContextOptions{.num_workers = 2,
                     .default_parallelism = 8,
                     .shuffle = ShuffleOptions{.enable = true,
                                               .skew_threshold = skew_threshold,
                                               .max_splits = max_splits,
                                               .min_records = min_records}});
}

/// Asserts the partition invariant of `plan` over shuffled output:
/// every key's records confined to the partitions its routing allows.
void ExpectPartitionInvariant(const ShufflePlan& plan,
                              const Partitions<KV>& shuffled,
                              HotRouting routing) {
  for (size_t p = 0; p < shuffled.size(); ++p) {
    for (const KV& kv : shuffled[p]) {
      uint64_t h = DfHash(kv.first);
      const HotKey* hk = plan.Find(h);
      if (hk == nullptr) {
        EXPECT_EQ(p, h % plan.num_base)
            << "non-hot key " << kv.first << " misrouted to partition " << p;
      } else if (routing == HotRouting::kIsolate) {
        EXPECT_EQ(p, hk->first_sub)
            << "isolated key " << kv.first << " left its partition";
      } else {
        EXPECT_GE(p, hk->first_sub) << "hot key " << kv.first;
        EXPECT_LT(p, hk->first_sub + static_cast<size_t>(hk->splits))
            << "hot key " << kv.first << " outside its sub-partition range";
      }
    }
  }
}

// A composite key with a RouteKey() lands where its prefix lands, and a
// shuffle that moves the records out of its input routes them exactly as
// one that copies them.
TEST(ShufflePrefixRouting, CompositeKeysLandWithTheirPrefix) {
  ExecutionContext ctx = MakeContext();
  using Key = PrefixKey<int64_t, int64_t>;
  using Record = std::pair<Key, int64_t>;
  auto key_of = [](const Record& r) -> const Key& { return r.first; };
  std::vector<KV> data = MakeRecords(Distribution::kZipf, 6000, 25, 40);
  Partitions<Record> input(3);
  for (size_t i = 0; i < data.size(); ++i) {
    input[i % 3].emplace_back(Key{data[i].first, data[i].second % 11},
                              data[i].second);
  }
  ShufflePlan plan;
  plan.num_base = 8;
  Partitions<Record> copied =
      ShuffleWithPlan(&ctx, input, plan, key_of, HotRouting::kSpread);
  ASSERT_EQ(copied.size(), 8u);
  for (size_t p = 0; p < copied.size(); ++p) {
    for (const Record& r : copied[p]) {
      EXPECT_EQ(RouteHash(r.first), DfHash(r.first.prefix));
      EXPECT_EQ(DfHash(r.first.prefix) % 8, p);
    }
  }
  Partitions<Record> moved = ShuffleWithPlan(&ctx, Partitions<Record>(input),
                                             plan, key_of, HotRouting::kSpread);
  EXPECT_EQ(moved, copied);

  // With a plan that fired, the moving shuffle still matches the copying
  // one record for record.
  ShufflePlan hot = PlanShuffle(&ctx, input, 8, key_of, /*allow_spread=*/true);
  ASSERT_TRUE(hot.rebalanced());
  for (HotRouting routing : {HotRouting::kSpread, HotRouting::kIsolate}) {
    EXPECT_EQ(ShuffleWithPlan(&ctx, Partitions<Record>(input), hot, key_of,
                              routing),
              ShuffleWithPlan(&ctx, input, hot, key_of, routing));
  }
}

class ShuffleDistributions
    : public ::testing::TestWithParam<Distribution> {};

TEST_P(ShuffleDistributions, MultisetAndPartitionInvariants) {
  ExecutionContext ctx = MakeContext();
  std::vector<KV> data = MakeRecords(GetParam(), 10000, 21);
  Partitions<KV> input = Chunk(data, 4);

  for (HotRouting routing : {HotRouting::kSpread, HotRouting::kIsolate}) {
    ShufflePlan plan =
        PlanShuffle(&ctx, input, 8, kKeyOf,
                    /*allow_spread=*/routing == HotRouting::kSpread);
    Partitions<KV> shuffled =
        ShuffleWithPlan(&ctx, input, plan, kKeyOf, routing);
    ASSERT_EQ(shuffled.size(), plan.total_partitions());

    std::vector<KV> out = Flattened(shuffled);
    std::vector<KV> expected = data;
    std::sort(out.begin(), out.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(out, expected) << "shuffle lost or duplicated records";

    ExpectPartitionInvariant(plan, shuffled, routing);
  }
}

TEST_P(ShuffleDistributions, MetricsMatchGroundTruth) {
  ExecutionContext ctx = MakeContext();
  std::vector<KV> data = MakeRecords(GetParam(), 8000, 22);
  Partitions<KV> input = Chunk(data, 4);

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  obs::QueryCounterScope work;

  ShufflePlan plan = PlanShuffle(&ctx, input, 8, kKeyOf, /*allow_spread=*/true);
  Partitions<KV> shuffled =
      ShuffleWithPlan(&ctx, input, plan, kKeyOf, HotRouting::kSpread);

  int64_t total = static_cast<int64_t>(data.size());
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  // kSpread routes every record exactly once, so all three record counts
  // and the byte volume are exact.
  EXPECT_EQ(work.Delta()[obs::QueryCounter::kShuffleRecords], total);
  EXPECT_EQ(delta.counters.at(obs::metric_names::kShuffleRecords), total);
  EXPECT_EQ(delta.counters.at(obs::metric_names::kShuffleBytes),
            total * static_cast<int64_t>(sizeof(KV)));
  // The pre-rebalance histogram accounts for every routed record.
  const obs::HistogramSnapshot& skew =
      delta.histograms.at(obs::metric_names::kShufflePartitionSize);
  EXPECT_EQ(skew.sum, total);
  int64_t out_total = 0;
  for (const auto& p : shuffled) out_total += static_cast<int64_t>(p.size());
  EXPECT_EQ(out_total, total);
}

INSTANTIATE_TEST_SUITE_P(Distributions, ShuffleDistributions,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kZipf,
                                           Distribution::kAllOneKey),
                         [](const auto& info) {
                           switch (info.param) {
                             case Distribution::kUniform: return "uniform";
                             case Distribution::kZipf: return "zipf";
                             case Distribution::kAllOneKey: return "all_one_key";
                           }
                           return "unknown";
                         });

TEST(ShuffleProperty, EmptyInput) {
  ExecutionContext ctx = MakeContext();
  Partitions<KV> input(4);  // four empty partitions
  ShufflePlan plan = PlanShuffle(&ctx, input, 8, kKeyOf, /*allow_spread=*/true);
  EXPECT_FALSE(plan.rebalanced());
  Partitions<KV> shuffled =
      ShuffleWithPlan(&ctx, input, plan, kKeyOf, HotRouting::kSpread);
  ASSERT_EQ(shuffled.size(), 8u);
  for (const auto& p : shuffled) EXPECT_TRUE(p.empty());
}

TEST(ShuffleProperty, AllOneKeyGetsSplitEvenly) {
  ExecutionContext ctx = MakeContext(/*skew_threshold=*/2.0, /*max_splits=*/4);
  std::vector<KV> data = MakeRecords(Distribution::kAllOneKey, 10000, 23);
  Partitions<KV> input = Chunk(data, 4);

  ShufflePlan plan = PlanShuffle(&ctx, input, 8, kKeyOf, /*allow_spread=*/true);
  ASSERT_TRUE(plan.rebalanced());
  ASSERT_EQ(plan.hot.size(), 1u);
  EXPECT_EQ(plan.hot[0].splits, 4);
  // The sketch sees only this key, so its estimate is exact.
  EXPECT_EQ(plan.hot[0].estimated_count, 10000);

  Partitions<KV> shuffled =
      ShuffleWithPlan(&ctx, input, plan, kKeyOf, HotRouting::kSpread);
  // Base partitions are empty; the four sub-partitions share the load
  // within one record per input partition of each other.
  size_t max_size = 0;
  for (size_t p = 0; p < plan.num_base; ++p) EXPECT_TRUE(shuffled[p].empty());
  for (size_t p = plan.num_base; p < shuffled.size(); ++p) {
    max_size = std::max(max_size, shuffled[p].size());
    EXPECT_GT(shuffled[p].size(), 0u);
  }
  EXPECT_LE(max_size, 10000 / 4 + input.size());
}

TEST(ShuffleProperty, ReplicateCopiesHotKeysToEverySub) {
  ExecutionContext ctx = MakeContext();
  // Mixed input: one dominant key plus a uniform tail.
  std::vector<KV> data = MakeRecords(Distribution::kZipf, 6000, 24, 40);
  Partitions<KV> input = Chunk(data, 4);

  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  ShufflePlan plan = PlanShuffle(&ctx, input, 8, kKeyOf, /*allow_spread=*/true);
  ASSERT_TRUE(plan.rebalanced());
  Partitions<KV> shuffled =
      ShuffleWithPlan(&ctx, input, plan, kKeyOf, HotRouting::kReplicate);

  // Hand-count expected replication: hot records appear `splits` times.
  std::map<KV, int64_t> expected_copies;
  int64_t expected_total = 0;
  for (const KV& kv : data) {
    const HotKey* hk = plan.Find(DfHash(kv.first));
    int64_t copies = hk == nullptr ? 1 : hk->splits;
    expected_copies[kv] += copies;
    expected_total += copies;
  }
  EXPECT_GT(expected_total, static_cast<int64_t>(data.size()));

  std::map<KV, int64_t> actual_copies;
  int64_t actual_total = 0;
  for (const auto& p : shuffled) {
    for (const KV& kv : p) {
      ++actual_copies[kv];
      ++actual_total;
    }
  }
  EXPECT_EQ(actual_copies, expected_copies);
  EXPECT_EQ(actual_total, expected_total);

  // The shuffle volume counters include the replicas.
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counters.at(obs::metric_names::kShuffleRecords),
            expected_total);
  EXPECT_EQ(delta.counters.at(obs::metric_names::kShuffleBytes),
            expected_total * static_cast<int64_t>(sizeof(KV)));
}

TEST(ShuffleProperty, DisabledRebalancingNeverPlansHotKeys) {
  ExecutionContext ctx = MakeContext();
  ctx.set_shuffle_options(ShuffleOptions{.enable = false});
  std::vector<KV> data = MakeRecords(Distribution::kAllOneKey, 10000, 25);
  Partitions<KV> input = Chunk(data, 4);
  ShufflePlan plan = PlanShuffle(&ctx, input, 8, kKeyOf, /*allow_spread=*/true);
  EXPECT_FALSE(plan.rebalanced());
  Partitions<KV> shuffled =
      ShuffleWithPlan(&ctx, input, plan, kKeyOf, HotRouting::kSpread);
  ASSERT_EQ(shuffled.size(), 8u);
  // Legacy behavior: the single key's hash picks exactly one partition.
  size_t non_empty = 0;
  for (const auto& p : shuffled) non_empty += p.empty() ? 0 : 1;
  EXPECT_EQ(non_empty, 1u);
}

TEST(ShuffleProperty, MinRecordsGateSkipsSmallShuffles) {
  ExecutionContext ctx =
      MakeContext(/*skew_threshold=*/2.0, /*max_splits=*/4,
                  /*min_records=*/100000);
  std::vector<KV> data = MakeRecords(Distribution::kAllOneKey, 10000, 26);
  Partitions<KV> input = Chunk(data, 4);
  ShufflePlan plan = PlanShuffle(&ctx, input, 8, kKeyOf, /*allow_spread=*/true);
  EXPECT_FALSE(plan.rebalanced());
}

/// Fuzz sweep: random sizes, key spaces, fan-outs, thresholds, and
/// routings; the core invariants must hold for every combination.
TEST(ShuffleProperty, FuzzInvariants) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 977);
    int64_t n = static_cast<int64_t>(rng.NextBounded(4000));
    int64_t key_space = 1 + static_cast<int64_t>(rng.NextBounded(200));
    size_t num_base = 1 + rng.NextBounded(12);
    size_t num_input = 1 + rng.NextBounded(6);
    double threshold = 1.5 + rng.NextDouble() * 5.0;
    int max_splits = 2 + static_cast<int>(rng.NextBounded(6));
    Distribution distribution = static_cast<Distribution>(rng.NextBounded(3));
    HotRouting routing =
        rng.NextBounded(2) == 0 ? HotRouting::kSpread : HotRouting::kIsolate;

    SCOPED_TRACE("seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
                 " keys=" + std::to_string(key_space) +
                 " base=" + std::to_string(num_base) +
                 " routing=" + (routing == HotRouting::kSpread ? "spread"
                                                               : "isolate"));

    ExecutionContext ctx = MakeContext(threshold, max_splits);
    std::vector<KV> data = MakeRecords(distribution, n, seed, key_space);
    Partitions<KV> input = Chunk(data, num_input);

    ShufflePlan plan =
        PlanShuffle(&ctx, input, num_base, kKeyOf,
                    /*allow_spread=*/routing == HotRouting::kSpread);
    Partitions<KV> shuffled =
        ShuffleWithPlan(&ctx, input, plan, kKeyOf, routing);
    ASSERT_EQ(shuffled.size(), plan.total_partitions());

    std::vector<KV> out = Flattened(shuffled);
    std::vector<KV> expected = data;
    std::sort(out.begin(), out.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(out, expected);
    ExpectPartitionInvariant(plan, shuffled, routing);
  }
}

}  // namespace
}  // namespace tgraph::dataflow::internal_shuffle
