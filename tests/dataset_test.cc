#include "dataflow/dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <random>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgraph::dataflow {
namespace {

ExecutionContext* Ctx() {
  static ExecutionContext* ctx = new ExecutionContext(
      ContextOptions{.num_workers = 2, .default_parallelism = 4});
  return ctx;
}

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(DatasetTest, FromVectorPartitionsEvenly) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(10), 3);
  const auto& parts = ds.MaterializedPartitions();
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size(), 4u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 3u);
  EXPECT_EQ(ds.Count(), 10);
}

TEST(DatasetTest, FromVectorPreservesOrderInCollect) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(100), 7);
  EXPECT_EQ(ds.Collect(), Iota(100));
}

TEST(DatasetTest, EmptyDataset) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), {}, 4);
  EXPECT_EQ(ds.Count(), 0);
  EXPECT_TRUE(ds.Collect().empty());
}

TEST(DatasetTest, Map) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(20));
  auto strings = ds.Map([](const int64_t& x) { return std::to_string(x); });
  std::vector<std::string> collected = strings.Collect();
  ASSERT_EQ(collected.size(), 20u);
  EXPECT_EQ(collected[7], "7");
}

TEST(DatasetTest, Filter) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(100));
  EXPECT_EQ(ds.Filter([](const int64_t& x) { return x % 3 == 0; }).Count(), 34);
}

TEST(DatasetTest, FlatMapEmitsZeroOrMore) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(10));
  auto expanded = ds.FlatMap<int64_t>(
      [](const int64_t& x, std::vector<int64_t>* out) {
        for (int64_t i = 0; i < x % 3; ++i) out->push_back(x);
      });
  // x contributes (x mod 3) copies: 0,1,2,0,1,2,... for 0..9.
  EXPECT_EQ(expanded.Count(), 0 + 1 + 2 + 0 + 1 + 2 + 0 + 1 + 2 + 0);
}

TEST(DatasetTest, MapPartitions) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(50), 5);
  auto sums = ds.MapPartitions<int64_t>(
      [](const std::vector<int64_t>& part, std::vector<int64_t>* out) {
        int64_t sum = 0;
        for (int64_t x : part) sum += x;
        out->push_back(sum);
      });
  EXPECT_EQ(sums.Count(), 5);
  EXPECT_EQ(sums.Reduce(0, [](int64_t a, int64_t b) { return a + b; }),
            49 * 50 / 2);
}

TEST(DatasetTest, MapPartitionsWithIndexSeesEveryPartitionOnce) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(12), 4);
  auto indices = ds.MapPartitionsWithIndex<int64_t>(
      [](size_t p, const std::vector<int64_t>&, std::vector<int64_t>* out) {
        out->push_back(static_cast<int64_t>(p));
      });
  std::vector<int64_t> collected = indices.Collect();
  std::sort(collected.begin(), collected.end());
  EXPECT_EQ(collected, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(DatasetTest, UnionConcatenates) {
  auto a = Dataset<int64_t>::FromVector(Ctx(), Iota(5), 2);
  auto b = Dataset<int64_t>::FromVector(Ctx(), Iota(3), 2);
  EXPECT_EQ(a.Union(b).Count(), 8);
  EXPECT_EQ(a.Union(b).NumPartitions(), 4u);
}

TEST(DatasetTest, RepartitionRebalances) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(100), 2);
  auto repartitioned = ds.Repartition(10);
  EXPECT_EQ(repartitioned.NumPartitions(), 10u);
  EXPECT_EQ(repartitioned.Count(), 100);
}

TEST(DatasetTest, PartitionByCoLocatesEqualKeys) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(100), 5);
  auto by_mod = ds.PartitionBy([](const int64_t& x) { return x % 4; }, 8);
  const auto& parts = by_mod.MaterializedPartitions();
  // Each residue class must live in exactly one partition.
  for (int64_t residue = 0; residue < 4; ++residue) {
    int partitions_with_residue = 0;
    for (const auto& part : parts) {
      bool found = false;
      for (int64_t x : part) {
        if (x % 4 == residue) found = true;
      }
      if (found) ++partitions_with_residue;
    }
    EXPECT_EQ(partitions_with_residue, 1) << "residue " << residue;
  }
}

TEST(DatasetTest, Distinct) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(100));
  EXPECT_EQ(ds.Map([](const int64_t& x) { return x % 9; }).Distinct().Count(),
            9);
}

TEST(DatasetTest, DistinctOnStrings) {
  std::vector<std::string> data = {"a", "b", "a", "c", "b", "a"};
  auto ds = Dataset<std::string>::FromVector(Ctx(), data);
  EXPECT_EQ(ds.Distinct().Count(), 3);
}

TEST(DatasetTest, SortByGlobalOrder) {
  std::vector<int64_t> data = {5, 3, 9, 1, 7, 0, 8};
  auto ds = Dataset<int64_t>::FromVector(Ctx(), data, 3);
  auto sorted =
      ds.SortBy([](const int64_t& a, const int64_t& b) { return a < b; }, 2);
  EXPECT_EQ(sorted.Collect(), (std::vector<int64_t>{0, 1, 3, 5, 7, 8, 9}));
}

TEST(DatasetTest, KeyBy) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(10));
  auto keyed = ds.KeyBy([](const int64_t& x) { return x % 2; });
  EXPECT_EQ(keyed.Count(), 10);
  EXPECT_EQ(keyed.GroupByKey().Count(), 2);
}

TEST(DatasetTest, ReduceAction) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(101));
  EXPECT_EQ(ds.Reduce(0, [](int64_t a, int64_t b) { return a + b; }),
            100 * 101 / 2);
}

TEST(DatasetTest, TakeAndFirst) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(100), 7);
  EXPECT_EQ(ds.Take(5), (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ds.Take(1000).size(), 100u);  // capped at the dataset size
  EXPECT_EQ(ds.First(), 0);
  auto empty = Dataset<int64_t>::FromVector(Ctx(), {}, 2);
  EXPECT_TRUE(empty.Take(3).empty());
  EXPECT_FALSE(empty.First().has_value());
}

TEST(DatasetTest, SampleIsDeterministicAndProportional) {
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(10000), 4);
  auto a = ds.Sample(0.3, 9).Collect();
  auto b = ds.Sample(0.3, 9).Collect();
  EXPECT_EQ(a, b);  // deterministic in (seed, position)
  EXPECT_NEAR(static_cast<double>(a.size()), 3000.0, 300.0);
  EXPECT_EQ(ds.Sample(0.0, 9).Count(), 0);
  EXPECT_EQ(ds.Sample(1.0, 9).Count(), 10000);
  // A different seed draws a different sample.
  EXPECT_NE(ds.Sample(0.3, 10).Collect(), a);
}

TEST(DatasetTest, SharedLineageComputesOnce) {
  // A node consumed by two downstream branches must not recompute.
  std::atomic<int> calls{0};
  auto ds = Dataset<int64_t>::FromVector(Ctx(), Iota(10), 1)
                .Map([&calls](const int64_t& x) {
                  calls.fetch_add(1);
                  return x;
                });
  auto a = ds.Filter([](const int64_t& x) { return x < 5; });
  auto b = ds.Filter([](const int64_t& x) { return x >= 5; });
  EXPECT_EQ(a.Count() + b.Count(), 10);
  EXPECT_EQ(calls.load(), 10);
}

TEST(DatasetTest, MetricsCountShuffledRecords) {
  ExecutionContext ctx({.num_workers = 1, .default_parallelism = 2});
  auto ds = Dataset<int64_t>::FromVector(&ctx, Iota(40), 2);
  obs::QueryCounterScope work;
  ds.PartitionBy([](const int64_t& x) { return x; }, 4).Cache();
  EXPECT_EQ(work.Delta()[obs::QueryCounter::kShuffleRecords], 40);
}

TEST(FlatIndexTest, NumbersKeysInFirstInsertionOrderAndGrows) {
  // Keys that share DfHash % 8, as the keys of one shuffled partition do,
  // and more of them than the table starts with.
  std::vector<int64_t> pool;
  for (int64_t k = 0; pool.size() < 3000; ++k) {
    if (DfHash(k) % 8 == 3) pool.push_back(k);
  }
  std::vector<int64_t> entries;
  auto index = internal_dataset::MakeFlatIndex<int64_t>(
      /*expected_keys=*/16,
      [&entries](size_t i) -> const int64_t& { return entries[i]; });
  for (size_t i = 0; i < pool.size(); ++i) {
    auto [pos, inserted] = index.Insert(pool[i]);
    ASSERT_TRUE(inserted);
    ASSERT_EQ(pos, i);
    entries.push_back(pool[i]);
  }
  EXPECT_EQ(index.size(), pool.size());
  for (size_t i = pool.size(); i-- > 0;) {
    EXPECT_EQ(index.Insert(pool[i]), std::make_pair(i, false));
    EXPECT_EQ(index.Find(pool[i]), i);
  }
  EXPECT_EQ(index.Find(pool.back() + 1), index.kAbsent);
  EXPECT_EQ(index.size(), pool.size());
}

TEST(FlatIndexTest, KeyChainsListSameKeyRecordsInInsertionOrder) {
  std::vector<std::pair<std::string, int>> records = {
      {"b", 0}, {"a", 1}, {"b", 2}, {"c", 3}, {"b", 4}, {"a", 5}};
  const internal_dataset::KeyChains<std::string, int> chains(records);
  auto matches = [&](const std::string& key) {
    std::vector<int> out;
    chains.ForEachMatch(key, [&](int v) { out.push_back(v); });
    return out;
  };
  EXPECT_EQ(matches("b"), (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(matches("a"), (std::vector<int>{1, 5}));
  EXPECT_EQ(matches("c"), (std::vector<int>{3}));
  EXPECT_TRUE(matches("d").empty());
  EXPECT_TRUE(chains.Contains("c"));
  EXPECT_FALSE(chains.Contains("d"));
}

// ---------------------------------------------------------------------------
// Pipelined narrow chains. A Map/Filter/FlatMap/MapValues/FlatMapValues
// node with one consumer runs inside the consumer's tasks; the same chain
// with Cache() after every op materializes each step. Both must give every
// consumer the same records in the same partition order.

using Entry = std::pair<int64_t, std::string>;

/// Longer than any small-string buffer, so a record moved from twice or
/// read after a move shows up as an empty or truncated value.
std::string LongValue(int64_t v) {
  return "a-value-longer-than-the-small-string-buffer-" + std::to_string(v);
}

/// Every narrow op, in a chain over (key, position) records that keeps the
/// keys (so a routed input stays routed), then, when `rekey`, a plain Map
/// that changes them. `cache` materializes after every op.
Dataset<Entry> NarrowChain(const Dataset<std::pair<int64_t, int64_t>>& input,
                           bool rekey, bool cache) {
  auto step = [cache](auto ds) {
    if (cache) ds.Cache();
    return ds;
  };
  auto values = step(input.MapValues([](const int64_t& v) { return v; }));
  auto kept = step(values.Filter(
      [](const std::pair<int64_t, int64_t>& kv) { return kv.second % 5 != 3; }));
  auto strings = step(kept.template FlatMapValues<std::string>(
      [](const int64_t& v, std::vector<std::string>* out) {
        out->push_back(LongValue(v));
        if (v % 2 == 0) out->push_back(LongValue(-v));
      }));
  auto marked = step(strings.Map(
      [](Entry kv) {
        kv.second += "m";
        return kv;
      },
      kPreservesPartitioning));
  auto doubled = step(marked.template FlatMap<Entry>(
      [](const Entry& kv, std::vector<Entry>* out) {
        out->push_back(kv);
        if (kv.first % 7 == 0) out->push_back(kv);
      },
      kPreservesPartitioning));
  if (!rekey) return doubled;
  return step(doubled.Map([](const Entry& kv) {
    return Entry(kv.first / 2, kv.second + "r");
  }));
}

std::string Longer(std::string a, const std::string& b) {
  if (b.size() > a.size() || (b.size() == a.size() && b > a)) return b;
  return a;
}

int64_t StagesRun() {
  return obs::MetricsRegistry::Global()
      .GetCounter(obs::metric_names::kStages)
      ->value();
}

std::vector<int> WorkerCounts() {
  std::vector<int> counts = {1, 2};
  if (const char* env = std::getenv("TGRAPH_THREADS"); env != nullptr) {
    const int value = std::atoi(env);
    if (value > 0 && std::find(counts.begin(), counts.end(), value) ==
                         counts.end()) {
      counts.push_back(value);
    }
  }
  return counts;
}

/// Runs every consumer over the chain built pipelined and materialized,
/// and compares. Returns the stages the pipelined and the materialized
/// runs took.
std::pair<int64_t, int64_t> ExpectPipelinedMatchesMaterialized(
    const Dataset<std::pair<int64_t, int64_t>>& input,
    const Dataset<std::pair<int64_t, int64_t>>& other, bool rekey) {
  int64_t stages[2] = {0, 0};
  auto check = [&](const char* name, const auto& build) {
    SCOPED_TRACE(name);
    int64_t before = StagesRun();
    const auto pipelined = build(false).MaterializedPartitions();
    stages[0] += StagesRun() - before;
    before = StagesRun();
    const auto materialized = build(true).MaterializedPartitions();
    stages[1] += StagesRun() - before;
    EXPECT_EQ(pipelined, materialized);
  };
  auto chain = [&](bool cache) { return NarrowChain(input, rekey, cache); };
  check("ReduceByKey", [&](bool cache) {
    return chain(cache).ReduceByKey(Longer, 4);
  });
  check("AggregateByKey", [&](bool cache) {
    using Acc = std::pair<int64_t, std::string>;
    return chain(cache).template AggregateByKey<Acc>(
        Acc{0, ""},
        [](Acc* acc, std::string value) {
          ++acc->first;
          acc->second = Longer(std::move(acc->second), value);
        },
        [](Acc* acc, Acc&& other) {
          acc->first += other.first;
          acc->second = Longer(std::move(acc->second), other.second);
        },
        4);
  });
  check("GroupByKey", [&](bool cache) { return chain(cache).GroupByKey(4); });
  check("Distinct", [&](bool cache) { return chain(cache).Distinct(4); });
  check("PartitionByKey",
        [&](bool cache) { return chain(cache).PartitionByKey(4); });
  check("Join, chain probes", [&](bool cache) {
    return chain(cache).template Join<int64_t>(other, 4);
  });
  check("Join, chain builds", [&](bool cache) {
    return other.template Join<std::string>(chain(cache), 4);
  });
  check("SemiJoin, chain probes", [&](bool cache) {
    return chain(cache).template SemiJoin<int64_t>(other, 4);
  });
  check("SemiJoin, chain builds", [&](bool cache) {
    return other.template SemiJoin<std::string>(chain(cache), 4);
  });
  check("CoGroup, chain left", [&](bool cache) {
    return chain(cache).template CoGroup<int64_t>(other, 4);
  });
  check("CoGroup, chain right", [&](bool cache) {
    return other.template CoGroup<std::string>(chain(cache), 4);
  });
  check("Union", [&](bool cache) { return chain(cache).Union(chain(cache)); });
  {
    SCOPED_TRACE("actions");
    auto pipelined = chain(false);
    auto materialized = chain(true);
    EXPECT_EQ(pipelined.Count(), materialized.Count());
    EXPECT_EQ(chain(false).Collect(), materialized.Collect());
    EXPECT_EQ(chain(false).Take(5), materialized.Take(5));
    auto longest = [](const Entry& a, const Entry& b) {
      return Entry(std::max(a.first, b.first), Longer(a.second, b.second));
    };
    EXPECT_EQ(chain(false).Reduce(Entry(0, ""), longest),
              materialized.Reduce(Entry(0, ""), longest));
  }
  return {stages[0], stages[1]};
}

TEST(PipelinedChainTest, MatchesMaterializedChainForEveryConsumer) {
  std::mt19937_64 rng(7);
  for (bool hot : {false, true}) {
    // With hot keys, ~60% of the records share key 0.
    std::vector<std::pair<int64_t, int64_t>> records;
    for (int64_t i = 0; i < 3000; ++i) {
      const auto key = static_cast<int64_t>(rng() % 200);
      records.emplace_back(hot && rng() % 5 < 3 ? 0 : key, i);
    }
    std::vector<std::pair<int64_t, int64_t>> others;
    for (int64_t i = 0; i < 400; ++i) {
      others.emplace_back(static_cast<int64_t>(rng() % 250), -i);
    }
    for (int workers : WorkerCounts()) {
      for (bool rebalance : {false, true}) {
        ExecutionContext ctx(ContextOptions{
            .num_workers = workers,
            .default_parallelism = 4,
            .shuffle = {.enable = rebalance,
                        .skew_threshold = 2.0,
                        .max_splits = 4,
                        .min_records = 0}});
        auto unrouted = Dataset<std::pair<int64_t, int64_t>>::FromVector(
            &ctx, records, 5);
        auto other = Dataset<std::pair<int64_t, int64_t>>::FromVector(
            &ctx, others, 3);
        auto routed = Dataset<std::pair<int64_t, int64_t>>::FromVector(
                          &ctx, records, 5)
                          .PartitionByKey(4);
        auto routed_other = Dataset<std::pair<int64_t, int64_t>>::FromVector(
                                &ctx, others, 3)
                                .PartitionByKey(4);
        for (bool rekey : {false, true}) {
          for (bool is_routed : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "hot " << hot << ", workers " << workers
                         << ", rebalance " << rebalance << ", rekey " << rekey
                         << ", routed " << is_routed);
            auto [pipelined, materialized] = ExpectPipelinedMatchesMaterialized(
                is_routed ? routed : unrouted,
                is_routed ? routed_other : other, rekey);
            EXPECT_LT(pipelined, materialized);
          }
        }
      }
    }
  }
}

TEST(PipelinedChainTest, NarrowNodeWithTwoConsumersRunsOncePerRecord) {
  ExecutionContext ctx(ContextOptions{.num_workers = 2,
                                      .default_parallelism = 4});
  std::vector<std::pair<int64_t, int64_t>> records;
  for (int64_t i = 0; i < 2000; ++i) records.emplace_back(i % 97, i);
  std::atomic<int64_t> upstream_calls{0};
  std::atomic<int64_t> shared_calls{0};
  // `shared` streams its input (one consumer) and materializes itself
  // (three consumers), so each function runs once per record.
  auto shared =
      Dataset<std::pair<int64_t, int64_t>>::FromVector(&ctx, records)
          .Map([&upstream_calls](const std::pair<int64_t, int64_t>& kv) {
            upstream_calls.fetch_add(1, std::memory_order_relaxed);
            return kv;
          })
          .MapValues([&shared_calls](const int64_t& v) {
            shared_calls.fetch_add(1, std::memory_order_relaxed);
            return v + 1;
          });
  auto sum = [](int64_t a, int64_t b) { return a + b; };
  auto reduced = shared.ReduceByKey(sum);
  auto joined = shared.Join<int64_t>(
      Dataset<std::pair<int64_t, int64_t>>::FromVector(&ctx, {{3, 30}}));
  auto kept = shared.Filter(
      [](const std::pair<int64_t, int64_t>& kv) { return kv.second % 2 == 0; });
  // The consumers run on two threads at once.
  std::thread other([&] { joined.Cache(); });
  reduced.Cache();
  kept.Cache();
  other.join();
  EXPECT_EQ(upstream_calls.load(), 2000);
  EXPECT_EQ(shared_calls.load(), 2000);
  EXPECT_EQ(reduced.Count(), 97);
  EXPECT_EQ(joined.Count(), 2000 / 97 + (3 < 2000 % 97 ? 1 : 0));
  EXPECT_EQ(kept.Count(), 1000);
}

TEST(PipelinedChainTest, ThreadsRunPlansOverOneSharedCachedDataset) {
  ExecutionContext ctx(ContextOptions{.num_workers = 3,
                                      .default_parallelism = 4});
  std::vector<std::pair<int64_t, int64_t>> records;
  for (int64_t i = 0; i < 5000; ++i) records.emplace_back(i % 131, i);
  const auto shared =
      Dataset<std::pair<int64_t, int64_t>>::FromVector(&ctx, records)
          .PartitionByKey();
  shared.Cache();
  auto plan = [&shared](int64_t salt) {
    auto sum = [](int64_t a, int64_t b) { return a + b; };
    auto reduced = shared.MapValues([salt](const int64_t& v) { return v + salt; })
                       .Filter([](const std::pair<int64_t, int64_t>& kv) {
                         return kv.second % 3 != 0;
                       })
                       .ReduceByKey(sum);
    auto probe = shared.Map(
        [](const std::pair<int64_t, int64_t>& kv) {
          return std::pair<int64_t, int64_t>(kv.first, 1);
        },
        kPreservesPartitioning);
    auto joined = probe.Join<int64_t>(reduced).MapValues(
        [](const std::pair<int64_t, int64_t>& vw) { return vw.second; });
    auto collected = joined.ReduceByKey(sum).Collect();
    std::sort(collected.begin(), collected.end());
    return collected;
  };
  std::vector<std::vector<std::pair<int64_t, int64_t>>> expected;
  for (int64_t salt = 0; salt < 2; ++salt) expected.push_back(plan(salt));
  std::vector<int> mismatches(2, 0);
  std::vector<std::thread> threads;
  for (int64_t salt = 0; salt < 2; ++salt) {
    threads.emplace_back([&, salt] {
      for (int round = 0; round < 20; ++round) {
        if (plan(salt) != expected[static_cast<size_t>(salt)]) {
          ++mismatches[static_cast<size_t>(salt)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, (std::vector<int>{0, 0}));
}

}  // namespace
}  // namespace tgraph::dataflow
