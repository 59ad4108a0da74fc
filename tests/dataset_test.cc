#include "dataflow/dataset.h"

#include <gtest/gtest.h>

#include <numeric>

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

}  // namespace
}  // namespace tgraph::dataflow
