// Differential correctness harness for skew-aware shuffle rebalancing:
// every wide operator and both zoom operators run twice — rebalancing on
// vs. off — on power-law inputs, and the canonicalized results must be
// identical. This is the proof obligation that lets rebalancing stay on
// by default: the rebalanced shuffle may route records differently, but
// it must never change what an operator computes.
//
// The suite is parameterized over worker counts (1, 2, and the
// TGRAPH_THREADS environment override, which the CI sanitizer matrix
// sets) so the equivalence also holds under real thread interleavings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dataflow/dataset.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "tests/routing_test_util.h"
#include "tests/test_util.h"
#include "tgraph/tgraph.h"
#include "tgraph/wzoom.h"
#include "tgraph/validate.h"

namespace tgraph::dataflow {
namespace {

using KV = std::pair<int64_t, int64_t>;

int EnvThreads() {
  if (const char* env = std::getenv("TGRAPH_THREADS"); env != nullptr) {
    int value = std::atoi(env);
    if (value > 0) return value;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 2;
}

std::vector<int> ThreadCounts() {
  std::vector<int> counts = {1, 2};
  if (int env = EnvThreads();
      std::find(counts.begin(), counts.end(), env) == counts.end()) {
    counts.push_back(env);
  }
  return counts;
}

/// Aggressive rebalancing: no minimum size, low threshold, so the small
/// test inputs actually trigger hot-key splitting.
ShuffleOptions Rebalancing() {
  return ShuffleOptions{.enable = true,
                        .skew_threshold = 2.0,
                        .max_splits = 4,
                        .min_records = 0};
}

ShuffleOptions Legacy() { return ShuffleOptions{.enable = false}; }

/// Zipf-keyed records with a super-hot key 0: key frequency of rank r is
/// proportional to 1/(r+1)^1.2, plus `hub_share` of all records forced to
/// key 0. Values enumerate positions so every record is unique.
std::vector<KV> PowerLawRecords(int64_t n, uint64_t seed,
                                double hub_share = 0.2,
                                int64_t key_space = 200) {
  Rng rng(seed);
  std::vector<double> cdf(static_cast<size_t>(key_space));
  double cumulative = 0;
  for (int64_t r = 0; r < key_space; ++r) {
    cumulative += 1.0 / std::pow(static_cast<double>(r + 1), 1.2);
    cdf[static_cast<size_t>(r)] = cumulative;
  }
  std::vector<KV> data;
  data.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    int64_t key;
    if (rng.NextDouble() < hub_share) {
      key = 0;
    } else {
      auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                 rng.NextDouble() * cumulative);
      key = it == cdf.end() ? key_space - 1 : it - cdf.begin();
    }
    data.emplace_back(key, i);
  }
  return data;
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Runs `pipeline` against a context with the given shuffle options and
/// worker count, returning its (already canonicalized) result.
template <typename Fn>
auto RunWith(int workers, const ShuffleOptions& options, const Fn& pipeline) {
  ExecutionContext ctx(ContextOptions{
      .num_workers = workers, .default_parallelism = 8, .shuffle = options});
  return pipeline(&ctx);
}

class ShuffleDifferential : public ::testing::TestWithParam<int> {};

// ---------------------------------------------------------------------------
// Wide operators on power-law keyed records.
// ---------------------------------------------------------------------------

TEST_P(ShuffleDifferential, GroupByKey) {
  std::vector<KV> data = PowerLawRecords(20000, 7);
  auto pipeline = [&](ExecutionContext* ctx) {
    auto grouped =
        Dataset<KV>::FromVector(ctx, data).GroupByKey().Collect();
    // Canonicalize: sort values within groups, then groups.
    for (auto& [key, values] : grouped) std::sort(values.begin(), values.end());
    std::sort(grouped.begin(), grouped.end());
    return grouped;
  };
  auto rebalanced = RunWith(GetParam(), Rebalancing(), pipeline);
  auto legacy = RunWith(GetParam(), Legacy(), pipeline);
  EXPECT_EQ(rebalanced, legacy);
  EXPECT_FALSE(rebalanced.empty());
}

TEST_P(ShuffleDifferential, ReduceByKey) {
  std::vector<KV> data = PowerLawRecords(20000, 11);
  auto pipeline = [&](ExecutionContext* ctx) {
    return Sorted(Dataset<KV>::FromVector(ctx, data)
                      .ReduceByKey([](const int64_t& a, const int64_t& b) {
                        return a + b;
                      })
                      .Collect());
  };
  EXPECT_EQ(RunWith(GetParam(), Rebalancing(), pipeline),
            RunWith(GetParam(), Legacy(), pipeline));
}

TEST_P(ShuffleDifferential, AggregateByKey) {
  std::vector<KV> data = PowerLawRecords(15000, 13);
  auto pipeline = [&](ExecutionContext* ctx) {
    auto agg =
        Dataset<KV>::FromVector(ctx, data)
            .AggregateByKey<std::vector<int64_t>>(
                {},
                [](std::vector<int64_t>* acc, const int64_t& v) {
                  acc->push_back(v);
                },
                [](std::vector<int64_t>* acc, std::vector<int64_t>&& other) {
                  acc->insert(acc->end(), other.begin(), other.end());
                })
            .Collect();
    for (auto& [key, values] : agg) std::sort(values.begin(), values.end());
    std::sort(agg.begin(), agg.end());
    return agg;
  };
  EXPECT_EQ(RunWith(GetParam(), Rebalancing(), pipeline),
            RunWith(GetParam(), Legacy(), pipeline));
}

TEST_P(ShuffleDifferential, CountByKey) {
  std::vector<KV> data = PowerLawRecords(20000, 17);
  auto pipeline = [&](ExecutionContext* ctx) {
    return Sorted(Dataset<KV>::FromVector(ctx, data).CountByKey().Collect());
  };
  EXPECT_EQ(RunWith(GetParam(), Rebalancing(), pipeline),
            RunWith(GetParam(), Legacy(), pipeline));
}

TEST_P(ShuffleDifferential, Distinct) {
  // Many duplicates of the hot records: the input repeats a small record
  // space so the hot record is also the most duplicated one.
  std::vector<KV> skewed = PowerLawRecords(20000, 19, 0.3, 50);
  for (KV& kv : skewed) kv.second %= 7;  // collapse values: real duplicates
  auto pipeline = [&](ExecutionContext* ctx) {
    return Sorted(Dataset<KV>::FromVector(ctx, skewed).Distinct().Collect());
  };
  auto rebalanced = RunWith(GetParam(), Rebalancing(), pipeline);
  auto legacy = RunWith(GetParam(), Legacy(), pipeline);
  EXPECT_EQ(rebalanced, legacy);
  // Sanity: duplicates actually existed and were removed.
  EXPECT_LT(rebalanced.size(), skewed.size());
}

TEST_P(ShuffleDifferential, Join) {
  std::vector<KV> left = PowerLawRecords(12000, 23);
  std::vector<KV> right = PowerLawRecords(300, 29, 0.05);
  auto pipeline = [&](ExecutionContext* ctx) {
    auto l = Dataset<KV>::FromVector(ctx, left);
    auto r = Dataset<KV>::FromVector(ctx, right);
    return Sorted(l.Join<int64_t>(r).Collect());
  };
  auto rebalanced = RunWith(GetParam(), Rebalancing(), pipeline);
  auto legacy = RunWith(GetParam(), Legacy(), pipeline);
  EXPECT_EQ(rebalanced, legacy);
  EXPECT_FALSE(rebalanced.empty());
}

TEST_P(ShuffleDifferential, SemiJoin) {
  std::vector<KV> left = PowerLawRecords(12000, 31);
  std::vector<KV> right = {{0, 0}, {3, 0}, {17, 0}, {99, 0}};
  auto pipeline = [&](ExecutionContext* ctx) {
    auto l = Dataset<KV>::FromVector(ctx, left);
    auto r = Dataset<KV>::FromVector(ctx, right);
    return Sorted(l.SemiJoin<int64_t>(r).Collect());
  };
  EXPECT_EQ(RunWith(GetParam(), Rebalancing(), pipeline),
            RunWith(GetParam(), Legacy(), pipeline));
}

TEST_P(ShuffleDifferential, CoGroup) {
  std::vector<KV> left = PowerLawRecords(10000, 37);
  std::vector<KV> right = PowerLawRecords(10000, 41);
  auto pipeline = [&](ExecutionContext* ctx) {
    auto l = Dataset<KV>::FromVector(ctx, left);
    auto r = Dataset<KV>::FromVector(ctx, right);
    auto cogrouped = l.CoGroup<int64_t>(r).Collect();
    for (auto& [key, sides] : cogrouped) {
      std::sort(sides.first.begin(), sides.first.end());
      std::sort(sides.second.begin(), sides.second.end());
    }
    std::sort(cogrouped.begin(), cogrouped.end());
    return cogrouped;
  };
  EXPECT_EQ(RunWith(GetParam(), Rebalancing(), pipeline),
            RunWith(GetParam(), Legacy(), pipeline));
}

TEST_P(ShuffleDifferential, PartitionByKeepsCoLocation) {
  std::vector<KV> data = PowerLawRecords(20000, 43);
  auto pipeline = [&](ExecutionContext* ctx) {
    auto partitioned = Dataset<KV>::FromVector(ctx, data).PartitionBy(
        [](const KV& kv) { return kv.first; });
    // Record the multiset of records and the co-location invariant.
    std::map<int64_t, std::set<size_t>> partitions_of_key;
    const Partitions<KV>& parts = partitioned.MaterializedPartitions();
    for (size_t p = 0; p < parts.size(); ++p) {
      for (const KV& kv : parts[p]) partitions_of_key[kv.first].insert(p);
    }
    for (auto& [key, owners] : partitions_of_key) {
      EXPECT_EQ(owners.size(), 1u) << "key " << key << " split across "
                                   << owners.size() << " partitions";
    }
    return Sorted(partitioned.Collect());
  };
  EXPECT_EQ(RunWith(GetParam(), Rebalancing(), pipeline),
            RunWith(GetParam(), Legacy(), pipeline));
}

// Composite (vertex, window) keys route by the vertex, so one hub vertex's
// windows share a route hash: the hot key the sketch finds is the hub, not
// one of its windows. Spreading it and merging the sub-partitions by full
// key must still balance the shuffle and change no result.
TEST_P(ShuffleDifferential, HubPrefixKeysSpreadAndMerge) {
  using Key = PrefixKey<int64_t, int64_t>;
  using Record = std::pair<Key, int64_t>;
  std::vector<Record> data;
  for (const auto& [vid, i] : PowerLawRecords(20000, 53)) {
    data.emplace_back(Key{vid, i % 40}, i);
  }
  auto pipeline = [&](ExecutionContext* ctx) {
    auto records = Dataset<Record>::FromVector(ctx, data);
    auto right =
        records.Filter([](const Record& r) { return r.second % 7 == 0; });
    auto grouped = records.GroupByKey().Collect();
    for (auto& [key, values] : grouped) std::sort(values.begin(), values.end());
    auto sums = records
                    .ReduceByKey([](const int64_t& a, const int64_t& b) {
                      return a + b;
                    })
                    .Collect();
    auto joined = records.Join<int64_t>(right).Collect();
    return std::tuple(Sorted(grouped), Sorted(sums), Sorted(joined));
  };
  obs::Counter* rebalanced = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kShuffleRebalanced);
  const int64_t fired_before = rebalanced->value();
  auto spread = RunWith(GetParam(), Rebalancing(), pipeline);
  EXPECT_GT(rebalanced->value(), fired_before);
  EXPECT_EQ(spread, RunWith(GetParam(), Legacy(), pipeline));

  // The hub (~20% of the records plus its Zipf share) fills one partition
  // of the plain hash layout; spreading it caps the largest partition near
  // a quarter of that.
  ExecutionContext ctx(ContextOptions{.num_workers = GetParam(),
                                      .default_parallelism = 8,
                                      .shuffle = Rebalancing()});
  Partitions<Record> input = {data};
  auto key_of = [](const Record& r) -> const Key& { return r.first; };
  auto largest = [](const Partitions<Record>& parts) {
    size_t most = 0;
    for (const auto& part : parts) most = std::max(most, part.size());
    return most;
  };
  internal_shuffle::ShufflePlan plain;
  plain.num_base = 8;
  internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
      &ctx, input, 8, key_of, /*allow_spread=*/true);
  ASSERT_TRUE(plan.rebalanced());
  const size_t before = largest(internal_shuffle::ShuffleWithPlan(
      &ctx, input, plain, key_of, internal_shuffle::HotRouting::kSpread));
  const size_t after = largest(internal_shuffle::ShuffleWithPlan(
      &ctx, input, plan, key_of, internal_shuffle::HotRouting::kSpread));
  EXPECT_GE(before, 6000u);
  EXPECT_LE(after, before / 2);
}

// ---------------------------------------------------------------------------
// Zoom operators on a power-law hub graph, across all representations.
// ---------------------------------------------------------------------------

gen::PowerLawConfig HubGraphConfig() {
  gen::PowerLawConfig config;
  config.num_vertices = 400;
  config.num_edges = 6000;
  config.zipf_exponent = 1.2;
  config.hub_fraction = 0.25;
  config.num_snapshots = 8;
  config.num_groups = 5;
  config.seed = 3;
  return config;
}

AZoomSpec GroupZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("group");
  spec.aggregator = MakeAggregator(
      "cluster", "key",
      {{"members", AggKind::kCount, ""}, {"total", AggKind::kSum, "weight"}});
  spec.edge_type = "clustered";
  return spec;
}

WZoomSpec WindowZoom() {
  WZoomSpec spec{WindowSpec::TimePoints(3), Quantifier::Most(),
                 Quantifier::Exists(), {}, {}};
  spec.vertex_resolve.default_resolver = Resolver::kLast;
  return spec;
}

/// Canonical aZoom^T result for one representation under one context.
std::vector<std::string> AZoomResult(ExecutionContext* ctx,
                                     Representation rep) {
  VeGraph ve = gen::GeneratePowerLaw(ctx, HubGraphConfig());
  TGraph g = TGraph::FromVe(ve, true);
  Result<TGraph> converted = g.As(rep);
  TG_CHECK(converted.ok()) << converted.status();
  Result<TGraph> zoomed = converted->AZoom(GroupZoom());
  TG_CHECK(zoomed.ok()) << zoomed.status();
  return testing::Canonical(*zoomed);
}

std::vector<std::string> WZoomResult(ExecutionContext* ctx,
                                     Representation rep) {
  VeGraph ve = gen::GeneratePowerLaw(ctx, HubGraphConfig());
  TGraph g = TGraph::FromVe(ve, true);
  Result<TGraph> converted = g.As(rep);
  TG_CHECK(converted.ok()) << converted.status();
  Result<TGraph> zoomed = converted->WZoom(WindowZoom());
  TG_CHECK(zoomed.ok()) << zoomed.status();
  if (rep == Representation::kOgc) {
    // OGC keeps topology only; compare presence, not attributes.
    Result<TGraph> as_ve = zoomed->As(Representation::kVe);
    TG_CHECK(as_ve.ok()) << as_ve.status();
    return testing::CanonicalTopology(as_ve->ve());
  }
  return testing::Canonical(*zoomed);
}

TEST_P(ShuffleDifferential, AZoomAllRepresentations) {
  for (Representation rep :
       {Representation::kRg, Representation::kVe, Representation::kOg}) {
    auto rebalanced = RunWith(GetParam(), Rebalancing(), [&](auto* ctx) {
      return AZoomResult(ctx, rep);
    });
    auto legacy = RunWith(GetParam(), Legacy(), [&](auto* ctx) {
      return AZoomResult(ctx, rep);
    });
    EXPECT_EQ(rebalanced, legacy)
        << "aZoom differs on " << RepresentationName(rep);
    EXPECT_FALSE(rebalanced.empty());
  }
}

TEST_P(ShuffleDifferential, WZoomAllRepresentations) {
  for (Representation rep : {Representation::kRg, Representation::kVe,
                             Representation::kOg, Representation::kOgc}) {
    auto rebalanced = RunWith(GetParam(), Rebalancing(), [&](auto* ctx) {
      return WZoomResult(ctx, rep);
    });
    auto legacy = RunWith(GetParam(), Legacy(), [&](auto* ctx) {
      return WZoomResult(ctx, rep);
    });
    EXPECT_EQ(rebalanced, legacy)
        << "wZoom differs on " << RepresentationName(rep);
    EXPECT_FALSE(rebalanced.empty());
  }
}

// Coalesce and the VE zoom operators keep the vid/eid routing of their
// relations through key-preserving maps. Every relation that claims a
// routing must sit where its id routes, or a later partition-local fold
// would silently miss records; without rebalancing every claim is made.
TEST_P(ShuffleDifferential, VeZoomRelationsSitWhereTheirIdsRoute) {
  auto vid = [](const VeVertex& v) { return v.vid; };
  auto eid = [](const VeEdge& e) { return e.eid; };
  for (const ShuffleOptions& options : {Rebalancing(), Legacy()}) {
    RunWith(GetParam(), options, [&](ExecutionContext* ctx) {
      VeGraph graph = gen::GeneratePowerLaw(ctx, HubGraphConfig());
      VeGraph azoomed = AZoomVe(graph, GroupZoom());
      VeGraph coalesced = azoomed.Coalesce();
      WZoomSpec all{WindowSpec::TimePoints(3), Quantifier::All(),
                    Quantifier::All(), {}, {}};
      const std::vector<size_t> claims = {
          testing::ExpectRouted(azoomed.vertices(), vid),
          testing::ExpectRouted(coalesced.vertices(), vid),
          testing::ExpectRouted(coalesced.edges(), eid),
          testing::ExpectRouted(WZoomVe(coalesced, all).vertices(), vid),
          testing::ExpectRouted(WZoomVe(coalesced, all).edges(), eid),
          testing::ExpectRouted(WZoomVe(coalesced, WindowZoom()).vertices(),
                                vid),
          testing::ExpectRouted(WZoomVe(coalesced, WindowZoom()).edges(),
                                eid)};
      if (!options.enable) {
        for (size_t claim : claims) EXPECT_EQ(claim, 8u);
      }
      return 0;
    });
  }
}

/// The harness must actually exercise the rebalancer — otherwise the
/// suite silently degenerates into legacy-vs-legacy.
TEST_P(ShuffleDifferential, RebalancerActuallyFires) {
  std::vector<KV> data = PowerLawRecords(20000, 7);
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  RunWith(GetParam(), Rebalancing(), [&](ExecutionContext* ctx) {
    return Dataset<KV>::FromVector(ctx, data).GroupByKey().Count();
  });
  obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters[obs::metric_names::kShuffleRebalanced], 1);
  EXPECT_GE(delta.counters[obs::metric_names::kShuffleHotKeys], 1);
}

INSTANTIATE_TEST_SUITE_P(Workers, ShuffleDifferential,
                         ::testing::ValuesIn(ThreadCounts()),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "workers_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tgraph::dataflow
