// Unit tests for the tgraph::opt statistics store, cost model, and plan
// enumerator: synthetic-statistics plan picks, the no-stats fallback to
// the rule rewrites, cost monotonicity in observed means, and profile
// persistence.

#include "opt/cost_model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "opt/planner.h"
#include "tgraph/pipeline.h"
#include "tgraph/stats.h"

namespace tgraph {
namespace {

using opt::CostModel;
using opt::Observation;
using opt::OpKind;
using opt::PlanContext;
using opt::Stats;

AZoomSpec GroupZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("group");
  spec.aggregator = MakeAggregator("cluster", "group", {});
  return spec;
}

WZoomSpec ExistsWindows(int64_t size) {
  return WZoomSpec{WindowSpec::TimePoints(size), Quantifier::Exists(),
                   Quantifier::Exists(), {}, {}};
}

Observation Obs(int64_t wall_us, int64_t rows_in, int64_t rows_out,
                int64_t shuffle_bytes = 0) {
  Observation o;
  o.wall_us = wall_us;
  o.shuffle_bytes = shuffle_bytes;
  o.rows_in = rows_in;
  o.rows_out = rows_out;
  return o;
}

PlanContext VeContext(double rows) {
  PlanContext context;
  context.representation = Representation::kVe;
  context.rows = rows;
  context.snapshots = 1;
  return context;
}

bool StartsWithConvertTo(const Pipeline& plan, Representation target) {
  if (plan.steps().empty()) return false;
  const auto* convert = std::get_if<Pipeline::ConvertStep>(&plan.steps()[0]);
  return convert != nullptr && convert->target == target;
}

// ---------------------------------------------------------------------------
// Statistics store.

TEST(StatsTest, AggregatesObservationsPerCell) {
  Stats stats;
  EXPECT_TRUE(stats.empty());
  stats.Observe(OpKind::kAZoom, Representation::kVe, Obs(100, 10, 7));
  stats.Observe(OpKind::kAZoom, Representation::kVe, Obs(300, 30, 14));
  stats.Observe(OpKind::kWZoom, Representation::kOg, Obs(50, 5, 5));
  EXPECT_EQ(stats.TotalObservations(), 3);

  auto cell = stats.Get(OpKind::kAZoom, Representation::kVe);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->observations, 2);
  EXPECT_EQ(cell->wall_us, 400);
  EXPECT_EQ(cell->rows_in, 40);
  EXPECT_DOUBLE_EQ(cell->MeanWallUsPerRow(), 10.0);
  EXPECT_DOUBLE_EQ(cell->Selectivity(), 21.0 / 40.0);
  EXPECT_FALSE(stats.Get(OpKind::kSlice, Representation::kRg).has_value());
}

TEST(StatsTest, SerializeParseRoundTrip) {
  Stats stats;
  stats.Observe(OpKind::kAZoom, Representation::kVe, Obs(100, 10, 7, 2048));
  stats.Observe(OpKind::kConvert, Representation::kRg, Obs(9, 3, 3));
  Result<Stats> parsed = Stats::Parse(stats.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Serialize(), stats.Serialize());
  auto cell = parsed->Get(OpKind::kAZoom, Representation::kVe);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->shuffle_bytes, 2048);
}

TEST(StatsTest, ParseRejectsMalformedProfiles) {
  EXPECT_FALSE(Stats::Parse("not a profile\n").ok());
  EXPECT_FALSE(
      Stats::Parse("tgraph-stats v1\nop=warp rep=VE n=1\n").ok());
  EXPECT_FALSE(
      Stats::Parse("tgraph-stats v1\nop=azoom rep=XX n=1\n").ok());
  EXPECT_FALSE(
      Stats::Parse("tgraph-stats v1\nop=azoom rep=VE n=banana\n").ok());
  EXPECT_FALSE(Stats::Parse("tgraph-stats v1\nop=azoom rep=VE\n").ok());
}

TEST(StatsTest, FilePersistenceRoundTripAndColdStart) {
  std::string path = (std::filesystem::temp_directory_path() /
                      "cost_model_test_stats_profile.txt")
                         .string();
  std::remove(path.c_str());
  Result<Stats> missing = Stats::LoadFromFile(path);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());

  Stats stats;
  stats.Observe(OpKind::kWZoom, Representation::kOg, Obs(640, 64, 32));
  ASSERT_TRUE(stats.SaveToFile(path).ok());
  Result<Stats> loaded = Stats::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Serialize(), stats.Serialize());
  std::remove(path.c_str());
}

// Saving over an existing profile replaces it through WriteFileAtomic:
// the new profile round-trips and no temp file is left beside it.
TEST(StatsTest, SaveOverExistingProfileRoundTripsAndLeavesNoTempFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cost_model_test_resave";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "profile.txt").string();

  Stats first;
  first.Observe(OpKind::kAZoom, Representation::kVe, Obs(100, 10, 5));
  ASSERT_TRUE(first.SaveToFile(path).ok());
  Stats second;
  second.Observe(OpKind::kWZoom, Representation::kOg, Obs(640, 64, 32));
  second.Observe(OpKind::kSlice, Representation::kRg, Obs(20, 8, 4));
  ASSERT_TRUE(second.SaveToFile(path).ok());

  Result<Stats> loaded = Stats::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Serialize(), second.Serialize());
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"profile.txt"});
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Fallback behavior.

TEST(CostPlannerTest, EmptyStatsFallsBackToRuleRewrites) {
  Pipeline pipeline;
  pipeline.AZoom(GroupZoom()).Coalesce().WZoom(ExistsWindows(3)).Slice(
      Interval(0, 10));
  Pipeline::Hints hints;
  Stats empty;
  Pipeline cost_based =
      pipeline.OptimizedWithCost(empty, hints, VeContext(100));
  EXPECT_EQ(cost_based.Explain(), pipeline.Optimized(hints).Explain());
}

// ---------------------------------------------------------------------------
// Synthetic-statistics plan selection.

TEST(CostPlannerTest, ExpensiveVeZoomBuysConversionToOg) {
  // aZoom on VE observed three orders of magnitude slower than on OG,
  // with cheap conversions: the planner should pay for an up-front
  // OG conversion.
  Stats stats;
  stats.Observe(OpKind::kAZoom, Representation::kVe,
                Obs(1'000'000, 1'000, 700));
  stats.Observe(OpKind::kAZoom, Representation::kOg, Obs(100, 1'000, 700));
  stats.Observe(OpKind::kConvert, Representation::kVe, Obs(10, 1'000, 700));

  Pipeline pipeline;
  pipeline.AZoom(GroupZoom());
  Pipeline plan =
      pipeline.OptimizedWithCost(stats, Pipeline::Hints{}, VeContext(1'000));
  EXPECT_TRUE(StartsWithConvertTo(plan, Representation::kOg))
      << plan.Explain();
}

TEST(CostPlannerTest, ShuffleHeavyVeObservationsSteerAwayFromVe) {
  // Identical wall time everywhere, but VE shuffles heavily: the byte
  // cost alone must tip the choice off VE.
  Stats stats;
  stats.Observe(OpKind::kAZoom, Representation::kVe,
                Obs(100, 1'000, 700, /*shuffle_bytes=*/100'000'000));
  stats.Observe(OpKind::kAZoom, Representation::kOg, Obs(100, 1'000, 700));
  stats.Observe(OpKind::kConvert, Representation::kVe, Obs(10, 1'000, 700));

  Pipeline pipeline;
  pipeline.AZoom(GroupZoom());
  Pipeline plan =
      pipeline.OptimizedWithCost(stats, Pipeline::Hints{}, VeContext(1'000));
  EXPECT_TRUE(StartsWithConvertTo(plan, Representation::kOg))
      << plan.Explain();
}

TEST(CostPlannerTest, CheapVeZoomKeepsTheRulePlan) {
  // With VE observed cheap, a conversion detour cannot win; the choice
  // must coincide with the rule plan (no inserted conversions).
  Stats stats;
  stats.Observe(OpKind::kAZoom, Representation::kVe, Obs(100, 1'000, 700));
  stats.Observe(OpKind::kAZoom, Representation::kOg, Obs(90, 1'000, 700));
  stats.Observe(OpKind::kConvert, Representation::kVe,
                Obs(1'000'000, 1'000, 700));

  Pipeline pipeline;
  pipeline.AZoom(GroupZoom());
  Pipeline plan =
      pipeline.OptimizedWithCost(stats, Pipeline::Hints{}, VeContext(1'000));
  EXPECT_EQ(plan.Explain(), pipeline.Optimized(Pipeline::Hints{}).Explain());
}

// ---------------------------------------------------------------------------
// Monotonicity: inflating a representation's observed cost never makes
// the planner more likely to choose it, and never lowers a plan's price.

TEST(CostPlannerTest, MoreObservedCostNeverMakesARepresentationPreferred) {
  Pipeline pipeline;
  pipeline.AZoom(GroupZoom());
  const PlanContext context = VeContext(1'000);

  Pipeline og_plan;
  og_plan.Convert(Representation::kOg).AZoom(GroupZoom()).Convert(
      Representation::kVe);

  double previous_price = 0.0;
  bool og_was_rejected = false;
  for (int64_t wall_us : {100, 10'000, 1'000'000, 100'000'000}) {
    Stats stats;
    stats.Observe(OpKind::kAZoom, Representation::kOg,
                  Obs(wall_us, 1'000, 700));
    stats.Observe(OpKind::kAZoom, Representation::kVe,
                  Obs(10'000, 1'000, 700));
    stats.Observe(OpKind::kConvert, Representation::kVe, Obs(10, 1'000, 700));

    const double price = CostModel(stats).PricePipeline(og_plan, context);
    EXPECT_GE(price, previous_price)
        << "price of the OG plan fell as OG observations got slower";
    previous_price = price;

    const bool chose_og = StartsWithConvertTo(
        pipeline.OptimizedWithCost(stats, Pipeline::Hints{}, context),
        Representation::kOg);
    if (og_was_rejected) {
      EXPECT_FALSE(chose_og)
          << "planner re-chose OG after rejecting it at a lower observed "
             "cost (wall_us="
          << wall_us << ")";
    }
    og_was_rejected = og_was_rejected || !chose_og;
  }
  EXPECT_TRUE(og_was_rejected)
      << "inflating OG cost by 6 orders of magnitude never made the "
         "planner drop it";
}

// ---------------------------------------------------------------------------
// Enumerator shape.

TEST(CostPlannerTest, EnumeratorPutsRulePlanFirstAndDeduplicates) {
  Pipeline pipeline;
  pipeline.AZoom(GroupZoom()).Slice(Interval(0, 10));
  Pipeline::Hints hints;
  std::vector<Pipeline> candidates =
      opt::EnumerateCandidates(pipeline, hints, VeContext(100));
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].Explain(), pipeline.Optimized(hints).Explain());
  for (size_t i = 0; i < candidates.size(); ++i) {
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      EXPECT_NE(candidates[i].Explain(), candidates[j].Explain());
    }
  }
}

TEST(CostPlannerTest, EnumeratorNeverInsertsOgcConversions) {
  Pipeline pipeline;
  pipeline.AZoom(GroupZoom()).WZoom(ExistsWindows(3));
  for (const Pipeline& candidate :
       opt::EnumerateCandidates(pipeline, Pipeline::Hints{}, VeContext(100))) {
    for (const Pipeline::Step& step : candidate.steps()) {
      if (const auto* convert = std::get_if<Pipeline::ConvertStep>(&step)) {
        EXPECT_NE(convert->target, Representation::kOgc)
            << candidate.Explain();
      }
    }
  }
}

TEST(CostPlannerTest, EnumeratorInsertsNothingForOgcInput) {
  // On an OGC input, converting before an operator changes semantics
  // (aZoom errors on OGC, runs after a conversion), so the enumerator
  // must leave conversions exactly as the user wrote them.
  Pipeline pipeline;
  pipeline.Convert(Representation::kVe).AZoom(GroupZoom()).WZoom(
      ExistsWindows(3));
  PlanContext context;
  context.representation = Representation::kOgc;
  context.rows = 100;
  for (const Pipeline& candidate :
       opt::EnumerateCandidates(pipeline, Pipeline::Hints{}, context)) {
    int converts = 0;
    for (const Pipeline::Step& step : candidate.steps()) {
      if (std::holds_alternative<Pipeline::ConvertStep>(step)) ++converts;
    }
    EXPECT_EQ(converts, 1) << candidate.Explain();
  }
}

TEST(CostPlannerTest, EnumeratorNeverReordersForallWindows) {
  // The negative of the Section 5.3 reorder: under all/all
  // quantification the swap is illegal, so no candidate may have the
  // aZoom ahead of the wZoom — even with the stable-attributes hint set.
  Pipeline pipeline;
  pipeline
      .WZoom(WZoomSpec{WindowSpec::TimePoints(4), Quantifier::All(),
                       Quantifier::All(), {}, {}})
      .AZoom(GroupZoom());
  Pipeline::Hints stable;
  stable.attributes_stable = true;
  for (const Pipeline& candidate :
       opt::EnumerateCandidates(pipeline, stable, VeContext(100))) {
    size_t wzoom_at = 0, azoom_at = 0;
    for (size_t i = 0; i < candidate.steps().size(); ++i) {
      if (std::holds_alternative<Pipeline::WZoomStep>(candidate.steps()[i])) {
        wzoom_at = i;
      }
      if (std::holds_alternative<Pipeline::AZoomStep>(candidate.steps()[i])) {
        azoom_at = i;
      }
    }
    EXPECT_LT(wzoom_at, azoom_at) << candidate.Explain();
  }
}

TEST(CostPlannerTest, ZoomReorderSafeRequiresExistsExists) {
  auto spec = [](Quantifier nodes, Quantifier edges) {
    return WZoomSpec{WindowSpec::TimePoints(3), nodes, edges, {}, {}};
  };
  EXPECT_TRUE(Pipeline::ZoomReorderSafe(
      spec(Quantifier::Exists(), Quantifier::Exists())));
  EXPECT_FALSE(
      Pipeline::ZoomReorderSafe(spec(Quantifier::All(), Quantifier::All())));
  EXPECT_FALSE(
      Pipeline::ZoomReorderSafe(spec(Quantifier::Most(), Quantifier::Most())));
  EXPECT_FALSE(Pipeline::ZoomReorderSafe(
      spec(Quantifier::AtLeast(0.25), Quantifier::Exists())));
  EXPECT_FALSE(Pipeline::ZoomReorderSafe(
      spec(Quantifier::Exists(), Quantifier::All())));
}

}  // namespace
}  // namespace tgraph
