#include "tgraph/pipeline.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace tgraph {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::Figure1;
using ::tgraph::testing::RandomTGraph;
using ::tgraph::testing::SchoolZoom;

WZoomSpec ExistsWindows(int64_t size) {
  return WZoomSpec{WindowSpec::TimePoints(size), Quantifier::Exists(),
                   Quantifier::Exists(), {}, {}};
}

AZoomSpec GroupZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("group");
  spec.aggregator = MakeAggregator("cluster", "group", {});
  return spec;
}

TEST(PipelineTest, RunExecutesStepsInOrder) {
  Pipeline pipeline;
  pipeline.AZoom(SchoolZoom()).Coalesce().Slice(Interval(1, 8));
  Result<TGraph> result = pipeline.Run(TGraph::FromVe(Figure1(), true));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->lifetime(), Interval(1, 8));
  EXPECT_EQ(result->As(Representation::kVe)->ve().NumVertices(), 2);
}

TEST(PipelineTest, InstrumentedRunRecordsObservations) {
  Pipeline pipeline;
  pipeline.AZoom(SchoolZoom()).Coalesce().Slice(Interval(1, 8));
  opt::Stats stats;
  Pipeline::RunOptions options;
  options.stats = &stats;
  Result<TGraph> result =
      pipeline.Run(TGraph::FromVe(Figure1(), true), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.TotalObservations(), 3);
  auto azoom = stats.Get(opt::OpKind::kAZoom, Representation::kVe);
  ASSERT_TRUE(azoom.has_value());
  EXPECT_EQ(azoom->observations, 1);
  EXPECT_GT(azoom->rows_in, 0);
  // The plain overload records nothing and must behave identically.
  Result<TGraph> plain = pipeline.Run(TGraph::FromVe(Figure1(), true));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Canonical(*plain), Canonical(*result));
  EXPECT_EQ(stats.TotalObservations(), 3);
}

TEST(PipelineTest, ExplainListsSteps) {
  Pipeline pipeline;
  pipeline.Slice(Interval(0, 9))
      .AZoom(SchoolZoom())
      .WZoom(ExistsWindows(3))
      .Convert(Representation::kOgc);
  std::string plan = pipeline.Explain();
  EXPECT_NE(plan.find("1. slice [0, 9)"), std::string::npos);
  EXPECT_NE(plan.find("2. aZoom edge_type=collaborate"), std::string::npos);
  EXPECT_NE(plan.find("nodes=exists edges=exists"), std::string::npos);
  EXPECT_NE(plan.find("4. convert to OGC"), std::string::npos);
}

TEST(PipelineTest, OptimizerDropsRedundantCoalesces) {
  Pipeline pipeline;
  pipeline.AZoom(SchoolZoom()).Coalesce().WZoom(ExistsWindows(3)).Coalesce();
  Pipeline::Hints hints;
  hints.drop_mid_chain_conversions = false;
  Pipeline optimized = pipeline.Optimized(hints);
  // The mid-chain coalesce goes (wZoom coalesces lazily); the final one
  // stays (it shapes the result).
  int coalesces = 0;
  for (const Pipeline::Step& step : optimized.steps()) {
    if (std::holds_alternative<Pipeline::CoalesceStep>(step)) ++coalesces;
  }
  EXPECT_EQ(coalesces, 1);
  EXPECT_TRUE(std::holds_alternative<Pipeline::CoalesceStep>(
      optimized.steps().back()));
}

TEST(PipelineTest, OptimizerPushesSliceBeforeAZoom) {
  Pipeline pipeline;
  pipeline.AZoom(SchoolZoom()).Slice(Interval(2, 7));
  Pipeline::Hints hints;
  hints.drop_mid_chain_conversions = false;
  Pipeline optimized = pipeline.Optimized(hints);
  ASSERT_EQ(optimized.steps().size(), 2u);
  EXPECT_TRUE(std::holds_alternative<Pipeline::SliceStep>(optimized.steps()[0]));
  EXPECT_TRUE(std::holds_alternative<Pipeline::AZoomStep>(optimized.steps()[1]));
}

TEST(PipelineTest, OptimizerReordersZoomsOnlyWithStableAttributes) {
  Pipeline pipeline;
  pipeline.WZoom(ExistsWindows(4)).AZoom(GroupZoom());

  Pipeline::Hints no_hint;
  no_hint.drop_mid_chain_conversions = false;
  Pipeline untouched = pipeline.Optimized(no_hint);
  EXPECT_TRUE(std::holds_alternative<Pipeline::WZoomStep>(untouched.steps()[0]));

  Pipeline::Hints stable;
  stable.attributes_stable = true;
  stable.drop_mid_chain_conversions = false;
  Pipeline reordered = pipeline.Optimized(stable);
  EXPECT_TRUE(std::holds_alternative<Pipeline::AZoomStep>(reordered.steps()[0]));
}

TEST(PipelineTest, OptimizerKeepsOrderForStrictQuantifiers) {
  Pipeline pipeline;
  pipeline
      .WZoom(WZoomSpec{WindowSpec::TimePoints(4), Quantifier::All(),
                       Quantifier::All(), {}, {}})
      .AZoom(GroupZoom());
  Pipeline::Hints stable;
  stable.attributes_stable = true;
  stable.drop_mid_chain_conversions = false;
  Pipeline optimized = pipeline.Optimized(stable);
  // all/all does not commute with aZoom; the order must survive.
  EXPECT_TRUE(std::holds_alternative<Pipeline::WZoomStep>(optimized.steps()[0]));
}

TEST(PipelineTest, OptimizerDropsMidChainConversions) {
  Pipeline pipeline;
  pipeline.AZoom(SchoolZoom())
      .Convert(Representation::kVe)
      .WZoom(ExistsWindows(3));
  Pipeline optimized = pipeline.Optimized();
  // The mid-chain conversion disappeared and none was inserted.
  for (const Pipeline::Step& step : optimized.steps()) {
    EXPECT_FALSE(std::holds_alternative<Pipeline::ConvertStep>(step));
  }
  EXPECT_EQ(optimized.steps().size(), 2u);
}

TEST(PipelineTest, OptimizerKeepsLossyMidChainConversions) {
  // Converting to OGC mid-chain is lossy (attributes collapse to types),
  // so dropping it would change the data downstream steps see — it must
  // survive, unlike the lossless VE switch.
  Pipeline pipeline;
  pipeline.WZoom(ExistsWindows(3))
      .Convert(Representation::kOgc)
      .Slice(Interval(0, 5))
      .Convert(Representation::kVe)
      .WZoom(ExistsWindows(2));
  Pipeline optimized = pipeline.Optimized();
  int ogc_converts = 0, other_converts = 0;
  for (const Pipeline::Step& step : optimized.steps()) {
    if (const auto* convert = std::get_if<Pipeline::ConvertStep>(&step)) {
      (convert->target == Representation::kOgc ? ogc_converts
                                               : other_converts)++;
    }
  }
  EXPECT_EQ(ogc_converts, 1);
  // The VE conversion follows an OGC one, so it is semantic too (it
  // restores aZoom support) and must also survive.
  EXPECT_EQ(other_converts, 1);
}

TEST(PipelineTest, OptimizerNeverReordersForallWindows) {
  // The negative of the Section 5.3 rewrite across every quantifier that
  // is not exists: even with the stable-attributes attestation, the rule
  // path must keep wZoom first.
  const Quantifier non_exists[] = {Quantifier::All(), Quantifier::Most(),
                                   Quantifier::AtLeast(0.25)};
  Pipeline::Hints stable;
  stable.attributes_stable = true;
  for (const Quantifier& q : non_exists) {
    for (bool on_nodes : {true, false}) {
      WZoomSpec spec{WindowSpec::TimePoints(4),
                     on_nodes ? q : Quantifier::Exists(),
                     on_nodes ? Quantifier::Exists() : q,
                     {},
                     {}};
      EXPECT_FALSE(Pipeline::ZoomReorderSafe(spec)) << q.ToString();
      Pipeline pipeline;
      pipeline.WZoom(spec).AZoom(GroupZoom());
      Pipeline optimized = pipeline.Optimized(stable);
      EXPECT_TRUE(
          std::holds_alternative<Pipeline::WZoomStep>(optimized.steps()[0]))
          << q.ToString() << (on_nodes ? " on nodes" : " on edges");
    }
  }
}

// Golden plans for the Section 5 scenarios: the exact Explain rendering
// the optimizer must produce. A planner change that alters a chosen plan
// fails here loudly instead of silently regressing performance.

TEST(PipelineGoldenPlans, GrowthOnlyReorderScenario) {
  Pipeline pipeline;
  pipeline.WZoom(ExistsWindows(3)).AZoom(GroupZoom()).Coalesce();
  Pipeline::Hints hints;
  hints.attributes_stable = true;
  EXPECT_EQ(pipeline.Optimized(hints).Explain(),
            "1. aZoom\n"
            "2. wZoom window=3 time points nodes=exists edges=exists\n"
            "3. coalesce\n");
}

TEST(PipelineGoldenPlans, MidChainConversionRemovalScenario) {
  Pipeline pipeline;
  pipeline.AZoom(SchoolZoom())
      .Convert(Representation::kVe)
      .WZoom(ExistsWindows(3))
      .Convert(Representation::kOg);
  EXPECT_EQ(pipeline.Optimized().Explain(),
            "1. aZoom edge_type=collaborate\n"
            "2. wZoom window=3 time points nodes=exists edges=exists\n"
            "3. convert to OG\n");
}

TEST(PipelineGoldenPlans, SlicePushdownWithLazyCoalescingScenario) {
  Pipeline pipeline;
  pipeline.Coalesce().AZoom(SchoolZoom()).Slice(Interval(2, 7));
  EXPECT_EQ(pipeline.Optimized().Explain(),
            "1. slice [2, 7)\n"
            "2. aZoom edge_type=collaborate\n");
}

TEST(PipelineTest, FinalUserConversionSurvivesOptimization) {
  Pipeline pipeline;
  pipeline.WZoom(ExistsWindows(3)).Convert(Representation::kOgc);
  Pipeline optimized = pipeline.Optimized();
  const auto* last =
      std::get_if<Pipeline::ConvertStep>(&optimized.steps().back());
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->target, Representation::kOgc);
}

class PipelineEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineEquivalence, OptimizedPlanComputesSameResult) {
  VeGraph ve = RandomTGraph(GetParam());
  TGraph input = TGraph::FromVe(ve, true);
  Pipeline pipeline;
  pipeline.Slice(Interval(0, 18))
      .Coalesce()
      .AZoom(GroupZoom())
      .Coalesce()
      .WZoom(ExistsWindows(4));
  Pipeline::Hints hints;
  hints.attributes_stable = false;  // random graphs churn attributes
  Result<TGraph> plain = pipeline.Run(input);
  Result<TGraph> optimized = pipeline.Optimized(hints).Run(input);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(Canonical(*optimized), Canonical(*plain));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, PipelineEquivalence,
                         ::testing::Range(uint64_t{80}, uint64_t{86}));

}  // namespace
}  // namespace tgraph
