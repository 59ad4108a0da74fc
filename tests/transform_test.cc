#include "gen/transform.h"

#include <gtest/gtest.h>

#include <set>

#include "gen/generators.h"
#include "tests/test_util.h"
#include "tgraph/validate.h"

namespace tgraph::gen {
namespace {

using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;

TEST(AttributeChurnTest, SplitsStatesOnGrid) {
  std::vector<VeVertex> vertices = {{1, {0, 10}, Properties{{"type", "n"}}}};
  VeGraph g = VeGraph::Create(Ctx(), vertices, {});
  VeGraph churned = WithAttributeChurn(g, "attr", 3, 100, 1);
  // [0,10) on a period-3 grid: [0,3),[3,6),[6,9),[9,10).
  std::vector<VeVertex> result = churned.vertices().Collect();
  ASSERT_EQ(result.size(), 4u);
  for (const VeVertex& v : result) {
    EXPECT_TRUE(v.properties.Has("attr"));
    EXPECT_LE(v.interval.duration(), 3);
  }
  TG_CHECK_OK(ValidateVe(churned));
}

TEST(AttributeChurnTest, GridIsGlobalNotPerEntity) {
  // A state starting off-grid still splits at global multiples of period.
  std::vector<VeVertex> vertices = {{1, {2, 7}, Properties{{"type", "n"}}}};
  VeGraph g = VeGraph::Create(Ctx(), vertices, {});
  std::vector<VeVertex> result =
      WithAttributeChurn(g, "attr", 3, 100, 1).vertices().Collect();
  std::set<Interval> intervals;
  for (const VeVertex& v : result) intervals.insert(v.interval);
  EXPECT_TRUE(intervals.count(Interval(2, 3)));
  EXPECT_TRUE(intervals.count(Interval(3, 6)));
  EXPECT_TRUE(intervals.count(Interval(6, 7)));
}

TEST(AttributeChurnTest, PreservesEntityCountsAndEdges) {
  VeGraph g = Figure1();
  VeGraph churned = WithAttributeChurn(g, "attr", 2, 10, 5);
  EXPECT_EQ(churned.NumVertices(), g.NumVertices());
  EXPECT_EQ(churned.NumEdges(), g.NumEdges());
  EXPECT_GT(churned.NumVertexRecords(), g.NumVertexRecords());
  EXPECT_EQ(churned.NumEdgeRecords(), g.NumEdgeRecords());
}

TEST(AttributeChurnTest, DeterministicInSeed) {
  VeGraph a = WithAttributeChurn(Figure1(), "attr", 2, 10, 5);
  VeGraph b = WithAttributeChurn(Figure1(), "attr", 2, 10, 5);
  EXPECT_EQ(testing::Canonical(a), testing::Canonical(b));
}

TEST(RandomGroupsTest, StablePerVidAndBounded) {
  VeGraph g = WithRandomGroups(Figure1(), 3);
  std::map<VertexId, int64_t> group_of;
  for (const VeVertex& v : g.vertices().Collect()) {
    int64_t group = v.properties.Get("group")->AsInt();
    EXPECT_GE(group, 0);
    EXPECT_LT(group, 3);
    auto [it, inserted] = group_of.emplace(v.vid, group);
    if (!inserted) {
      EXPECT_EQ(it->second, group);  // stable across states
    }
  }
}

TEST(RandomGroupsTest, CardinalityApproached) {
  WikiTalkConfig config;
  config.num_users = 2000;
  config.num_months = 12;
  VeGraph g = WithRandomGroups(GenerateWikiTalk(Ctx(), config), 16);
  std::set<int64_t> groups;
  for (const VeVertex& v : g.vertices().Collect()) {
    groups.insert(v.properties.Get("group")->AsInt());
  }
  EXPECT_EQ(groups.size(), 16u);
}

TEST(CoarsenResolutionTest, ReducesSnapshotCountKeepsEntities) {
  WikiTalkConfig config;
  config.num_users = 400;
  config.num_months = 48;
  VeGraph g = GenerateWikiTalk(Ctx(), config);
  VeGraph coarse = CoarsenResolution(g, 4);
  EXPECT_EQ(coarse.NumVertices(), g.NumVertices());
  EXPECT_EQ(coarse.NumEdges(), g.NumEdges());
  EXPECT_LE(coarse.ChangePoints().size(), 13u);  // 48/4 + 1
  EXPECT_EQ(coarse.lifetime(), Interval(0, 12));
  TG_CHECK_OK(ValidateVe(coarse));
  TG_CHECK_OK(CheckCoalescedVe(coarse));
}

TEST(CoarsenResolutionTest, FactorOneWithCoalesceIsIdentity) {
  VeGraph g = Figure1();
  EXPECT_EQ(testing::Canonical(CoarsenResolution(g, 1)),
            testing::Canonical(g.Coalesce()));
}

TEST(SliceTimeTest, ClipsToRange) {
  VeGraph sliced = SliceTime(Figure1(), Interval(3, 8));
  EXPECT_EQ(sliced.lifetime(), Interval(3, 8));
  for (const VeVertex& v : sliced.vertices().Collect()) {
    EXPECT_TRUE(Interval(3, 8).Contains(v.interval));
  }
  for (const VeEdge& e : sliced.edges().Collect()) {
    EXPECT_TRUE(Interval(3, 8).Contains(e.interval));
  }
  TG_CHECK_OK(ValidateVe(sliced));
}

TEST(SliceTimeTest, DropsEntitiesOutsideRange) {
  VeGraph sliced = SliceTime(Figure1(), Interval(1, 2));
  // Only Ann and Cat exist during [1,2); Bob joins at 2; no edges yet.
  EXPECT_EQ(sliced.NumVertices(), 2);
  EXPECT_EQ(sliced.NumEdgeRecords(), 0);
}

}  // namespace
}  // namespace tgraph::gen
