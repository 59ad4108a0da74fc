// Unit tests for the materialized-view subsystem: the TQL view DDL
// grammar and its canonical forms, incremental delta planning (grid
// rounding, every fallback reason), cut-and-splice state maintenance,
// and the view registry (DDL, lazy materialization, version monotonicity,
// and definition persistence).

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/event.h"
#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tgraph/incremental.h"
#include "tql/canonical.h"
#include "tql/parser.h"
#include "tql/pipeline_build.h"
#include "common/hash.h"
#include "views/content.h"
#include "views/registry.h"
#include "views/view.h"

namespace tgraph::views {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() /
                     ("tg_views_test_" + name + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

ingest::Event AddVertex(int64_t vid, TimePoint at, const std::string& role) {
  ingest::Event e;
  e.kind = ingest::EventKind::kAddVertex;
  e.id = vid;
  e.at = at;
  e.props = Properties{{"type", "person"}, {"role", role}};
  return e;
}

ingest::Event RemoveVertex(int64_t vid, TimePoint at) {
  ingest::Event e;
  e.kind = ingest::EventKind::kRemoveVertex;
  e.id = vid;
  e.at = at;
  return e;
}

// --- TQL grammar and canonical forms ---------------------------------------

TEST(ViewGrammar, CreateViewParsesAndCanonicalFixpoint) {
  const std::string script =
      "create view density on '/tmp/g' as "
      "azoom by role aggregate count() as members then convert to og;";
  Result<std::vector<tql::Statement>> statements = tql::Parse(script);
  ASSERT_TRUE(statements.ok()) << statements.status();
  ASSERT_EQ(statements->size(), 1u);
  const auto* create =
      std::get_if<tql::CreateViewStatement>(&(*statements)[0]);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->name, "density");
  EXPECT_EQ(create->path, "/tmp/g");
  ASSERT_EQ(create->stages.size(), 2u);
  // View stages carry no source identifier (the source is the view's).
  const auto* azoom = std::get_if<tql::AZoomExpr>(&create->stages[0]);
  ASSERT_NE(azoom, nullptr);
  EXPECT_TRUE(azoom->source.empty());
  EXPECT_EQ(azoom->group_by, "role");

  // Canonical form is its own fixed point, and case-insensitive.
  const std::string canonical = tql::Canonicalize((*statements)[0]);
  EXPECT_EQ(canonical.rfind("CREATE VIEW density ON '/tmp/g' AS AZOOM", 0),
            0u)
      << canonical;
  Result<std::vector<tql::Statement>> reparsed = tql::Parse(canonical);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << " for: " << canonical;
  EXPECT_EQ(tql::Canonicalize((*reparsed)[0]), canonical);
}

TEST(ViewGrammar, AllViewVerbsParse) {
  Result<std::vector<tql::Statement>> statements = tql::Parse(
      "create view v on 'd' as wzoom window 3 then coalesce then slice from "
      "0 to 9; drop view v; show views; view v;");
  ASSERT_TRUE(statements.ok()) << statements.status();
  ASSERT_EQ(statements->size(), 4u);
  EXPECT_NE(std::get_if<tql::CreateViewStatement>(&(*statements)[0]),
            nullptr);
  EXPECT_NE(std::get_if<tql::DropViewStatement>(&(*statements)[1]), nullptr);
  EXPECT_NE(std::get_if<tql::ShowViewsStatement>(&(*statements)[2]), nullptr);
  EXPECT_NE(std::get_if<tql::ViewStatement>(&(*statements)[3]), nullptr);
  EXPECT_EQ(tql::Canonicalize((*statements)[1]), "DROP VIEW v");
  EXPECT_EQ(tql::Canonicalize((*statements)[2]), "SHOW VIEWS");
  EXPECT_EQ(tql::Canonicalize((*statements)[3]), "VIEW v");
}

TEST(ViewGrammar, CacheabilityPerVerb) {
  Result<std::vector<tql::Statement>> statements = tql::Parse(
      "create view v on 'd' as coalesce; drop view v; show views; view v;");
  ASSERT_TRUE(statements.ok()) << statements.status();
  // DDL mutates the registry and SHOW VIEWS reports live state — never
  // cacheable. VIEW is: the server folds the view version into the key.
  EXPECT_FALSE(tql::IsCacheable((*statements)[0]));
  EXPECT_FALSE(tql::IsCacheable((*statements)[1]));
  EXPECT_FALSE(tql::IsCacheable((*statements)[2]));
  EXPECT_TRUE(tql::IsCacheable((*statements)[3]));
}

TEST(ViewGrammar, RejectsNonZoomStages) {
  EXPECT_FALSE(tql::Parse("create view v on 'd' as subgraph where x = 1;")
                   .ok());
  EXPECT_FALSE(tql::Parse("create view v on 'd';").ok());
}

// --- PlanDelta -------------------------------------------------------------

Pipeline AZoomOnly() {
  Pipeline pipeline;
  pipeline.AZoom(testing::SchoolZoom());
  return pipeline;
}

TEST(PlanDelta, InstantaneousPipelineCutsAtTMin) {
  incremental::DeltaPlan plan =
      incremental::PlanDelta(AZoomOnly(), Interval(0, 100), 60, 1.0);
  EXPECT_TRUE(plan.incremental) << plan.fallback_reason;
  EXPECT_EQ(plan.cut, 60);
}

TEST(PlanDelta, EmptySourceFallsBack) {
  incremental::DeltaPlan plan =
      incremental::PlanDelta(AZoomOnly(), Interval(5, 5), 6, 1.0);
  EXPECT_FALSE(plan.incremental);
  EXPECT_EQ(plan.fallback_reason, "empty-source");
}

TEST(PlanDelta, DeltaReachingSourceStartFallsBack) {
  incremental::DeltaPlan plan =
      incremental::PlanDelta(AZoomOnly(), Interval(10, 100), 10, 1.0);
  EXPECT_FALSE(plan.incremental);
  EXPECT_EQ(plan.fallback_reason, "delta-reaches-source-start");
}

TEST(PlanDelta, WZoomRoundsCutDownToWindowGrid) {
  Pipeline pipeline;
  pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(7)});
  // Grid anchored at the source lifetime start 3: {3, 10, 17, ...}.
  incremental::DeltaPlan plan =
      incremental::PlanDelta(pipeline, Interval(3, 100), 60, 1.0);
  EXPECT_TRUE(plan.incremental) << plan.fallback_reason;
  EXPECT_EQ(plan.cut, 59);  // 3 + 8*7
}

TEST(PlanDelta, SliceMovesTheWindowAnchor) {
  Pipeline pipeline;
  pipeline.Slice(Interval(10, 100));
  pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(7)});
  // The wZoom stage's input starts at 10, so its grid is {10, 17, ...}.
  incremental::DeltaPlan plan =
      incremental::PlanDelta(pipeline, Interval(0, 100), 60, 1.0);
  EXPECT_TRUE(plan.incremental) << plan.fallback_reason;
  EXPECT_EQ(plan.cut, 59);  // 10 + 7*7
  // A t_min already on the grid is kept as-is.
  plan = incremental::PlanDelta(pipeline, Interval(0, 100), 24, 1.0);
  EXPECT_TRUE(plan.incremental) << plan.fallback_reason;
  EXPECT_EQ(plan.cut, 24);
}

TEST(PlanDelta, ChangesWindowsFallBack) {
  Pipeline pipeline;
  pipeline.WZoom(WZoomSpec{WindowSpec::Changes(3)});
  incremental::DeltaPlan plan =
      incremental::PlanDelta(pipeline, Interval(0, 100), 60, 1.0);
  EXPECT_FALSE(plan.incremental);
  EXPECT_EQ(plan.fallback_reason, "wzoom-changes-window");
}

TEST(PlanDelta, CutRoundedToSourceStartFallsBack) {
  Pipeline pipeline;
  pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(50)});
  // t_min 30 rounds down to the grid point 0 — the whole history would
  // have to be recomputed, which is exactly a full rebuild.
  incremental::DeltaPlan plan =
      incremental::PlanDelta(pipeline, Interval(0, 100), 30, 1.0);
  EXPECT_FALSE(plan.incremental);
  EXPECT_EQ(plan.fallback_reason, "cut-at-source-start");
}

TEST(PlanDelta, SuffixFractionBoundFallsBack) {
  incremental::DeltaPlan plan =
      incremental::PlanDelta(AZoomOnly(), Interval(0, 100), 60, 0.0);
  EXPECT_FALSE(plan.incremental);
  EXPECT_EQ(plan.fallback_reason, "suffix-fraction");
  // The suffix [60, 100) is 40% of the lifetime: allowed at 0.5.
  plan = incremental::PlanDelta(AZoomOnly(), Interval(0, 100), 60, 0.5);
  EXPECT_TRUE(plan.incremental);
}

TEST(PlanDelta, ChainedWZoomGridsReachAFixpoint) {
  Pipeline pipeline;
  pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(4)});
  pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(6)});
  // 21 → 20 (grid 4) → 18 (grid 6) → 16 → 12, which lies on both grids.
  incremental::DeltaPlan plan =
      incremental::PlanDelta(pipeline, Interval(0, 100), 21, 1.0);
  EXPECT_TRUE(plan.incremental) << plan.fallback_reason;
  EXPECT_EQ(plan.cut, 12);
}

// --- ViewContent ---------------------------------------------------------

std::string Lines(const ViewContent& content) {
  std::vector<std::string> lines;
  VeGraph ve = content.ToVe(testing::Ctx());
  for (const VeVertex& v : ve.vertices().Collect()) {
    lines.push_back("V " + v.ToString());
  }
  for (const VeEdge& e : ve.edges().Collect()) {
    lines.push_back("E " + e.ToString());
  }
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const std::string& line : lines) joined += line + "\n";
  return joined;
}

TEST(ViewContent, SpliceRemergesStatesStraddlingTheCut) {
  // prev: one vertex state [0, 10) value "a". The recomputed suffix
  // reproduces [6, 10) with the same value: the splice must re-merge them
  // into the original record (canonical = coalesced).
  ViewContent prev = ViewContent::Build(VeGraph::Create(
      testing::Ctx(), {{1, {0, 10}, Properties{{"school", "a"}}}}, {}));
  VeGraph suffix = VeGraph::Create(
      testing::Ctx(), {{1, {6, 10}, Properties{{"school", "a"}}}}, {},
      Interval(6, 10));
  ViewContent spliced = prev.Splice(suffix, 6);
  EXPECT_EQ(testing::Canonical(spliced.ToVe(testing::Ctx())),
            testing::Canonical(prev.ToVe(testing::Ctx())));
  EXPECT_EQ(spliced.Hash(), prev.Hash());

  // A suffix whose value changed keeps two records.
  VeGraph changed = VeGraph::Create(
      testing::Ctx(), {{1, {6, 10}, Properties{{"school", "b"}}}}, {},
      Interval(6, 10));
  ViewContent respliced = prev.Splice(changed, 6);
  EXPECT_EQ(respliced.vertex_records(), 2u);
  EXPECT_EQ(respliced.lifetime(), Interval(0, 10));
  EXPECT_NE(respliced.Hash(), prev.Hash());
}

TEST(ViewContent, HashIsFnvOfSortedLinesAcrossIdsOfEveryWidth) {
  // Ids whose decimal strings sort differently from their values (9 <
  // 10 < 100 but "10" < "100" < "9"), negative ids, and several rows per
  // entity whose lines sort differently from their start times.
  std::vector<VeVertex> vertices;
  for (VertexId vid : {9, 10, 100, -3, 1000000007}) {
    vertices.push_back({vid, {2, 9}, Properties{{"g", "a"}}});
    vertices.push_back({vid, {10, 12}, Properties{{"g", "b"}}});
  }
  std::vector<VeEdge> edges = {{12, 9, 10, {3, 5}, Properties{{"w", 1}}},
                               {12, 9, 10, {10, 11}, Properties{{"w", 2}}},
                               {-7, 100, 9, {2, 4}, Properties{}},
                               {123, 10, 100, {4, 8}, Properties{}}};
  ViewContent content = ViewContent::Build(
      VeGraph::Create(testing::Ctx(), vertices, edges, Interval(0, 20)));
  EXPECT_EQ(content.Hash(), HashBytes(Lines(content)));
  EXPECT_EQ(content.vertex_records(), 10u);
  EXPECT_EQ(content.edge_records(), 4u);

  // A splice that changes a few rows re-renders only those, and the hash
  // still covers every line in order.
  VeGraph suffix = VeGraph::Create(
      testing::Ctx(),
      {{10, {11, 14}, Properties{{"g", "c"}}},
       {100, {11, 12}, Properties{{"g", "b"}}},
       {55, {11, 13}, Properties{{"g", "a"}}}},
      {{12, 9, 10, {11, 13}, Properties{{"w", 2}}}}, Interval(11, 20));
  ViewContent spliced = content.Splice(suffix, 11);
  EXPECT_EQ(spliced.Hash(), HashBytes(Lines(spliced)));
  EXPECT_EQ(spliced.lifetime(), Interval(0, 20));
}

TEST(FinalRepresentation, LastConvertWins) {
  Pipeline none = AZoomOnly();
  EXPECT_EQ(incremental::FinalRepresentation(none, Representation::kVe),
            Representation::kVe);
  Pipeline converted;
  converted.Convert(Representation::kOg);
  converted.Convert(Representation::kRg);
  EXPECT_EQ(
      incremental::FinalRepresentation(converted, Representation::kVe),
      Representation::kRg);
}

// --- ViewRegistry ----------------------------------------------------------

class ViewRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) fs::remove_all(dir);
  }

  std::string Dir(const std::string& name) {
    dirs_.push_back(FreshDir(name));
    return dirs_.back();
  }

  tql::CreateViewStatement ParseCreate(const std::string& script) {
    Result<std::vector<tql::Statement>> statements = tql::Parse(script);
    TG_CHECK(statements.ok()) << statements.status();
    return std::get<tql::CreateViewStatement>((*statements)[0]);
  }

  std::vector<std::string> dirs_;
};

TEST_F(ViewRegistryTest, DdlLifecycle) {
  ingest::LiveGraphRegistry live(testing::Ctx());
  ViewRegistry registry(testing::Ctx(), &live, {});
  Result<std::string> created = registry.CreateView(
      ParseCreate("create view v on 'nowhere' as coalesce;"));
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_EQ(*created, "created view v on 'nowhere'\n");
  EXPECT_EQ(registry.size(), 1u);

  // Duplicate names are rejected, registered-but-unqueried views show as
  // unmaterialized, and re-dropping reports NotFound.
  EXPECT_TRUE(registry.CreateView(ParseCreate(
                          "create view v on 'elsewhere' as coalesce;"))
                  .status()
                  .code() == StatusCode::kAlreadyExists);
  Result<std::string> shown = registry.ShowViews();
  ASSERT_TRUE(shown.ok());
  EXPECT_NE(shown->find("v ON 'nowhere'"), std::string::npos) << *shown;
  EXPECT_NE(shown->find("unmaterialized"), std::string::npos) << *shown;
  EXPECT_EQ(registry.CurrentVersion("v"), 0u);

  Result<std::string> dropped = registry.DropView("v");
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_TRUE(registry.DropView("v").status().IsNotFound());
  ASSERT_TRUE(registry.ShowViews().ok());
  EXPECT_EQ(*registry.ShowViews(), "no views\n");
}

// A view optimizes its chain once, when it is registered: the rewrites
// fire then, and the published representation is that of the optimized
// chain (the mid-chain CONVERT is dropped, so the view publishes VE).
TEST_F(ViewRegistryTest, ViewRunsItsOptimizedChain) {
  auto fired = [](const char* rule) {
    return obs::MetricsRegistry::Global()
        .GetCounter(std::string("pipeline.optimizer.rule.") + rule)
        ->value();
  };
  const int64_t pushdowns = fired("slice_pushdown");
  const int64_t drops = fired("drop_conversion");
  ingest::LiveGraphRegistry live(testing::Ctx());
  ViewRegistry registry(testing::Ctx(), &live, {});
  ASSERT_TRUE(registry
                  .CreateView(ParseCreate(
                      "create view v on 'nowhere' as convert to og then "
                      "azoom by role aggregate count() as n then "
                      "slice from 0 to 50;"))
                  .ok());
  EXPECT_GT(fired("slice_pushdown"), pushdowns);
  EXPECT_GT(fired("drop_conversion"), drops);
  std::shared_ptr<MaterializedView> view = registry.Find("v");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->representation(), Representation::kVe);
}

TEST_F(ViewRegistryTest, InvalidStagesRejectedAtDdlTime) {
  ingest::LiveGraphRegistry live(testing::Ctx());
  ViewRegistry registry(testing::Ctx(), &live, {});
  tql::CreateViewStatement create;
  create.name = "bad";
  create.path = "nowhere";
  create.stages.push_back(tql::Expr{tql::RefExpr{"x"}});
  EXPECT_FALSE(registry.CreateView(create).ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST_F(ViewRegistryTest, QueryMaterializesAndVersionsAdvance) {
  std::string dir = Dir("query");
  ingest::LiveGraphRegistry live(testing::Ctx());
  ingest::LiveGraph::Options options;
  options.delta_events_threshold = 0;
  options.sync = false;
  live.set_options(options);
  Result<ingest::LiveGraph*> graph = live.GetOrOpen(dir, 100);
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_TRUE(
      (*graph)
          ->Append({AddVertex(1, 10, "student"), AddVertex(2, 11, "staff")})
          .ok());

  ViewRegistry registry(testing::Ctx(), &live, {});
  ASSERT_TRUE(registry
                  .CreateView(ParseCreate(
                      "create view roles on '" + dir +
                      "' as azoom by role aggregate count() as members;"))
                  .ok());
  uint64_t version = 0;
  Result<std::string> first = registry.QueryView("roles", &version);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(first->rfind("view roles [VE] ", 0), 0u) << *first;
  EXPECT_NE(first->find("content "), std::string::npos) << *first;

  // Same epoch → same snapshot, same version. New epoch → new version.
  Result<std::string> again = registry.QueryView("roles", &version);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(*again, *first);
  ASSERT_TRUE((*graph)->Append({AddVertex(3, 20, "student")}).ok());
  Result<std::string> after = registry.QueryView("roles", &version);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(version, 2u);
  EXPECT_NE(*after, *first);

  EXPECT_TRUE(registry.QueryView("missing").status().IsNotFound());
}

TEST_F(ViewRegistryTest, DefinitionsPersistAcrossRegistries) {
  std::string dir = Dir("persist");
  fs::create_directories(dir);
  const std::string views_path = dir + "/views.tql";
  ingest::LiveGraphRegistry live(testing::Ctx());
  ViewRegistry::Options options;
  options.views_path = views_path;
  {
    ViewRegistry registry(testing::Ctx(), &live, options);
    ASSERT_TRUE(registry.LoadFromDisk().ok());  // missing file: no views
    ASSERT_TRUE(registry
                    .CreateView(ParseCreate(
                        "create view a on 'src' as azoom by role aggregate "
                        "count() as n;"))
                    .ok());
    ASSERT_TRUE(registry
                    .CreateView(ParseCreate(
                        "create view b on 'src' as wzoom window 3;"))
                    .ok());
  }
  // The views file is a canonical TQL script.
  std::ifstream in(views_path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("CREATE VIEW a ON 'src'"), std::string::npos) << text;
  EXPECT_NE(text.find("CREATE VIEW b ON 'src'"), std::string::npos) << text;

  ViewRegistry reloaded(testing::Ctx(), &live, options);
  ASSERT_TRUE(reloaded.LoadFromDisk().ok());
  EXPECT_EQ(reloaded.size(), 2u);
  std::shared_ptr<MaterializedView> view = reloaded.Find("b");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->definition().source, "src");

  // DROP rewrites the file; a third registry sees one view.
  ASSERT_TRUE(reloaded.DropView("a").ok());
  ViewRegistry third(testing::Ctx(), &live, options);
  ASSERT_TRUE(third.LoadFromDisk().ok());
  EXPECT_EQ(third.size(), 1u);
  EXPECT_EQ(third.CurrentVersion("a"), 0u);
  EXPECT_NE(third.Find("b"), nullptr);
}

TEST_F(ViewRegistryTest, OnEpochRefreshesRegisteredViews) {
  std::string dir = Dir("onepoch");
  ingest::LiveGraphRegistry live(testing::Ctx());
  ViewRegistry registry(testing::Ctx(), &live, {});
  // Wire the listener the way tgraphd does: every publish refreshes.
  ingest::LiveGraph::Options options;
  options.delta_events_threshold = 0;
  options.sync = false;
  options.epoch_listener = [&registry](const std::string& d, uint64_t e) {
    registry.OnEpoch(d, e);
  };
  live.set_options(options);
  Result<ingest::LiveGraph*> graph = live.GetOrOpen(dir, 100);
  ASSERT_TRUE(graph.ok()) << graph.status();
  ASSERT_TRUE(registry
                  .CreateView(ParseCreate("create view v on '" + dir +
                                          "' as coalesce;"))
                  .ok());
  ASSERT_TRUE((*graph)->Append({AddVertex(1, 5, "student")}).ok());
  // The epoch listener materialized the view synchronously — no query
  // needed.
  EXPECT_EQ(registry.CurrentVersion("v"), 1u);
  ASSERT_TRUE((*graph)->Append({RemoveVertex(1, 9)}).ok());
  EXPECT_EQ(registry.CurrentVersion("v"), 2u);
  std::shared_ptr<const ViewSnapshot> snapshot =
      registry.Find("v")->Current();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->watermark, 9);
  EXPECT_EQ(snapshot->applied_deltas, 1u);  // second epoch spliced
  EXPECT_EQ(snapshot->full_rebuilds, 1u);   // first epoch built it
}

}  // namespace
}  // namespace tgraph::views
