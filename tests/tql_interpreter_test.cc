#include "tql/interpreter.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "storage/graph_io.h"
#include "tests/test_util.h"
#include "tgraph/validate.h"

namespace tgraph::tql {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;
using ::tgraph::testing::SchoolZoom;

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest() : interpreter_(Ctx()) {
    // Bind the running example under the name g1 via a stored file.
    dir_ = (std::filesystem::temp_directory_path() / "tql_fixture").string();
    std::filesystem::remove_all(dir_);
    TG_CHECK_OK(storage::WriteVeStore(Figure1(), dir_));
  }

  std::string MustRun(const std::string& script) {
    Result<std::string> output = interpreter_.ExecuteScript(script);
    TG_CHECK(output.ok()) << output.status();
    return *output;
  }

  std::string dir_;
  Interpreter interpreter_;
};

TEST_F(InterpreterTest, LoadInfoList) {
  std::string out = MustRun("LOAD '" + dir_ + "' AS g1; INFO g1; LIST");
  EXPECT_NE(out.find("loaded g1"), std::string::npos);
  EXPECT_NE(out.find("vertices=3"), std::string::npos);
  EXPECT_NE(out.find("lifetime [1, 9)"), std::string::npos);
  EXPECT_NE(out.find("g1 [VE]"), std::string::npos);
}

TEST_F(InterpreterTest, AZoomPipelineMatchesNativeApi) {
  MustRun("LOAD '" + dir_ + "' AS g1;" +
          "SET schools = AZOOM g1 BY school "
          "AGGREGATE COUNT() AS students TYPE 'school' "
          "EDGE TYPE 'collaborate';"
          "SET schools = COALESCE schools");
  Result<TGraph> schools = interpreter_.Lookup("schools");
  ASSERT_TRUE(schools.ok());
  // Native API result for comparison. The TQL aggregator stamps the group
  // key into the grouping attribute itself.
  AZoomSpec spec = SchoolZoom();
  spec.aggregator =
      MakeAggregator("school", "school", {{"students", AggKind::kCount, ""}});
  TGraph expected =
      TGraph::FromVe(Figure1(), true).AZoom(spec)->Coalesce();
  EXPECT_EQ(Canonical(*schools), Canonical(expected));
}

TEST_F(InterpreterTest, WZoomReproducesFigure3) {
  MustRun("LOAD '" + dir_ + "' AS g1;" +
          "SET q = WZOOM g1 WINDOW 3 NODES ALL EDGES ALL RESOLVE school LAST");
  Result<TGraph> quarters = interpreter_.Lookup("q");
  ASSERT_TRUE(quarters.ok());
  std::map<VertexId, Interval> presence;
  for (const VeVertex& v : quarters->ve().vertices().Collect()) {
    presence[v.vid] = v.interval;
  }
  EXPECT_EQ(presence[1], Interval(1, 7));
  EXPECT_EQ(presence[2], Interval(4, 7));
  EXPECT_EQ(presence[3], Interval(1, 7));
}

TEST_F(InterpreterTest, SliceAndSubgraph) {
  MustRun("LOAD '" + dir_ + "' AS g1;" +
          "SET mid = SLICE g1 FROM 3 TO 8;"
          "SET mit = SUBGRAPH g1 WHERE school = 'MIT'");
  Result<TGraph> mid = interpreter_.Lookup("mid");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->lifetime(), Interval(3, 8));
  Result<TGraph> mit = interpreter_.Lookup("mit");
  ASSERT_TRUE(mit.ok());
  EXPECT_EQ(mit->As(Representation::kVe)->ve().NumVertices(), 2);  // Ann, Cat
}

TEST_F(InterpreterTest, SubgraphHasAndComparisons) {
  MustRun("LOAD '" + dir_ + "' AS g1;" +
          "SET with_school = SUBGRAPH g1 WHERE HAS(school);"
          "SET not_mit = SUBGRAPH g1 WHERE school != 'MIT'");
  EXPECT_EQ(interpreter_.Lookup("with_school")
                ->As(Representation::kVe)
                ->ve()
                .NumVertexRecords(),
            3);  // Ann, Cat, Bob's CMU state
  EXPECT_EQ(interpreter_.Lookup("not_mit")
                ->As(Representation::kVe)
                ->ve()
                .NumVertices(),
            1);  // only Bob (CMU state)
}

TEST_F(InterpreterTest, ConvertChangesRepresentation) {
  MustRun("LOAD '" + dir_ + "' AS g1; SET og = CONVERT g1 TO og");
  EXPECT_EQ(interpreter_.Lookup("og")->representation(), Representation::kOg);
  // Zoom works on the converted graph through TQL too.
  MustRun("SET z = WZOOM og WINDOW 3 NODES EXISTS EDGES EXISTS");
  EXPECT_EQ(interpreter_.Lookup("z")->representation(), Representation::kOg);
}

TEST_F(InterpreterTest, GenerateAndChain) {
  std::string out = MustRun(
      "GENERATE snb(scale=0.05, seed=3, months=12) AS g;"
      "SET cohorts = AZOOM g BY firstName AGGREGATE COUNT() AS people;"
      "SET quarters = WZOOM cohorts WINDOW 3 NODES EXISTS EDGES EXISTS;"
      "INFO quarters");
  EXPECT_NE(out.find("generated g"), std::string::npos);
  EXPECT_NE(out.find("quarters [VE"), std::string::npos);
  // The WZOOM facade coalesces lazily: its input (an uncoalesced aZoom
  // output) must still give a valid result.
  Result<TGraph> quarters = interpreter_.Lookup("quarters");
  ASSERT_TRUE(quarters.ok());
  TG_CHECK_OK(
      ValidateVe(quarters->As(Representation::kVe)->Coalesce().ve()));
}

TEST_F(InterpreterTest, StoreRoundTrip) {
  std::string out_dir =
      (std::filesystem::temp_directory_path() / "tql_store").string();
  std::filesystem::remove_all(out_dir);
  MustRun("LOAD '" + dir_ + "' AS g1;" + "STORE g1 TO '" + out_dir +
          "' SORT STRUCTURAL");
  Interpreter fresh(Ctx());
  Result<std::string> out =
      fresh.ExecuteScript("LOAD '" + out_dir + "' AS back; INFO back");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("vertices=3"), std::string::npos);
}

TEST_F(InterpreterTest, SnapshotPrintsState) {
  std::string out =
      MustRun("LOAD '" + dir_ + "' AS g1; SNAPSHOT g1 AT 3 LIMIT 10");
  EXPECT_NE(out.find("3 vertices, 1 edges"), std::string::npos);
  EXPECT_NE(out.find("school=MIT"), std::string::npos);
}

TEST_F(InterpreterTest, DropRemovesBinding) {
  MustRun("LOAD '" + dir_ + "' AS g1; DROP g1");
  EXPECT_TRUE(interpreter_.Lookup("g1").status().IsNotFound());
  EXPECT_TRUE(
      interpreter_.ExecuteScript("DROP g1").status().IsNotFound());
}

TEST_F(InterpreterTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(interpreter_.ExecuteScript("INFO nothing").status().IsNotFound());
  EXPECT_TRUE(interpreter_.ExecuteScript("LOAD '/no/such/dir' AS g")
                  .status()
                  .IsIoError());
  // OGC rejects AZOOM, through the language too.
  MustRun("LOAD '" + dir_ + "' AS g1; SET c = CONVERT g1 TO ogc");
  EXPECT_TRUE(interpreter_
                  .ExecuteScript("SET x = AZOOM c BY school")
                  .status()
                  .IsNotImplemented());
}

TEST_F(InterpreterTest, ExecutionStopsAtFirstError) {
  Status s = interpreter_
                 .ExecuteScript("LOAD '" + dir_ + "' AS ok; INFO missing; "
                                "DROP ok")
                 .status();
  EXPECT_TRUE(s.IsNotFound());
  // The statement after the failure did not run.
  EXPECT_TRUE(interpreter_.Lookup("ok").ok());
}

}  // namespace
}  // namespace tgraph::tql
