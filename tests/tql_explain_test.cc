#include "obs/stage.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/graph_io.h"
#include "tests/test_util.h"
#include "tql/interpreter.h"

namespace tgraph::tql {
namespace {

using ::tgraph::obs::ExplainCollector;
using ::tgraph::obs::StageStats;
using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() : interpreter_(Ctx()) {
    dir_ = (std::filesystem::temp_directory_path() / "tql_explain_fixture")
               .string();
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

// Every TQL operator shape under EXPLAIN ANALYZE, on each of the four
// representations, must produce a stage line labeled with the operator
// and the source representation plus a measured wall time. (AZOOM on OGC
// is the one paper-mandated hole: OGC drops attributes, so aZoom^T is
// undefined there — it must surface as the documented error, not a
// missing stage.)
TEST_F(ExplainTest, EveryQueryShapeOnEveryRepresentation) {
  const std::vector<std::pair<std::string, std::string>> reps = {
      {"ve", "VE"}, {"og", "OG"}, {"ogc", "OGC"}, {"rg", "RG"}};
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"AZOOM", "AZOOM b BY school AGGREGATE COUNT() AS n"},
      {"WZOOM", "WZOOM b WINDOW 3"},
      {"SLICE", "SLICE b FROM 2 TO 8"},
      {"SUBGRAPH", "SUBGRAPH b WHERE school = 'MIT'"},
      {"COALESCE", "COALESCE b"},
      {"CONVERT", "CONVERT b TO ve"},
  };
  for (const auto& [rep, rep_name] : reps) {
    for (const auto& [label, expr] : shapes) {
      const std::string script = "LOAD '" + dir_ + "' AS g;" +
                                 "SET b = CONVERT g TO " + rep + ";" +
                                 "EXPLAIN ANALYZE SET z = " + expr;
      Result<std::string> output = interpreter_.ExecuteScript(script);
      if (label == "AZOOM" && rep == "ogc") {
        ASSERT_FALSE(output.ok());
        EXPECT_NE(output.status().message().find("OGC"), std::string::npos);
        continue;
      }
      ASSERT_TRUE(output.ok()) << label << " on " << rep << ": "
                               << output.status();
      // CONVERT's detail also names the target: "CONVERT b [OG] -> VE".
      const std::string expected_stage =
          "\n  " + label + " b [" + rep_name + "]" +
          (label == "CONVERT" ? " -> VE" : "") + ": wall_us=";
      EXPECT_NE(output->find(expected_stage), std::string::npos)
          << label << " on " << rep << " missing stage line:\n" << *output;
      EXPECT_NE(output->find("EXPLAIN ANALYZE SET z = "), std::string::npos);
      EXPECT_NE(output->find("result-cache: bypass"), std::string::npos);
      EXPECT_NE(output->find("total: wall_us="), std::string::npos);
      // The inner statement still executes for real and prints its own
      // output after the plan.
      EXPECT_NE(output->find("set z"), std::string::npos);
    }
  }
}

TEST_F(ExplainTest, StatementShapesProduceStages) {
  // LOAD reports storage pushdown work.
  std::string out = MustRun("EXPLAIN ANALYZE LOAD '" + dir_ + "' AS g");
  EXPECT_NE(out.find("\n  LOAD g"), std::string::npos) << out;
  EXPECT_NE(out.find("partitions_decoded="), std::string::npos) << out;

  out = MustRun("LOAD '" + dir_ + "' AS g; EXPLAIN ANALYZE INFO g");
  EXPECT_NE(out.find("\n  INFO g"), std::string::npos) << out;

  out = MustRun("EXPLAIN ANALYZE GENERATE snb(scale=0.05, seed=3) AS s");
  EXPECT_NE(out.find("\n  GENERATE s"), std::string::npos) << out;

  out = MustRun("LOAD '" + dir_ + "' AS g; EXPLAIN ANALYZE SNAPSHOT g AT 5");
  EXPECT_NE(out.find("\n  SNAPSHOT g"), std::string::npos) << out;

  std::string store_dir =
      (std::filesystem::temp_directory_path() / "tql_explain_store").string();
  std::filesystem::remove_all(store_dir);
  out = MustRun("LOAD '" + dir_ + "' AS g; EXPLAIN ANALYZE STORE g TO '" +
                store_dir + "'");
  EXPECT_NE(out.find("\n  STORE g"), std::string::npos) << out;
  std::filesystem::remove_all(store_dir);
}

TEST_F(ExplainTest, StageRowsInOutMatchOperatorWork) {
  std::string out = MustRun("LOAD '" + dir_ + "' AS g;" +
                            "EXPLAIN ANALYZE SET z = SLICE g FROM 2 TO 8");
  // Figure1 has a known record population; the slice must report both
  // sides of the operator rather than zeros.
  size_t stage = out.find("  SLICE g [VE]:");
  ASSERT_NE(stage, std::string::npos) << out;
  std::string line = out.substr(stage, out.find('\n', stage) - stage);
  EXPECT_NE(line.find("rows_in="), std::string::npos) << line;
  EXPECT_NE(line.find("rows_out="), std::string::npos) << line;
  // Shuffle counters did not move for a slice, so they must be omitted.
  EXPECT_EQ(line.find("shuffles="), std::string::npos) << line;
}

// A lowered chain run with both a collector and a stats store: Pipeline::Run
// derives each step's opt::Stats observation from that step's stage, so
// the two agree exactly on wall time, shuffle bytes and rows.
TEST_F(ExplainTest, ChainStepStagesAndStatsObservationsAgree) {
  ExplainCollector collector;
  opt::Stats stats;
  interpreter_.set_explain(&collector);
  interpreter_.set_stats(&stats);
  MustRun("LOAD '" + dir_ + "' AS g;" +
          "SET a = AZOOM g BY school AGGREGATE COUNT() AS n;"
          "SET w = WZOOM a WINDOW 3 NODES EXISTS EDGES EXISTS;");
  interpreter_.set_explain(nullptr);
  interpreter_.set_stats(nullptr);

  // The LOAD, then one stage per step of the lowered AZOOM -> WZOOM chain;
  // the WZOOM step reads an intermediate that is never bound.
  ASSERT_EQ(collector.stages().size(), 3u);
  EXPECT_EQ(collector.stages()[1].detail, "g [VE]");
  EXPECT_EQ(collector.stages()[2].detail, "[VE]");
  EXPECT_EQ(stats.TotalObservations(), 2);
  const std::pair<opt::OpKind, std::string> steps[] = {
      {opt::OpKind::kAZoom, "AZOOM"}, {opt::OpKind::kWZoom, "WZOOM"}};
  int64_t shuffle_bytes = 0;
  for (size_t i = 0; i < 2; ++i) {
    const StageStats& stage = collector.stages()[i + 1];
    SCOPED_TRACE(stage.ToString());
    EXPECT_EQ(stage.label, steps[i].second);
    std::optional<opt::OpStats> cell =
        stats.Get(steps[i].first, Representation::kVe);
    ASSERT_TRUE(cell.has_value());
    EXPECT_EQ(cell->observations, 1);
    EXPECT_EQ(cell->wall_us, stage.wall_us);
    EXPECT_EQ(cell->shuffle_bytes, stage.shuffle_bytes);
    EXPECT_EQ(cell->rows_in, stage.rows_in);
    EXPECT_EQ(cell->rows_out, stage.rows_out);
    EXPECT_GT(stage.rows_in, 0);
    shuffle_bytes += stage.shuffle_bytes;
  }
  EXPECT_GT(shuffle_bytes, 0);
}

TEST_F(ExplainTest, InnerErrorPropagates) {
  Result<std::string> output = interpreter_.ExecuteScript(
      "EXPLAIN ANALYZE SET z = SLICE missing FROM 0 TO 1");
  EXPECT_FALSE(output.ok());
  EXPECT_TRUE(output.status().IsNotFound()) << output.status();
}

// --- collector unit behavior -----------------------------------------------

TEST(ExplainCollectorTest, NullCollectorScopesAreNoOps) {
  ExplainCollector::Scope scope(nullptr, "X", "detail");
  scope.set_rows(1, 2);  // must not crash
}

TEST(ExplainCollectorTest, ScopeCapturesCounterDeltas) {
  ExplainCollector collector;
  {
    ExplainCollector::Scope scope(&collector, "FAKE", "d");
    scope.set_rows(10, 20);
    obs::AddQueryCounter(obs::QueryCounter::kShuffles, 3);
  }
  ASSERT_EQ(collector.stages().size(), 1u);
  const StageStats& stage = collector.stages()[0];
  EXPECT_EQ(stage.label, "FAKE");
  EXPECT_EQ(stage.detail, "d");
  EXPECT_EQ(stage.rows_in, 10);
  EXPECT_EQ(stage.rows_out, 20);
  EXPECT_EQ(stage.shuffles, 3);
  EXPECT_GE(stage.wall_us, 0);
}

TEST(ExplainCollectorTest, RenderAndJsonShapes) {
  ExplainCollector collector;
  StageStats stage;
  stage.label = "WZOOM";
  stage.detail = "g [VE]";
  stage.wall_us = 42;
  stage.rows_in = 100;
  stage.rows_out = 60;
  stage.shuffles = 2;
  stage.shuffle_bytes = 4096;
  collector.Add(stage);

  std::string rendered = collector.Render("SET z = WZOOM g WINDOW 3", 50);
  EXPECT_NE(rendered.find("EXPLAIN ANALYZE SET z = WZOOM g WINDOW 3\n"),
            std::string::npos);
  EXPECT_NE(rendered.find("  WZOOM g [VE]: wall_us=42 rows_in=100 "
                          "rows_out=60 shuffles=2"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("result-cache: bypass"), std::string::npos);
  EXPECT_NE(rendered.find("total: wall_us=50"), std::string::npos);

  std::string json = collector.StagesJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"label\":\"WZOOM\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_us\":42"), std::string::npos);
  EXPECT_NE(json.find("\"shuffle_bytes\":4096"), std::string::npos);
}

// --- attribution under concurrent queries ------------------------------

/// EXPLAIN ANALYZE output with wall times masked: what must repeat
/// exactly from one run of a query to the next.
std::string WithoutWallTimes(const std::string& output) {
  return std::regex_replace(output, std::regex("wall_us=[0-9]+"), "wall_us=*");
}

struct QueryRun {
  std::string explain;              ///< Masked EXPLAIN ANALYZE output.
  obs::QueryCounterValues counted;  ///< The query's whole counter block.
};

/// Runs `script` in a fresh interpreter under its own counter block, the
/// way tgraphd runs each request.
QueryRun RunQuery(const std::string& script) {
  obs::QueryCounters block;
  obs::ScopedQueryContext context(
      obs::QueryContext{/*query_id=*/0, /*trace=*/nullptr,
                        /*parent_span=*/0, &block});
  Interpreter interpreter(Ctx());
  Result<std::string> output = interpreter.ExecuteScript(script);
  TG_CHECK(output.ok()) << output.status();
  return QueryRun{WithoutWallTimes(*output), block.Snapshot()};
}

int64_t GlobalCounter(const obs::MetricsSnapshot& snapshot,
                      obs::QueryCounter counter) {
  auto it = snapshot.counters.find(obs::QueryCounterName(counter));
  return it == snapshot.counters.end() ? 0 : it->second;
}

// Two different queries, sharing no directory, reader or catalog, run at
// once on two threads. Each query's EXPLAIN ANALYZE counters must equal
// its solo run exactly (a process-global delta would pick up the other
// query's shuffles and decodes), and the two blocks together must account
// for every attributed increment the process registry saw.
TEST(ExplainConcurrencyTest, ConcurrentQueriesReportExactlyTheirOwnWork) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "tql_explain_concurrent")
          .string();
  std::filesystem::remove_all(dir);
  storage::GraphWriteOptions write;
  write.sort_order = storage::SortOrder::kStructuralLocality;
  write.row_group_size = 64;
  TG_CHECK_OK(storage::WriteVeStore(
      ::tgraph::testing::RandomTGraph(11, 200, 400, 40), dir, write));

  const std::string generate_azoom =
      "EXPLAIN ANALYZE GENERATE snb(scale=0.05, seed=3) AS s;"
      "EXPLAIN ANALYZE SET a = AZOOM s BY firstName "
      "AGGREGATE COUNT() AS people;";
  const std::string load_wzoom =
      "EXPLAIN ANALYZE LOAD '" + dir + "' FROM 5 TO 25 AS g;"
      "EXPLAIN ANALYZE SET w = WZOOM g WINDOW 3 NODES EXISTS EDGES EXISTS;";

  const QueryRun solo_a = RunQuery(generate_azoom);
  const QueryRun solo_b = RunQuery(load_wzoom);
  // Both queries do attributed work the other could steal.
  EXPECT_NE(solo_a.explain.find("shuffles="), std::string::npos)
      << solo_a.explain;
  EXPECT_NE(solo_b.explain.find("partitions_pruned="), std::string::npos)
      << solo_b.explain;
  EXPECT_NE(solo_b.explain.find("segment_verifies="), std::string::npos)
      << solo_b.explain;
  EXPECT_NE(solo_b.explain.find("shuffles="), std::string::npos)
      << solo_b.explain;

  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    QueryRun a, b;
    std::thread thread_a([&] { a = RunQuery(generate_azoom); });
    std::thread thread_b([&] { b = RunQuery(load_wzoom); });
    thread_a.join();
    thread_b.join();
    const obs::MetricsSnapshot after =
        obs::MetricsRegistry::Global().Snapshot();

    EXPECT_EQ(a.explain, solo_a.explain);
    EXPECT_EQ(b.explain, solo_b.explain);
    for (size_t i = 0; i < obs::kNumQueryCounters; ++i) {
      const auto counter = static_cast<obs::QueryCounter>(i);
      SCOPED_TRACE(obs::QueryCounterName(counter));
      EXPECT_EQ(a.counted[counter], solo_a.counted[counter]);
      EXPECT_EQ(b.counted[counter], solo_b.counted[counter]);
      EXPECT_EQ(a.counted[counter] + b.counted[counter],
                GlobalCounter(after, counter) - GlobalCounter(before, counter));
    }
    if (::testing::Test::HasFailure()) break;
  }
  std::filesystem::remove_all(dir);
}

// Installing a counter block leaves span recording alone: a local
// EXPLAIN ANALYZE (no query id) under the global tracer still records
// every span, as `tgz --trace-out` relies on.
TEST(ExplainConcurrencyTest, CounterBlockDoesNotSuppressGlobalSpans) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  Interpreter interpreter(Ctx());
  Result<std::string> output = interpreter.ExecuteScript(
      "GENERATE snb(scale=0.02, seed=3) AS s;"
      "EXPLAIN ANALYZE SET w = WZOOM s WINDOW 3;");
  tracer.Disable();
  TG_CHECK(output.ok()) << output.status();
  bool saw_wzoom = false;
  for (const obs::SpanEvent& event : tracer.Events()) {
    if (event.name.find("wzoom") != std::string::npos) saw_wzoom = true;
  }
  tracer.Clear();
  EXPECT_TRUE(saw_wzoom);
}

}  // namespace
}  // namespace tgraph::tql
