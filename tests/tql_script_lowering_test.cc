// Differential test of TQL chain lowering: every script runs once whole
// (where runs of SET statements are lowered to one optimized Pipeline)
// and once one statement per ExecuteScript call (which never forms a
// chain), on each of the four representations. Both runs must print the
// same text, fail with the same error, and bind canonically identical
// graphs under every name the whole run binds.

#include <gtest/gtest.h>

#include <filesystem>
#include <regex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/graph_io.h"
#include "tests/test_util.h"
#include "tql/interpreter.h"

namespace tgraph::tql {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::Ctx;

struct Script {
  std::string name;
  std::vector<std::string> statements;
};

/// The outcome of one run: its printed text (wall times masked) or its
/// error, and the interpreter that ran it.
struct ScriptRun {
  std::string text;
  std::unique_ptr<Interpreter> interpreter;
};

std::string Masked(const Result<std::string>& output) {
  if (!output.ok()) return "error: " + output.status().ToString();
  return std::regex_replace(*output, std::regex("wall_us=[0-9]+"),
                            "wall_us=*");
}

int64_t RuleFired(const std::string& rule) {
  return obs::MetricsRegistry::Global()
      .GetCounter("pipeline.optimizer.rule." + rule)
      ->value();
}

class ScriptLoweringTest : public ::testing::Test {
 protected:
  ScriptLoweringTest() {
    dir_ = (std::filesystem::temp_directory_path() / "tql_lowering_fixture")
               .string();
    std::filesystem::remove_all(dir_);
    TG_CHECK_OK(storage::WriteVeStore(
        ::tgraph::testing::RandomTGraph(7, 40, 120, 24), dir_));
  }
  ~ScriptLoweringTest() override { std::filesystem::remove_all(dir_); }

  /// Binds `g` in representation `rep`. INFO reads `g`, so the CONVERT
  /// never joins a chain and `g` stays bound.
  std::vector<std::string> Prefix(const std::string& rep) const {
    return {"LOAD '" + dir_ + "' AS src", "SET g = CONVERT src TO " + rep,
            "INFO g"};
  }

  ScriptRun Whole(const std::vector<std::string>& statements) const {
    ScriptRun run{"", std::make_unique<Interpreter>(Ctx())};
    std::string script;
    for (const std::string& statement : statements) script += statement + ";";
    run.text = Masked(run.interpreter->ExecuteScript(script));
    return run;
  }

  ScriptRun OneByOne(const std::vector<std::string>& statements) const {
    ScriptRun run{"", std::make_unique<Interpreter>(Ctx())};
    for (const std::string& statement : statements) {
      Result<std::string> output = run.interpreter->ExecuteScript(statement);
      if (!output.ok()) {
        run.text = Masked(output);  // a failing script prints only its error
        break;
      }
      run.text += Masked(output);
    }
    return run;
  }

  std::string dir_;
};

const std::vector<Script>& Scripts() {
  static const std::vector<Script> scripts = {
      // zoombench's zoom-resident shape: no rewrite applies.
      {"azoom_then_wzoom",
       {"SET a = AZOOM g BY group AGGREGATE COUNT() AS n, SUM(weight) AS w",
        "SET z = WZOOM a WINDOW 3 NODES EXISTS EDGES EXISTS", "INFO z"}},
      {"lazy_coalesce",
       {"SET c = COALESCE g", "SET z = WZOOM c WINDOW 4 NODES ALL EDGES EXISTS",
        "INFO z"}},
      {"slice_pushdown",
       {"SET a = AZOOM g BY group AGGREGATE COUNT() AS n",
        "SET s = SLICE a FROM 5 TO 17", "SET c = COALESCE s", "INFO c"}},
      // Dropping a conversion can change the result's representation (the
      // point of the rewrite), so these scripts print no INFO of it.
      {"drop_conversion",
       {"SET o = CONVERT g TO og", "SET s = SLICE o FROM 3 TO 20",
        "SET z = WZOOM s WINDOW 2"}},
      {"rebinding",
       {"SET s = AZOOM g BY group AGGREGATE COUNT() AS n",
        "SET s = COALESCE s", "INFO s"}},
      // On OGC input the conversion is what lets AZOOM run at all.
      {"convert_then_azoom",
       {"SET v = CONVERT g TO ve",
        "SET a = AZOOM v BY group AGGREGATE COUNT() AS n",
        "SET c = COALESCE a"}},
      {"three_step_chain_with_final_convert",
       {"SET a = WZOOM g WINDOW 2", "SET b = COALESCE a",
        "SET c = CONVERT b TO rg", "INFO c"}},
      // Statements that read an intermediate keep it bound, so no chain.
      {"read_twice",
       {"SET a = SLICE g FROM 2 TO 12", "SET b = COALESCE a", "INFO a",
        "INFO b"}},
      {"list_reads_every_name",
       {"SET a = WZOOM g WINDOW 2", "SET b = COALESCE a", "LIST"}},
      {"drop_reads_the_name",
       {"SET a = WZOOM g WINDOW 2", "SET b = COALESCE a", "DROP a"}},
      {"snapshot_of_the_result",
       {"SET a = SLICE g FROM 2 TO 12", "SET b = COALESCE a",
        "SNAPSHOT b AT 6 LIMIT 3"}},
      {"subgraph_breaks_the_chain",
       {"SET a = SLICE g FROM 2 TO 12", "SET b = SUBGRAPH a WHERE HAS(group)",
        "SET c = WZOOM b WINDOW 3", "SET d = COALESCE c", "INFO d"}},
      {"explain_reads_the_name",
       {"SET a = SLICE g FROM 2 TO 12", "EXPLAIN ANALYZE SET b = COALESCE a"}},
  };
  return scripts;
}

TEST_F(ScriptLoweringTest, WholeScriptEqualsStatementByStatement) {
  for (const std::string rep : {"ve", "og", "ogc", "rg"}) {
    for (const Script& script : Scripts()) {
      SCOPED_TRACE(script.name + " on " + rep);
      std::vector<std::string> statements = Prefix(rep);
      statements.insert(statements.end(), script.statements.begin(),
                        script.statements.end());
      const ScriptRun whole = Whole(statements);
      const ScriptRun one_by_one = OneByOne(statements);
      EXPECT_EQ(whole.text, one_by_one.text);
      for (const auto& [name, graph] : whole.interpreter->environment()) {
        SCOPED_TRACE(name);
        Result<TGraph> other = one_by_one.interpreter->Lookup(name);
        ASSERT_TRUE(other.ok()) << other.status();
        EXPECT_EQ(Canonical(graph), Canonical(*other));
      }
    }
  }
}

TEST_F(ScriptLoweringTest, OnlyTheChainsLastNameIsBound) {
  std::vector<std::string> statements = Prefix("ve");
  statements.push_back("SET a = AZOOM g BY group AGGREGATE COUNT() AS n");
  statements.push_back("SET z = WZOOM a WINDOW 3");
  const ScriptRun whole = Whole(statements);
  EXPECT_NE(whole.text.find("set a\nset z\n"), std::string::npos)
      << whole.text;
  EXPECT_EQ(whole.interpreter->environment().count("a"), 0u);
  EXPECT_EQ(whole.interpreter->environment().count("z"), 1u);
  EXPECT_EQ(OneByOne(statements).interpreter->environment().count("a"), 1u);
}

// Each rewrite fires on the chain written for it when the script runs
// whole, and never when the same statements run one by one.
TEST_F(ScriptLoweringTest, ChainsFireTheRewritesTheyWereWrittenFor) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"lazy_coalesce", "lazy_coalesce"},
      {"slice_pushdown", "slice_pushdown"},
      {"drop_conversion", "drop_conversion"},
  };
  for (const auto& [script_name, rule] : cases) {
    SCOPED_TRACE(script_name);
    std::vector<std::string> statements = Prefix("ve");
    for (const Script& script : Scripts()) {
      if (script.name != script_name) continue;
      statements.insert(statements.end(), script.statements.begin(),
                        script.statements.end());
    }
    int64_t before = RuleFired(rule);
    OneByOne(statements);
    EXPECT_EQ(RuleFired(rule), before);
    before = RuleFired(rule);
    Whole(statements);
    EXPECT_GT(RuleFired(rule), before);
  }
}

TEST_F(ScriptLoweringTest, AZoomThenWZoomFiresNoRule) {
  std::vector<std::string> statements = Prefix("ve");
  statements.insert(statements.end(), Scripts()[0].statements.begin(),
                    Scripts()[0].statements.end());
  obs::Counter* fired = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kOptimizerRulesFired);
  const int64_t before = fired->value();
  const ScriptRun whole = Whole(statements);
  EXPECT_EQ(whole.text.find("error"), std::string::npos) << whole.text;
  EXPECT_EQ(fired->value(), before);
}

// The interrupt check runs before every step of a lowered chain, so a
// deadline can stop a chain between two of its steps.
TEST_F(ScriptLoweringTest, InterruptCheckRunsBeforeEachStep) {
  const std::string chain =
      "SET a = SLICE g FROM 2 TO 12;"
      "SET b = WZOOM a WINDOW 2;"
      "SET c = AZOOM b BY group AGGREGATE COUNT() AS n;";
  Interpreter interpreter(Ctx());
  ASSERT_TRUE(interpreter
                  .ExecuteScript("LOAD '" + dir_ + "' AS g")
                  .ok());
  int calls = 0;
  interpreter.set_interrupt_check([&calls]() -> Status {
    ++calls;
    return Status::OK();
  });
  ASSERT_TRUE(interpreter.ExecuteScript(chain).ok());
  EXPECT_EQ(calls, 4);  // once for the chain, then once per step

  calls = 0;
  interpreter.set_interrupt_check([&calls]() -> Status {
    return ++calls == 3 ? Status::Cancelled("deadline") : Status::OK();
  });
  Result<std::string> cut = interpreter.ExecuteScript(chain);
  ASSERT_FALSE(cut.ok());
  EXPECT_TRUE(cut.status().IsCancelled()) << cut.status();
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace tgraph::tql
