#ifndef TGRAPH_TQL_INTERPRETER_H_
#define TGRAPH_TQL_INTERPRETER_H_

#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "obs/stage.h"
#include "tgraph/pipeline.h"
#include "tgraph/stats.h"
#include "tql/ast.h"

namespace tgraph::tql {

/// \brief The view verbs' execution surface: CREATE VIEW / DROP VIEW /
/// SHOW VIEWS / VIEW delegate here. Implemented by views::ViewRegistry
/// (declared in tql so the interpreter does not depend on src/views);
/// each method returns the statement's rendered output. A plain
/// interpreter has no catalog — views live in tgraphd, where the
/// registry subscribes to ingest epochs.
class ViewCatalog {
 public:
  virtual ~ViewCatalog() = default;
  virtual Result<std::string> CreateView(const CreateViewStatement& create) = 0;
  virtual Result<std::string> DropView(const std::string& name) = 0;
  virtual Result<std::string> ShowViews() = 0;
  /// Serves the materialized view, refreshing it to the source's current
  /// epoch first.
  virtual Result<std::string> QueryView(const std::string& name) = 0;
};

/// \brief Executes TQL statements against a named-graph environment — the
/// query-language front end the paper's conclusion plans ("we will design
/// a query language with support for the proposed temporal zoom
/// operators").
///
/// The interpreter owns the environment; graphs persist across Execute
/// calls, so a REPL session can build pipelines incrementally.
class Interpreter {
 public:
  explicit Interpreter(dataflow::ExecutionContext* ctx) : ctx_(ctx) {}

  /// Parses and executes a whole script; returns the concatenated output
  /// of its statements. Execution stops at the first failing statement.
  ///
  /// Each run of consecutive SET statements over AZOOM, WZOOM, SLICE,
  /// COALESCE or CONVERT in which every statement reads the previous one's
  /// name, and no other statement of the script reads or binds that name,
  /// is lowered to one Pipeline and run Optimized(). Each statement still
  /// prints its "set <name>" line, but only the chain's last name ends up
  /// bound; the intermediate names are unbound.
  Result<std::string> ExecuteScript(const std::string& script);

  /// The same for an already parsed script (tgzd parses each QUERY once).
  Result<std::string> ExecuteScript(const std::vector<Statement>& statements);

  /// Executes one parsed statement and returns its printable output.
  Result<std::string> Execute(const Statement& statement);

  /// Looks up a graph bound by LOAD/GENERATE/SET.
  Result<TGraph> Lookup(const std::string& name) const;

  /// Graphs currently bound.
  const std::map<std::string, TGraph>& environment() const { return env_; }

  /// Hook replacing LOAD's direct storage access. tgraphd points this at
  /// its shared graph catalog so concurrent sessions reuse one loaded
  /// copy of a dataset instead of re-reading it per request. Unset (the
  /// default) means LOAD reads from disk itself.
  using Loader = std::function<Result<TGraph>(const LoadStatement&)>;
  void set_loader(Loader loader) { loader_ = std::move(loader); }

  /// Cooperative interruption: when set, checked before each statement of
  /// ExecuteScript and before each step of a lowered chain; a non-OK
  /// return aborts the script with that status.
  /// tgraphd uses this for per-request deadlines and drain cancellation.
  using InterruptCheck = std::function<Status()>;
  void set_interrupt_check(InterruptCheck check) {
    interrupt_check_ = std::move(check);
  }

  /// When set, every executed zoom/slice/coalesce/convert step records one
  /// observation (wall time, the shuffle bytes it added to the query's
  /// counter block, rows in/out, input representation) into the store,
  /// derived from the step's stage (Pipeline::RunOptions::stats).
  /// tgraphd records its queries this way and persists the profile; no
  /// query plan reads it (only Pipeline::OptimizedWithCost does). The
  /// store must outlive the interpreter. Unset (the default) means no
  /// recording.
  void set_stats(opt::Stats* stats) { stats_ = stats; }

  /// When set, every executed statement and pipeline step appends a StageStats
  /// to the collector — the engine behind EXPLAIN ANALYZE and tgraphd's
  /// slow-query log. EXPLAIN ANALYZE statements swap in their own
  /// collector for the inner statement regardless of this setting.
  /// The collector must outlive the interpreter. Unset by default.
  void set_explain(obs::ExplainCollector* explain) { explain_ = explain; }

  /// Routes the view statements (CREATE VIEW, DROP VIEW, SHOW VIEWS,
  /// VIEW). tgraphd points this at its view registry; unset (the
  /// default), view statements fail with FailedPrecondition — views are
  /// maintained by the resident server, not per-process interpreters.
  void set_views(ViewCatalog* views) { views_ = views; }

 private:
  Result<TGraph> Evaluate(const Expr& expr);

  /// Runs the lowered steps of `sets` (a chain as ExecuteScript forms
  /// them, or one statement) as one optimized Pipeline over the first
  /// statement's source, binds the last name and unbinds the others.
  Result<std::string> ExecuteChain(
      const std::vector<const SetStatement*>& sets);

  dataflow::ExecutionContext* ctx_;
  std::map<std::string, TGraph> env_;
  Loader loader_;
  InterruptCheck interrupt_check_;
  opt::Stats* stats_ = nullptr;
  obs::ExplainCollector* explain_ = nullptr;
  ViewCatalog* views_ = nullptr;
};

}  // namespace tgraph::tql

#endif  // TGRAPH_TQL_INTERPRETER_H_
