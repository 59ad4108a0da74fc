#ifndef TGRAPH_OBS_STAGE_H_
#define TGRAPH_OBS_STAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace tgraph::obs {

/// \brief One executed stage of a query: a statement or a pipeline step
/// with its wall time and the observable work it caused. The single
/// per-step record behind EXPLAIN ANALYZE, the slow-query log and the
/// opt::Stats profile (Pipeline::Run derives each observation from it).
///
/// Counter-derived fields are the movement of the query's own counter
/// block (QueryCounters) across the stage. Every increment lands in that
/// block and in its process-global twin at once, so a stage reports the
/// same work /metrics counts, and work of concurrently running queries
/// never lands in it.
struct StageStats {
  std::string label;   ///< Operator / statement name ("AZOOM", "LOAD"...).
  std::string detail;  ///< Source graph, representation, target, ...
  int64_t wall_us = 0;
  int64_t rows_in = -1;   ///< -1 = not applicable.
  int64_t rows_out = -1;  ///< -1 = not applicable.

  // Dataflow (shuffles and skew rebalancing).
  int64_t shuffles = 0;
  int64_t shuffle_records = 0;
  int64_t shuffle_bytes = 0;
  int64_t shuffles_rebalanced = 0;
  int64_t shuffle_hot_keys = 0;

  // Storage pushdown over store partitions.
  int64_t store_partitions_pruned = 0;
  int64_t store_partitions_decoded = 0;
  int64_t store_segment_verifies = 0;
  int64_t store_verified_bytes = 0;

  // Catalog disposition (tgraphd only; 0/0 when loading directly).
  int64_t catalog_hits = 0;
  int64_t catalog_loads = 0;

  /// One plan line: "  AZOOM g [VE]: wall_us=412 rows_in=1000 ..."
  /// Only fields the stage actually moved are printed.
  std::string ToString() const;

  /// The same data as a JSON object (for the slow-query log).
  std::string ToJson() const;
};

/// \brief Accumulates StageStats while the interpreter executes a
/// statement under EXPLAIN ANALYZE (or under the server's slow-query
/// log). Single-query scope: not thread-safe, create one per execution.
class ExplainCollector {
 public:
  /// RAII stage measurement: times the stage and commits the movement of
  /// the query's counter block (QueryCounterScope, which installs a block
  /// when the caller runs without one) as one stage on destruction —
  /// also when the stage's work failed. A null collector makes the scope
  /// a no-op, so call sites don't branch.
  class Scope {
   public:
    Scope(ExplainCollector* collector, std::string label, std::string detail);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void set_rows(int64_t rows_in, int64_t rows_out);

   private:
    ExplainCollector* collector_;
    StageStats stage_;
    int64_t start_us_ = 0;
    std::optional<QueryCounterScope> counters_;
  };

  void Add(StageStats stage) { stages_.push_back(std::move(stage)); }
  const std::vector<StageStats>& stages() const { return stages_; }
  bool empty() const { return stages_.empty(); }

  /// The rendered EXPLAIN ANALYZE report for one statement:
  ///   EXPLAIN ANALYZE <canonical>
  ///     <stage lines>
  ///   result-cache: bypass (EXPLAIN ANALYZE always re-executes)
  ///   total: wall_us=<total_us>
  std::string Render(const std::string& canonical, int64_t total_us) const;

  /// JSON array of ToJson() stages (for the slow-query log).
  std::string StagesJson() const;

 private:
  std::vector<StageStats> stages_;
};

}  // namespace tgraph::obs

#endif  // TGRAPH_OBS_STAGE_H_
