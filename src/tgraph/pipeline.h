#ifndef TGRAPH_TGRAPH_PIPELINE_H_
#define TGRAPH_TGRAPH_PIPELINE_H_

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "obs/stage.h"
#include "tgraph/stats.h"
#include "tgraph/tgraph.h"

namespace tgraph {

/// \brief A declarative chain of zoom operators with a rule-based
/// optimizer — a first cut of the query optimization the paper's
/// conclusion plans ("We will propose query optimization techniques for
/// our workloads"), encoding the findings of Section 5:
///
///  - lazy coalescing (Section 4): explicit Coalesce steps that are not
///    required for correctness are removed; wZoom^T coalesces internally.
///  - representation stability (Figure 16): mid-chain representation
///    switches are removed — the paper (and our ablation) find that
///    bouncing between representations never recovers its own cost; only
///    a final, user-requested conversion is kept.
///  - slice pushdown: temporal selection moves ahead of aZoom^T (which is
///    per-snapshot, so slicing commutes with it) to shrink every
///    intermediate.
///  - operator reordering (Figure 17): with the caller's attestation that
///    vertex attributes are change-free (`attributes_stable`) and under
///    exists/exists quantification, aZoom^T is moved ahead of wZoom^T —
///    the ordering the paper found fastest for growth-only datasets.
class Pipeline {
 public:
  struct AZoomStep {
    AZoomSpec spec;
  };
  struct WZoomStep {
    WZoomSpec spec;
  };
  struct SliceStep {
    Interval range;
  };
  struct CoalesceStep {};
  struct ConvertStep {
    Representation target;
  };
  using Step =
      std::variant<AZoomStep, WZoomStep, SliceStep, CoalesceStep, ConvertStep>;

  /// Hints the optimizer cannot infer from the plan alone.
  struct Hints {
    /// Vertex attributes never change over an entity's lifetime (true for
    /// growth-only datasets like WikiTalk and SNB). Enables the
    /// aZoom-before-wZoom reordering of Section 5.3.
    bool attributes_stable = false;
    /// Remove lossless mid-chain representation switches (keep a final
    /// one, and keep lossy OGC conversions anywhere). Disable when the
    /// plan will run against an OGC input: there a conversion is
    /// semantic — aZoom errors on OGC but runs after a conversion — so
    /// removing one can change the plan's outcome, not just its cost.
    /// OptimizedWithCost applies this guard automatically from its input
    /// context.
    bool drop_mid_chain_conversions = true;
  };

  Pipeline& Then(Step step) {
    steps_.push_back(std::move(step));
    return *this;
  }
  Pipeline& AZoom(AZoomSpec spec) { return Then(AZoomStep{std::move(spec)}); }
  Pipeline& WZoom(WZoomSpec spec) { return Then(WZoomStep{std::move(spec)}); }
  Pipeline& Slice(Interval range) { return Then(SliceStep{range}); }
  Pipeline& Coalesce() { return Then(CoalesceStep{}); }
  Pipeline& Convert(Representation target) { return Then(ConvertStep{target}); }

  const std::vector<Step>& steps() const { return steps_; }

  /// Returns the rewritten pipeline (this one is unchanged).
  Pipeline Optimized(const Hints& hints) const;
  Pipeline Optimized() const { return Optimized(Hints()); }

  /// \brief Cost-based optimization: enumerates valid rewrites of this
  /// pipeline (the rule rewrites, representation selection, conversion
  /// placement), prices each candidate against `stats` — per-operator
  /// statistics observed by the instrumented Run overload or a warm-start
  /// profile — and returns the cheapest. When `stats` holds no
  /// observations, falls back to Optimized(hints), so cold starts behave
  /// exactly like the rule optimizer.
  ///
  /// Defined in src/opt/planner.cc: callers must link tg_opt.
  Pipeline OptimizedWithCost(const opt::Stats& stats, const Hints& hints,
                             const opt::PlanContext& input) const;

  /// \brief True iff the aZoom-before-wZoom reorder of Section 5.3 is
  /// legal for a window with this spec: both quantifiers must be
  /// existential (exists/exists). The single guard shared by every code
  /// path that reorders zooms — the rule rewriter (rule 3) and the
  /// cost-based enumerator — so neither can drift: under all/most/at-least
  /// quantification the zooms do not commute even with stable attributes.
  static bool ZoomReorderSafe(const WZoomSpec& spec);

  /// What Run measures, and when it may stop early.
  struct RunOptions {
    /// Receives one stage per executed step: label "AZOOM", "WZOOM",
    /// "SLICE", "COALESCE" or "CONVERT", detail "[<input rep>]" (plus
    /// " -> <target>" for CONVERT), wall time, rows in/out and the step's
    /// movement of the query's counter block.
    obs::ExplainCollector* explain = nullptr;
    /// Names the input in the first stage's detail ("g [VE]").
    std::string input_name;
    /// Records one observation per step, read off the step's stage and
    /// filed under the representation the step consumed.
    opt::Stats* stats = nullptr;
    /// Checked before each step; a non-OK status stops the run with it.
    std::function<Status()> interrupt;
  };

  /// Executes the steps in order against `input`.
  Result<TGraph> Run(const TGraph& input) const {
    return Run(input, RunOptions());
  }
  Result<TGraph> Run(const TGraph& input, const RunOptions& options) const;

  /// One line per step, e.g. "1. wZoom window=3 nodes=all edges=all".
  std::string Explain() const;

 private:
  std::vector<Step> steps_;
};

}  // namespace tgraph

#endif  // TGRAPH_TGRAPH_PIPELINE_H_
