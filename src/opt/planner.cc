#include "opt/planner.h"

#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "opt/cost_model.h"

namespace tgraph::opt {

namespace {

using Step = Pipeline::Step;

Pipeline FromSteps(const std::vector<Step>& steps) {
  Pipeline pipeline;
  for (const Step& step : steps) pipeline.Then(step);
  return pipeline;
}

Representation OutputRepresentation(const std::vector<Step>& steps,
                                    Representation input) {
  Representation rep = input;
  for (const Step& step : steps) {
    if (const auto* convert = std::get_if<Pipeline::ConvertStep>(&step)) {
      rep = convert->target;
    }
  }
  return rep;
}

/// The order variant with a Convert to `target` inserted after any leading
/// slices (slices are cheap everywhere and shrink the conversion's input),
/// plus a trailing Convert restoring the variant's original output
/// representation when the insertion would change it. nullopt when the
/// insertion is pointless (no operator downstream, target already the
/// current representation) or unsafe (OGC input — see planner.h).
std::optional<std::vector<Step>> WithUpfrontConversion(
    const std::vector<Step>& steps, Representation target,
    Representation input_rep) {
  if (input_rep == Representation::kOgc || target == input_rep) {
    return std::nullopt;
  }
  size_t pos = 0;
  while (pos < steps.size() &&
         std::holds_alternative<Pipeline::SliceStep>(steps[pos])) {
    ++pos;
  }
  if (pos == steps.size()) return std::nullopt;
  // An explicit conversion already leads the remaining chain: inserting
  // another in front of it only adds work.
  if (std::holds_alternative<Pipeline::ConvertStep>(steps[pos])) {
    return std::nullopt;
  }
  std::vector<Step> out = steps;
  out.insert(out.begin() + static_cast<int64_t>(pos),
             Pipeline::ConvertStep{target});
  const Representation want = OutputRepresentation(steps, input_rep);
  if (OutputRepresentation(out, input_rep) != want) {
    out.push_back(Pipeline::ConvertStep{want});
  }
  return out;
}

}  // namespace

std::vector<Pipeline> EnumerateCandidates(const Pipeline& pipeline,
                                          const Pipeline::Hints& hints,
                                          const PlanContext& input) {
  Pipeline::Hints safe_hints = hints;
  if (input.representation == Representation::kOgc) {
    // On an OGC input a conversion is semantic, not just physical: aZoom
    // errors on OGC but runs on the (type-only) graph a conversion
    // produces, so removing one can flip a plan between succeeding and
    // failing. Keep every conversion the user wrote.
    safe_hints.drop_mid_chain_conversions = false;
  }

  // Order variants: all rules; all rules minus the zoom swap; untouched.
  std::vector<std::vector<Step>> orders;
  orders.push_back(pipeline.Optimized(safe_hints).steps());
  Pipeline::Hints no_swap = safe_hints;
  no_swap.attributes_stable = false;
  orders.push_back(pipeline.Optimized(no_swap).steps());
  orders.push_back(pipeline.steps());

  std::vector<Pipeline> candidates;
  std::set<std::string> seen;
  auto add = [&candidates, &seen](const std::vector<Step>& steps) {
    Pipeline candidate = FromSteps(steps);
    if (seen.insert(candidate.Explain()).second) {
      candidates.push_back(std::move(candidate));
    }
  };
  for (const std::vector<Step>& order : orders) {
    add(order);
    for (Representation target :
         {Representation::kRg, Representation::kVe, Representation::kOg}) {
      if (std::optional<std::vector<Step>> converted =
              WithUpfrontConversion(order, target, input.representation)) {
        add(*converted);
      }
    }
  }
  return candidates;
}

}  // namespace tgraph::opt

namespace tgraph {

Pipeline Pipeline::OptimizedWithCost(const opt::Stats& stats,
                                     const Hints& hints,
                                     const opt::PlanContext& input) const {
  static obs::Counter* fallbacks = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kOptimizerCostFallbacks);
  static obs::Counter* plans = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kOptimizerCostPlans);
  static obs::Counter* candidates_counter =
      obs::MetricsRegistry::Global().GetCounter(
          obs::metric_names::kOptimizerCandidates);

  if (stats.empty()) {
    // No history to price with: behave exactly like the rule optimizer.
    fallbacks->Increment();
    return Optimized(hints);
  }

  std::vector<Pipeline> candidates =
      opt::EnumerateCandidates(*this, hints, input);
  candidates_counter->Add(static_cast<int64_t>(candidates.size()));

  opt::CostModel model(stats);
  size_t best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const double cost = model.PricePipeline(candidates[i], input);
    // Strict comparison: a tie keeps the earlier candidate, and the
    // rule-optimized plan is enumerated first.
    if (cost < best_cost) {
      best = i;
      best_cost = cost;
    }
  }
  plans->Increment();
  TG_LOG(INFO) << "cost-based plan chosen (" << best_cost << "us estimated, "
               << candidates.size() << " candidates)";
  return candidates[best];
}

}  // namespace tgraph
