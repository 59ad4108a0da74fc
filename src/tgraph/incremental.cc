#include "tgraph/incremental.h"

#include <utility>
#include <vector>

namespace tgraph::incremental {

DeltaPlan PlanDelta(const Pipeline& pipeline, Interval source_lifetime,
                    TimePoint t_min, double max_suffix_fraction) {
  DeltaPlan plan;
  if (source_lifetime.empty()) {
    plan.fallback_reason = "empty-source";
    return plan;
  }
  if (t_min <= source_lifetime.start) {
    plan.fallback_reason = "delta-reaches-source-start";
    return plan;
  }

  // Collect each wZoom stage's window grid: (anchor, size). The anchor is
  // the stage input's lifetime start, derived statically — slices clamp
  // it forward, wZoom preserves it (the first window starts at the input
  // lifetime start), and every other step leaves the lifetime untouched.
  std::vector<std::pair<TimePoint, int64_t>> grids;
  TimePoint anchor = source_lifetime.start;
  for (const Pipeline::Step& step : pipeline.steps()) {
    if (const auto* slice = std::get_if<Pipeline::SliceStep>(&step)) {
      anchor = std::max(anchor, slice->range.start);
    } else if (const auto* wzoom = std::get_if<Pipeline::WZoomStep>(&step)) {
      if (wzoom->spec.window.kind == WindowSpec::Kind::kChanges) {
        // CHANGES window boundaries are every n-th change point of the
        // whole stage input: a new event can renumber every boundary, so
        // no time suffix is self-contained.
        plan.fallback_reason = "wzoom-changes-window";
        return plan;
      }
      grids.emplace_back(anchor, wzoom->spec.window.size);
    }
  }

  // Round the cut down onto every wZoom grid. A stage whose anchor is at
  // or after the cut regenerates its full window relation from its own
  // anchor either way, so only grids strictly before the cut constrain
  // it. Rounding one grid can un-align another; iterate to a fixpoint
  // (the cut only ever decreases, so this terminates — the pass cap just
  // bounds pathological multi-grid cascades).
  TimePoint cut = t_min;
  bool converged = false;
  for (int pass = 0; pass < 64 && !converged; ++pass) {
    converged = true;
    for (const auto& [grid_anchor, size] : grids) {
      if (cut <= grid_anchor) continue;
      TimePoint snapped = grid_anchor + (cut - grid_anchor) / size * size;
      if (snapped != cut) {
        cut = snapped;
        converged = false;
      }
    }
  }
  if (!converged) {
    plan.fallback_reason = "window-grid-fixpoint";
    return plan;
  }
  if (cut <= source_lifetime.start) {
    plan.fallback_reason = "cut-at-source-start";
    return plan;
  }

  const double suffix =
      static_cast<double>(source_lifetime.end - cut);
  const double total = static_cast<double>(source_lifetime.duration());
  if (total > 0 && suffix / total > max_suffix_fraction) {
    plan.fallback_reason = "suffix-fraction";
    return plan;
  }

  plan.incremental = true;
  plan.cut = cut;
  return plan;
}

Representation FinalRepresentation(const Pipeline& pipeline,
                                   Representation source) {
  Representation rep = source;
  for (const Pipeline::Step& step : pipeline.steps()) {
    if (const auto* convert = std::get_if<Pipeline::ConvertStep>(&step)) {
      rep = convert->target;
    }
  }
  return rep;
}

}  // namespace tgraph::incremental
