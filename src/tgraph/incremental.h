#ifndef TGRAPH_TGRAPH_INCREMENTAL_H_
#define TGRAPH_TGRAPH_INCREMENTAL_H_

#include <string>

#include "tgraph/pipeline.h"
#include "tgraph/tgraph.h"

namespace tgraph::incremental {

/// \brief Cut-and-splice incremental maintenance of zoom pipelines over a
/// streaming source (the delta application hooks behind `src/views`).
///
/// Streaming ingest admits only strictly increasing event timestamps
/// (LiveGraph::Append rejects anything at or below the watermark), so
/// between two published epochs the source graph can change only at times
/// in (watermark_old, horizon): restricted to [lifetime.start, t_min) —
/// where t_min bounds the earliest unapplied event from below — the two
/// graphs are pointwise identical. Every view pipeline stage respects
/// that structure:
///
///  - aZoom, SLICE, SUBGRAPH-free chains, COALESCE, and CONVERT are
///    instantaneous: their output at time t depends only on the input at
///    time t, so they commute with restricting the input to a time
///    suffix.
///  - wZoom over `WINDOW n POINTS` is window-local: a window's output
///    depends only on the input within the window, and windows tile the
///    stage input's lifetime start on the arithmetic grid
///    {anchor + k*n}. Re-running the pipeline over the suffix
///    [cut, end) produces exactly the full run's windows at or after
///    `cut` — provided `cut` lies on every wZoom stage's grid, which is
///    what PlanDelta's rounding guarantees.
///
/// The maintained view state is therefore updated as
///
///    new = Coalesce( prev | [start, cut)  UNION  pipeline(src|[cut, end)) )
///
/// (views::ViewContent::Splice, entity by entity: only entities with a
/// state reaching past the cut or a state in the recomputed suffix can
/// change). Coalescing makes the result canonical: a window output
/// or aZoom group state that straddles the cut is re-merged with its
/// recomputed continuation iff the values still agree, so the spliced
/// state is record-for-record identical to a coalesced full recompute.
///
/// When a delta is *not* incrementally applicable — CHANGES windows (the
/// window boundaries depend on change-point indexing over the whole
/// history), a cut that rounds back to the source's start, an
/// unconverged grid fixpoint across chained wZooms, or a suffix so large
/// the splice would not pay for itself — PlanDelta reports a fallback
/// with the reason, and the caller recomputes from scratch.

/// The decision for one delta: splice at `cut`, or recompute fully.
struct DeltaPlan {
  bool incremental = false;
  /// Splice point (meaningful only when `incremental`): the view's state
  /// before `cut` is kept verbatim, everything at or after is recomputed
  /// from the source suffix.
  TimePoint cut = 0;
  /// Why the delta must fall back to a full recompute (empty when
  /// `incremental`). Stable tokens, e.g. "wzoom-changes-window".
  std::string fallback_reason;
};

/// Plans the application of a delta whose events all carry timestamps
/// >= `t_min` against a view of `pipeline` over a source whose lifetime
/// was `source_lifetime` at the last full rebuild (the lifetime start is
/// stable under streaming appends: new events only extend the graph
/// later in time). `max_suffix_fraction` bounds the recomputed span:
/// when (end - cut) exceeds that fraction of the source lifetime the
/// splice saves too little over a recompute and the plan falls back
/// ("suffix-fraction").
DeltaPlan PlanDelta(const Pipeline& pipeline, Interval source_lifetime,
                    TimePoint t_min, double max_suffix_fraction);

/// The representation the pipeline publishes: the last CONVERT target,
/// or the source representation when no step converts.
Representation FinalRepresentation(const Pipeline& pipeline,
                                   Representation source);

}  // namespace tgraph::incremental

#endif  // TGRAPH_TGRAPH_INCREMENTAL_H_
