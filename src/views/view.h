#ifndef TGRAPH_VIEWS_VIEW_H_
#define TGRAPH_VIEWS_VIEW_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "ingest/live_graph.h"
#include "tgraph/pipeline.h"
#include "tgraph/tgraph.h"
#include "tql/ast.h"
#include "views/content.h"
#include "views/counting.h"

namespace tgraph::views {

/// What CREATE VIEW registered: the name, the streaming source directory
/// the view zooms over (as NormalPath spells it), the parsed stage
/// expressions (kept so the pipeline can be rebuilt after a restart), and
/// the canonicalized CREATE VIEW statement — the form persisted to the
/// views file and the identity under which the definition survives
/// restarts.
struct ViewDefinition {
  std::string name;
  std::string source;
  std::vector<tql::Expr> stages;
  std::string canonical;
};

/// One immutable published state of a materialized view. Readers grab the
/// current snapshot with one pointer copy and keep using it while the
/// maintainer publishes successors; nothing here mutates after publish.
struct ViewSnapshot {
  ViewSnapshot(dataflow::ExecutionContext* ctx, Representation rep,
               ViewContent content_in)
      : content(std::move(content_in)),
        published_(std::make_shared<Published>(ctx, rep)) {}

  /// Monotonically increasing per view (starts at 1, bumps on every
  /// applied source epoch — including no-op epochs, so cache keys built
  /// from the version always reflect "refreshed through epoch N").
  uint64_t version = 0;
  /// The source epoch this snapshot has applied (views are never ahead of
  /// their source, never more than one refresh behind).
  uint64_t source_epoch = 0;
  /// The source ingest watermark the snapshot reflects: max event time
  /// folded into `content`. The next refresh cuts strictly after this.
  TimePoint watermark = std::numeric_limits<TimePoint>::min();
  /// The view's coalesced VE content, per entity — the splice input for
  /// the next incremental apply (VE is the only representation a splice
  /// can cut positionally). Always coalesced (canonical), so a view
  /// rebuilt from scratch after a restart renders byte-identically.
  ViewContent content;
  /// Lifetime counters, carried forward across snapshots. A delta applied
  /// by counting counts in both `applied_deltas` and `counted_deltas`.
  uint64_t applied_deltas = 0;
  uint64_t counted_deltas = 0;
  uint64_t full_rebuilds = 0;
  /// Why the most recent full rebuild happened ("" until the first one).
  std::string last_fallback;
  /// Why deltas are not applied by counting ("" while they are): a
  /// CountingFallback reason, or "non-integer-value" once a SUM/AVG input
  /// could not be counted.
  std::string not_counted;
  /// Deliberately version-free rendering of `VIEW <name>` (header +
  /// content hash), so results converge across restarts and across the
  /// incremental/full-recompute paths.
  std::string rendered;
  /// When this snapshot was published (unix micros) — staleness metric
  /// input and SHOW VIEWS display.
  int64_t refreshed_unix_us = 0;

  /// The zoomed graph in the pipeline's final representation: `content`
  /// converted on first use and cached. Copies of a snapshot share it, as
  /// they share the content.
  Result<TGraph> Graph() const;

 private:
  struct Published {
    Published(dataflow::ExecutionContext* ctx_in, Representation rep_in)
        : ctx(ctx_in), rep(rep_in) {}
    dataflow::ExecutionContext* ctx;
    Representation rep;
    std::once_flag once;
    Result<TGraph> graph = Status::Internal("view graph not materialized");
  };
  std::shared_ptr<Published> published_;
};

/// \brief A registered view plus its maintenance state machine.
///
/// Refresh() is the single writer (serialized by a per-view mutex); it
/// reads the source's current LiveSnapshot and applies the new epoch by
/// counting (GroupCounts, for aZoom views that qualify), by an
/// incremental cut-and-splice (incremental::PlanDelta), or by a full
/// recompute, and publishes the result as a new immutable ViewSnapshot
/// by swapping one pointer. Readers never wait for a refresh: Current()
/// copies that pointer under a mutex held only for the copy.
class MaterializedView {
 public:
  struct Options {
    /// Forwarded to incremental::PlanDelta: deltas whose recomputed
    /// suffix spans more than this fraction of the source lifetime fall
    /// back to a full recompute. A counted delta recomputes no suffix, so
    /// only 0 (recompute every epoch) turns counting off.
    double max_suffix_fraction = 0.75;
    /// Invoked (outside all locks) after a full rebuild that *replaced*
    /// existing state, i.e. whenever previously served results may have
    /// been recomputed. tgraphd hooks result-cache eviction here.
    std::function<void(const std::string& name, const std::string& reason)>
        on_fallback;
  };

  /// Optimizes `pipeline` once (the source is VE, so the default hints
  /// hold); rebuilds, the delta planner and representation() all use it.
  MaterializedView(dataflow::ExecutionContext* ctx, ViewDefinition definition,
                   Pipeline pipeline, Options options);

  const ViewDefinition& definition() const { return definition_; }

  /// The representation the view publishes (last CONVERT target of the
  /// optimized chain, else VE — the source always materializes as VE).
  Representation representation() const { return final_rep_; }

  /// The latest published snapshot; nullptr until the first successful
  /// Refresh.
  std::shared_ptr<const ViewSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  /// Brings the view up to `live`'s current epoch. No-op when already
  /// there. `published_unix_us` is when the triggering epoch was
  /// published (drives the staleness histogram); pass the current time
  /// for query-triggered refreshes.
  Status Refresh(ingest::LiveGraph* live, int64_t published_unix_us);

 private:
  /// Builds an unpublished snapshot around `content` and renders it. The
  /// caller fills counters/version/epoch before publishing.
  std::shared_ptr<ViewSnapshot> MakeSnapshot(ViewContent content) const;
  Result<std::shared_ptr<ViewSnapshot>> FullRebuild(
      const TGraph& source, const ViewSnapshot* prev,
      const std::string& reason) const;
  Result<std::shared_ptr<ViewSnapshot>> ApplyDelta(
      const TGraph& source, const ViewSnapshot& prev, TimePoint cut) const;

  dataflow::ExecutionContext* ctx_;
  const ViewDefinition definition_;
  const Pipeline pipeline_;
  const Representation final_rep_;
  const Options options_;

  /// Serializes Refresh (epoch listener threads, compactor, and
  /// query-triggered refreshes can race); never held by readers.
  std::mutex apply_mu_;
  /// The counting state while deltas are counted (guarded by apply_mu_):
  /// built by the first refresh, dropped for good when a value cannot be
  /// counted.
  std::optional<GroupCounts> counts_;
  /// Why counts_ is empty (guarded by apply_mu_): CountingFallback's
  /// reason, "max-suffix-fraction-0", or "non-integer-value".
  std::string not_counted_;
  /// Guards only the current_ pointer (see LiveGraph::snapshot_mu_ for
  /// why not std::atomic<std::shared_ptr>).
  mutable std::mutex current_mu_;
  std::shared_ptr<const ViewSnapshot> current_;  // guarded by current_mu_
};

}  // namespace tgraph::views

#endif  // TGRAPH_VIEWS_VIEW_H_
