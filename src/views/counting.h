#ifndef TGRAPH_VIEWS_COUNTING_H_
#define TGRAPH_VIEWS_COUNTING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ingest/live_graph.h"
#include "tgraph/pipeline.h"
#include "tgraph/zoom_spec.h"
#include "views/content.h"

namespace tgraph::views {

/// Why a view over `pipeline` cannot be maintained by counting, or "" when
/// it can: its chain is one AZOOM followed only by COALESCE or CONVERT
/// (not to OGC, which keeps only types), and its aggregator came from
/// MakeAggregator with COUNT, SUM and AVG aggregates only. Reasons:
/// "slice-or-wzoom", "not-one-azoom", "convert-to-ogc",
/// "hand-built-aggregator", "min-max-aggregate", "aggregate-name-clash".
std::string CountingFallback(const Pipeline& pipeline);

/// \brief The counting state of an aZoom view (Gupta, Mumick and
/// Subrahmanian's counting algorithm, instant by instant).
///
/// A group's COUNT, SUM and AVG at time t sum over the members alive at
/// t, so per group key this keeps a step function of per-aggregate
/// (members, present, integer sum) totals, and the folded source state it
/// last applied. Apply() diffs a newer folded state against that one,
/// retracts each changed vertex's old states after the cut and adds its
/// new ones, re-derives the rows of the touched groups from the cut on,
/// re-redirects the edges that changed or whose endpoint changed group,
/// and splices just those entities into the view's content. The cost
/// follows the batch, not the number of alive entities.
///
/// Exactness: totals are integers, so retraction is exact and the content
/// renders byte-identically to a recompute. A SUM or AVG input that is
/// not an integer of magnitude at most 2^31 (the bound keeps a
/// recompute's double-precision AVG sum exact) cannot be counted; Build
/// and Apply then report "non-integer-value".
class GroupCounts {
 public:
  /// The step functions of every group of `state`, or nullopt (with
  /// `*fallback` set) when a contribution cannot be counted. `pipeline`
  /// must qualify (CountingFallback(pipeline) == "").
  static std::optional<GroupCounts> Build(
      const Pipeline& pipeline,
      std::shared_ptr<const ingest::FoldedState> state,
      std::string* fallback);

  /// `prev` (this view's content over the kept state) brought up to
  /// `next`, whose states differ from the kept ones only at or after
  /// `cut`; `lifetime` is `next`'s. Afterwards `next` is the kept state.
  /// Returns nullopt (with `*fallback` set, the counts unchanged) when a
  /// new contribution cannot be counted.
  std::optional<ViewContent> Apply(
      dataflow::ExecutionContext* ctx, const ViewContent& prev,
      std::shared_ptr<const ingest::FoldedState> next, TimePoint cut,
      Interval lifetime, std::string* fallback);

  /// Adopts `state` as the kept state without diffing: only for a state
  /// with the same content (a compaction-only epoch).
  void Keep(std::shared_ptr<const ingest::FoldedState> state) {
    state_ = std::move(state);
  }

 private:
  /// Totals over [key, next key): [0] members, then per aggregate
  /// (present, sum). No key before the first means all zero.
  using Steps = std::map<TimePoint, std::vector<int64_t>>;
  struct Group {
    GroupKey key;
    Steps steps;
  };
  /// One state's contribution to its group's totals over `interval`.
  struct Contribution {
    VertexId group;
    GroupKey key;
    Interval interval;
    std::vector<int64_t> totals;
  };

  GroupCounts(AZoomSpec spec, std::shared_ptr<const ingest::FoldedState> state)
      : spec_(std::move(spec)), state_(std::move(state)) {}

  /// The contributions of `states` clipped to [from, end of time), or
  /// false when one cannot be counted.
  bool Contributions(VertexId vid, const History& states, TimePoint from,
                     std::vector<Contribution>* out) const;
  /// Adds `sign` times `c` over its interval.
  void Add(const Contribution& c, int64_t sign);
  /// The rows of group `id` from `cut` on.
  void Rows(VertexId id, const Group& group, TimePoint cut,
            std::vector<VeVertex>* out) const;

  AZoomSpec spec_;
  std::shared_ptr<const ingest::FoldedState> state_;
  std::map<VertexId, Group> groups_;  // by output vertex id
};

}  // namespace tgraph::views

#endif  // TGRAPH_VIEWS_COUNTING_H_
