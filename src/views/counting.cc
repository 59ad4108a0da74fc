#include "views/counting.h"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <variant>

#include "obs/trace.h"
#include "tgraph/azoom.h"

namespace tgraph::views {

namespace {

/// Largest SUM/AVG input magnitude counted: up to 2^22 members of this
/// size keep a double-precision sum exact, as a recompute's AVG needs.
constexpr int64_t kMaxCounted = int64_t{1} << 31;
constexpr TimePoint kEndOfTime = std::numeric_limits<TimePoint>::max();

const AZoomSpec& SpecOf(const Pipeline& pipeline) {
  return std::get<Pipeline::AZoomStep>(pipeline.steps().front()).spec;
}

bool SameEdge(const ingest::FoldedState::EdgeHistory& a,
              const ingest::FoldedState::EdgeHistory& b) {
  return a.src == b.src && a.dst == b.dst && a.states == b.states;
}

/// Drops the keys from the one at or before `from` on that repeat their
/// predecessor's totals (or all-zero totals, for a first key).
void Normalize(std::map<TimePoint, std::vector<int64_t>>* steps,
               TimePoint from) {
  auto it = steps->upper_bound(from);
  if (it != steps->begin()) --it;
  while (it != steps->end()) {
    const bool redundant =
        it == steps->begin()
            ? std::all_of(it->second.begin(), it->second.end(),
                          [](int64_t v) { return v == 0; })
            : std::prev(it)->second == it->second;
    it = redundant ? steps->erase(it) : std::next(it);
  }
}

}  // namespace

std::string CountingFallback(const Pipeline& pipeline) {
  const std::vector<Pipeline::Step>& steps = pipeline.steps();
  for (const Pipeline::Step& step : steps) {
    if (std::holds_alternative<Pipeline::SliceStep>(step) ||
        std::holds_alternative<Pipeline::WZoomStep>(step)) {
      return "slice-or-wzoom";
    }
  }
  if (steps.empty() ||
      !std::holds_alternative<Pipeline::AZoomStep>(steps.front())) {
    return "not-one-azoom";
  }
  for (size_t i = 1; i < steps.size(); ++i) {
    if (std::holds_alternative<Pipeline::AZoomStep>(steps[i])) {
      return "not-one-azoom";
    }
    const auto* convert = std::get_if<Pipeline::ConvertStep>(&steps[i]);
    if (convert != nullptr && convert->target == Representation::kOgc) {
      return "convert-to-ogc";
    }
  }
  const VertexAggregator& aggregator = SpecOf(pipeline).aggregator;
  if (aggregator.aggregates.empty()) return "hand-built-aggregator";
  for (const AggregateSpec& agg : aggregator.aggregates) {
    if (agg.kind == AggKind::kMin || agg.kind == AggKind::kMax) {
      return "min-max-aggregate";
    }
  }
  // Counting writes each output once; MakeAggregator's functions resolve
  // a clash by merge order, which totals do not keep.
  std::set<std::string> names = {kTypeProperty, aggregator.group_property};
  for (const AggregateSpec& agg : aggregator.aggregates) {
    if (!names.insert(agg.output_property).second ||
        agg.output_property.rfind("__avg_", 0) == 0) {
      return "aggregate-name-clash";
    }
  }
  return "";
}

std::optional<GroupCounts> GroupCounts::Build(
    const Pipeline& pipeline,
    std::shared_ptr<const ingest::FoldedState> state,
    std::string* fallback) {
  obs::Span span("views.count_build", "views");
  GroupCounts counts(SpecOf(pipeline), state);
  // Per group, the change of the totals at each state boundary; a prefix
  // sum turns it into the step function.
  std::map<VertexId, std::pair<GroupKey, Steps>> deltas;
  bool countable = true;
  std::vector<Contribution> contributions;
  state->vertices().ForEach([&](VertexId vid, const auto& states) {
    contributions.clear();
    if (!countable || !counts.Contributions(
                          vid, *states, std::numeric_limits<TimePoint>::min(),
                          &contributions)) {
      countable = false;
      return;
    }
    for (const Contribution& c : contributions) {
      auto& [key, group] = deltas[c.group];
      key = c.key;
      for (const auto& [at, sign] :
           {std::pair{c.interval.start, 1}, std::pair{c.interval.end, -1}}) {
        std::vector<int64_t>& delta = group[at];
        delta.resize(c.totals.size());
        for (size_t k = 0; k < delta.size(); ++k) {
          delta[k] += sign * c.totals[k];
        }
      }
    }
  });
  if (!countable) {
    *fallback = "non-integer-value";
    return std::nullopt;
  }
  for (auto& [id, key_deltas] : deltas) {
    Group& group = counts.groups_[id];
    group.key = std::move(key_deltas.first);
    std::vector<int64_t> running;
    for (const auto& [at, delta] : key_deltas.second) {
      running.resize(delta.size());
      for (size_t k = 0; k < delta.size(); ++k) running[k] += delta[k];
      group.steps.emplace_hint(group.steps.end(), at, running);
    }
    Normalize(&group.steps, std::numeric_limits<TimePoint>::min());
  }
  return counts;
}

bool GroupCounts::Contributions(VertexId vid, const History& states,
                                TimePoint from,
                                std::vector<Contribution>* out) const {
  const std::vector<AggregateSpec>& aggregates = spec_.aggregator.aggregates;
  for (const HistoryItem& item : states) {
    const Interval clipped =
        item.interval.Intersect(Interval(from, kEndOfTime));
    if (clipped.empty()) continue;
    std::optional<GroupKey> key = spec_.group_of(vid, item.properties);
    if (!key.has_value()) continue;
    Contribution c{spec_.skolem(*key), *key, clipped,
                   std::vector<int64_t>(1 + 2 * aggregates.size())};
    c.totals[0] = 1;
    for (size_t i = 0; i < aggregates.size(); ++i) {
      if (aggregates[i].kind == AggKind::kCount) continue;
      const PropertyValue* value =
          item.properties.Find(aggregates[i].input_property);
      if (value == nullptr) continue;
      if (!value->is_int() || value->AsInt() > kMaxCounted ||
          value->AsInt() < -kMaxCounted) {
        return false;
      }
      c.totals[1 + 2 * i] = 1;
      c.totals[2 + 2 * i] = value->AsInt();
    }
    out->push_back(std::move(c));
  }
  return true;
}

void GroupCounts::Add(const Contribution& c, int64_t sign) {
  auto [it, created] = groups_.try_emplace(c.group);
  if (created) it->second.key = c.key;
  Steps& steps = it->second.steps;
  // A key at `t` carrying the totals that held just before it.
  auto split = [&](TimePoint t) {
    auto at = steps.lower_bound(t);
    if (at != steps.end() && at->first == t) return at;
    std::vector<int64_t> totals = at == steps.begin()
                                      ? std::vector<int64_t>(c.totals.size())
                                      : std::prev(at)->second;
    return steps.emplace_hint(at, t, std::move(totals));
  };
  auto first = split(c.interval.start);
  split(c.interval.end);
  for (auto step = first; step->first < c.interval.end; ++step) {
    for (size_t k = 0; k < c.totals.size(); ++k) {
      step->second[k] += sign * c.totals[k];
    }
  }
}

void GroupCounts::Rows(VertexId id, const Group& group, TimePoint cut,
                       std::vector<VeVertex>* out) const {
  const VertexAggregator& aggregator = spec_.aggregator;
  auto it = group.steps.upper_bound(cut);
  if (it != group.steps.begin()) --it;
  for (; it != group.steps.end() && std::next(it) != group.steps.end();
       ++it) {
    const std::vector<int64_t>& totals = it->second;
    const Interval segment(std::max(it->first, cut), std::next(it)->first);
    if (totals[0] == 0 || segment.empty()) continue;
    // The properties MakeAggregator's init/merge/finalize produce.
    Properties props;
    props.Set(kTypeProperty, aggregator.new_type);
    if (!aggregator.group_property.empty()) {
      props.Set(aggregator.group_property, group.key);
    }
    for (size_t i = 0; i < aggregator.aggregates.size(); ++i) {
      const AggregateSpec& agg = aggregator.aggregates[i];
      const int64_t present = totals[1 + 2 * i];
      const int64_t sum = totals[2 + 2 * i];
      if (agg.kind == AggKind::kCount) {
        props.Set(agg.output_property, PropertyValue(totals[0]));
      } else if (present == 0) {
        continue;
      } else if (agg.kind == AggKind::kSum) {
        props.Set(agg.output_property, PropertyValue(sum));
      } else {
        props.Set(agg.output_property,
                  PropertyValue(static_cast<double>(sum) /
                                static_cast<double>(present)));
      }
    }
    out->push_back(VeVertex{id, segment, std::move(props)});
  }
}

namespace {

/// The aZoom output edges of `edges` in `state` from `cut` on: AZoomVe
/// over just those edges and their endpoints, clipped to the cut.
std::vector<VeEdge> RedirectEdges(dataflow::ExecutionContext* ctx,
                                  const AZoomSpec& spec,
                                  const ingest::FoldedState& state,
                                  const std::set<EdgeId>& edges,
                                  TimePoint cut) {
  const Interval after(cut, kEndOfTime);
  std::vector<VeEdge> edge_rows;
  std::set<VertexId> ends;
  for (EdgeId eid : edges) {
    const auto* edge = state.edges().Find(eid);
    if (edge == nullptr) continue;
    for (const HistoryItem& item : (*edge)->states) {
      const Interval clipped = item.interval.Intersect(after);
      if (clipped.empty()) continue;
      edge_rows.push_back(VeEdge{eid, (*edge)->src, (*edge)->dst, clipped,
                                 item.properties});
      ends.insert((*edge)->src);
      ends.insert((*edge)->dst);
    }
  }
  if (edge_rows.empty()) return {};
  std::vector<VeVertex> vertex_rows;
  for (VertexId vid : ends) {
    const auto* states = state.vertices().Find(vid);
    if (states == nullptr) continue;
    for (const HistoryItem& item : **states) {
      const Interval clipped = item.interval.Intersect(after);
      if (clipped.empty()) continue;
      vertex_rows.push_back(VeVertex{vid, clipped, item.properties});
    }
  }
  VeGraph sub = VeGraph::Create(ctx, std::move(vertex_rows),
                                std::move(edge_rows));
  return AZoomVe(sub, spec).edges().Collect();
}

}  // namespace

std::optional<ViewContent> GroupCounts::Apply(
    dataflow::ExecutionContext* ctx, const ViewContent& prev,
    std::shared_ptr<const ingest::FoldedState> next, TimePoint cut,
    Interval lifetime, std::string* fallback) {
  obs::Span span("views.count", "views");
  // Vertices: gather every old and new contribution after the cut before
  // touching a total, so an uncountable value leaves the counts as they
  // were.
  std::vector<Contribution> retract;
  std::vector<Contribution> add;
  std::vector<VertexId> regrouped;
  bool countable = true;
  // The (group, interval) periods of cs[from..] with adjacent equal
  // groups joined: what the redirection of a vertex's edges depends on.
  auto periods = [](const std::vector<Contribution>& cs, size_t from) {
    std::vector<std::pair<VertexId, Interval>> out;
    for (size_t i = from; i < cs.size(); ++i) {
      if (!out.empty() && out.back().first == cs[i].group &&
          out.back().second.end == cs[i].interval.start) {
        out.back().second.end = cs[i].interval.end;
      } else {
        out.emplace_back(cs[i].group, cs[i].interval);
      }
    }
    return out;
  };
  state_->vertices().Diff(
      next->vertices(),
      [&](VertexId vid, const auto* before, const auto* after) {
        if (!countable) return;
        if (before != nullptr && after != nullptr && **before == **after) {
          return;  // refolded (an edge's endpoint) but unchanged
        }
        const size_t retract_from = retract.size();
        const size_t add_from = add.size();
        if (before != nullptr) {
          Contributions(vid, **before, cut, &retract);
        }
        if (after != nullptr && !Contributions(vid, **after, cut, &add)) {
          countable = false;
          return;
        }
        if (periods(retract, retract_from) != periods(add, add_from)) {
          regrouped.push_back(vid);
        }
      });
  if (!countable) {
    *fallback = "non-integer-value";
    return std::nullopt;
  }
  std::set<VertexId> touched;
  for (const Contribution& c : retract) {
    Add(c, -1);
    touched.insert(c.group);
  }
  for (const Contribution& c : add) {
    Add(c, 1);
    touched.insert(c.group);
  }
  std::vector<VeVertex> vertex_rows;
  const std::vector<VertexId> vertex_scope(touched.begin(), touched.end());
  for (VertexId id : vertex_scope) {
    auto group = groups_.find(id);
    Normalize(&group->second.steps, cut);
    Rows(id, group->second, cut, &vertex_rows);
    if (group->second.steps.empty()) groups_.erase(group);
  }

  // Edges: the ones that changed, and the alive ones at a vertex whose
  // group changed after the cut.
  std::set<EdgeId> edges;
  state_->edges().Diff(next->edges(), [&](EdgeId eid, const auto* before,
                                          const auto* after) {
    if (before == nullptr || after == nullptr || !SameEdge(**before, **after)) {
      edges.insert(eid);
    }
  });
  for (VertexId vid : regrouped) {
    next->alive_edges().ForEachFrom(
        ingest::FoldedState::Incidence{vid,
                                       std::numeric_limits<EdgeId>::min()},
        [&](const ingest::FoldedState::Incidence& incidence, std::monostate) {
          if (incidence.first != vid) return false;
          edges.insert(incidence.second);
          return true;
        });
  }
  std::vector<VeEdge> edge_rows;
  std::vector<EdgeId> edge_scope;
  if (!edges.empty()) {
    obs::Span redirect_span("views.count_edges", "views");
    // The outputs the old states produced past the cut go, whatever ids
    // the new ones take.
    for (const VeEdge& row : RedirectEdges(ctx, spec_, *state_, edges, cut)) {
      edge_scope.push_back(row.eid);
    }
    edge_rows = RedirectEdges(ctx, spec_, *next, edges, cut);
  }
  state_ = std::move(next);
  return prev.Splice(std::move(vertex_rows), vertex_scope,
                     std::move(edge_rows), edge_scope, cut, lifetime);
}

}  // namespace tgraph::views
