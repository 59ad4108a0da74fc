#include "tgraph/azoom.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/hash.h"
#include "obs/trace.h"

namespace tgraph {

using dataflow::Dataset;

EdgeId RedirectedEdgeId(EdgeId eid, VertexId new_src, VertexId new_dst) {
  uint64_t h = Mix64(static_cast<uint64_t>(eid));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(new_src)));
  h = HashCombine(h, Mix64(static_cast<uint64_t>(new_dst)));
  return static_cast<EdgeId>(h & 0x7fffffffffffffffULL);
}

namespace {

// A vertex state mapped to its group: seeded output properties plus the
// originating validity interval.
struct SeededState {
  Interval interval;
  Properties properties;
};

// Applies the finalize pass if the aggregator defines one.
Properties Finalize(const VertexAggregator& aggregator, Properties props) {
  if (aggregator.finalize) return aggregator.finalize(props);
  return props;
}

// Aggregates many seeded states of one output vertex into a coalesced
// history: splits at all state boundaries, merges overlapping states with
// the aggregator's merge, finalizes each elementary segment.
History AggregateSeededStates(std::vector<SeededState> states,
                              const AZoomSpec& spec) {
  std::set<TimePoint> boundaries;
  for (const SeededState& s : states) {
    boundaries.insert(s.interval.start);
    boundaries.insert(s.interval.end);
  }
  if (boundaries.size() < 2) return {};
  std::vector<TimePoint> points(boundaries.begin(), boundaries.end());

  // Sort states by start so each elementary segment scans a narrow range.
  std::sort(states.begin(), states.end(),
            [](const SeededState& a, const SeededState& b) {
              return a.interval.start < b.interval.start;
            });
  History result;
  size_t first_candidate = 0;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    Interval segment(points[i], points[i + 1]);
    // Advance past states that end at or before this segment. States are
    // sorted by start, not end, so this is a heuristic skip; correctness
    // comes from the overlap test below.
    while (first_candidate < states.size() &&
           states[first_candidate].interval.end <= segment.start &&
           states[first_candidate].interval.start <= segment.start) {
      ++first_candidate;
    }
    bool seeded = false;
    Properties merged;
    for (size_t s = first_candidate; s < states.size(); ++s) {
      if (states[s].interval.start >= segment.end) break;
      if (!states[s].interval.Overlaps(segment)) continue;
      if (!seeded) {
        merged = states[s].properties;
        seeded = true;
      } else {
        merged = spec.aggregator.merge(std::move(merged), states[s].properties);
      }
    }
    if (seeded) {
      result.push_back(
          HistoryItem{segment, Finalize(spec.aggregator, std::move(merged))});
    }
  }
  return CoalesceHistory(std::move(result));
}

// (interval as a hashable pair) — shuffle key component for VE aggregation.
std::pair<TimePoint, TimePoint> IntervalKey(const Interval& i) {
  return {i.start, i.end};
}

}  // namespace

// ---------------------------------------------------------------------------
// VE (Algorithm 2)
// ---------------------------------------------------------------------------

VeGraph AZoomVe(const VeGraph& graph, const AZoomSpec& spec) {
  TG_SPAN("azoom.ve", "zoom");
  const GroupFn& group_of = spec.group_of;
  const SkolemFn& skolem = spec.skolem;
  auto init = spec.aggregator.init;

  // Vertex states mapped to their output vertex id, with seeded properties,
  // routed by that id once: the splitters, the join with them and the
  // per-interval aggregation below all run partition-local.
  struct MappedState {
    Interval interval;
    Properties seeded;
  };
  auto mapped =
      graph.vertices()
          .FlatMap<std::pair<VertexId, MappedState>>(
              [group_of, skolem, init](
                  const VeVertex& v,
                  std::vector<std::pair<VertexId, MappedState>>* out) {
                std::optional<GroupKey> group = group_of(v.vid, v.properties);
                if (!group.has_value()) return;
                out->emplace_back(
                    skolem(*group),
                    MappedState{v.interval, init(*group, v.vid, v.properties)});
              })
          .PartitionByKey()
          .Cache();

  // Non-overlapping splitter intervals per output vertex (lines 1-5).
  auto splitters =
      mapped.MapValues([](const MappedState& state) { return state.interval; })
          .AggregateByKey<std::vector<Interval>>(
              {},
              [](std::vector<Interval>* acc, const Interval& i) {
                acc->push_back(i);
              },
              [](std::vector<Interval>* acc, std::vector<Interval>&& other) {
                acc->insert(acc->end(), other.begin(), other.end());
              })
          .MapValues([](const std::vector<Interval>& intervals) {
            return SplitIntervals(intervals);
          });

  // Join states with their group's splitters, split, aggregate per
  // (output id, elementary interval) (lines 6-12). The split key routes by
  // the output id, so the pieces stay in their partition.
  using SplitKey =
      dataflow::PrefixKey<VertexId, std::pair<TimePoint, TimePoint>>;
  auto merge = spec.aggregator.merge;
  auto aggregator = spec.aggregator;
  auto zoomed_vertices =
      mapped.Join<std::vector<Interval>>(splitters)
          .FlatMap<std::pair<SplitKey, Properties>>(
              [](const std::pair<VertexId, std::pair<MappedState,
                                                     std::vector<Interval>>>& kv,
                 std::vector<std::pair<SplitKey, Properties>>* out) {
                const MappedState& state = kv.second.first;
                for (const Interval& piece : kv.second.second) {
                  if (piece.Overlaps(state.interval)) {
                    out->emplace_back(SplitKey{kv.first, IntervalKey(piece)},
                                      state.seeded);
                  }
                }
              },
              dataflow::kPreservesPartitioning)
          .ReduceByKey([merge](Properties a, const Properties& b) {
            return merge(std::move(a), b);
          })
          .Map(
              [aggregator](const std::pair<SplitKey, Properties>& kv) {
                return VeVertex{
                    kv.first.prefix,
                    Interval(kv.first.rest.first, kv.first.rest.second),
                    Finalize(aggregator, kv.second)};
              },
              dataflow::kPreservesPartitioning);

  // Edge redirection (lines 13-18): two temporal joins against the vertex
  // relation, intersecting validity and applying the Skolem function. The
  // group periods are routed by vid once, so each join moves only edges.
  struct GroupPeriod {
    Interval interval;
    VertexId new_vid;
  };
  auto group_periods =
      graph.vertices()
          .FlatMap<std::pair<VertexId, GroupPeriod>>(
              [group_of, skolem](
                  const VeVertex& v,
                  std::vector<std::pair<VertexId, GroupPeriod>>* out) {
                std::optional<GroupKey> group = group_of(v.vid, v.properties);
                if (!group.has_value()) return;
                out->emplace_back(v.vid,
                                  GroupPeriod{v.interval, skolem(*group)});
              })
          .PartitionByKey()
          .Cache();

  struct EdgePartial {
    EdgeId eid;
    VertexId dst;
    Interval interval;
    Properties properties;
    VertexId new_src;
  };
  std::string edge_type = spec.edge_type;
  auto by_src = graph.edges().Map([](const VeEdge& e) {
    return std::pair<VertexId, VeEdge>(e.src, e);
  });
  auto with_src =
      by_src.Join<GroupPeriod>(group_periods)
          .FlatMap<std::pair<VertexId, EdgePartial>>(
              [](const std::pair<VertexId, std::pair<VeEdge, GroupPeriod>>& kv,
                 std::vector<std::pair<VertexId, EdgePartial>>* out) {
                const VeEdge& e = kv.second.first;
                const GroupPeriod& src_period = kv.second.second;
                Interval overlap = e.interval.Intersect(src_period.interval);
                if (overlap.empty()) return;
                out->emplace_back(
                    e.dst, EdgePartial{e.eid, e.dst, overlap, e.properties,
                                       src_period.new_vid});
              });
  auto zoomed_edges =
      with_src.Join<GroupPeriod>(group_periods)
          .FlatMap<VeEdge>(
              [edge_type](
                  const std::pair<VertexId,
                                  std::pair<EdgePartial, GroupPeriod>>& kv,
                 std::vector<VeEdge>* out) {
                const EdgePartial& partial = kv.second.first;
                const GroupPeriod& dst_period = kv.second.second;
                Interval overlap =
                    partial.interval.Intersect(dst_period.interval);
                if (overlap.empty()) return;
                Properties props = partial.properties;
                if (!edge_type.empty()) props.Set(kTypeProperty, edge_type);
                out->push_back(VeEdge{
                    RedirectedEdgeId(partial.eid, partial.new_src,
                                     dst_period.new_vid),
                    partial.new_src, dst_period.new_vid, overlap,
                    std::move(props)});
              });

  return VeGraph(zoomed_vertices, zoomed_edges, graph.lifetime());
}

// ---------------------------------------------------------------------------
// OG (Algorithm 3)
// ---------------------------------------------------------------------------

namespace {

// The periods during which a vertex belongs to each group, derived from its
// history: (new id, interval, seeded properties) per state with a defined
// group. The seed is this one vertex's finalized contribution — not the
// group's global aggregate, which would require the join the OG algorithm
// exists to avoid — and becomes the embedded endpoint copy's state, so a
// chained aZoom can still resolve group_of on redirected edges (properties
// seeded from the group key itself agree with the global aggregate).
struct OgGroupPeriod {
  Interval interval;
  VertexId new_vid;
  Properties seeded;
};

std::vector<OgGroupPeriod> GroupPeriodsOf(const OgVertex& v,
                                          const AZoomSpec& spec) {
  std::vector<OgGroupPeriod> periods;
  for (const HistoryItem& item : v.history) {
    std::optional<GroupKey> group = spec.group_of(v.vid, item.properties);
    if (!group.has_value()) continue;
    periods.push_back(OgGroupPeriod{
        item.interval, spec.skolem(*group),
        Finalize(spec.aggregator,
                 spec.aggregator.init(*group, v.vid, item.properties))});
  }
  return periods;
}

}  // namespace

OgGraph AZoomOg(const OgGraph& graph, const AZoomSpec& spec) {
  TG_SPAN("azoom.og", "zoom");
  const GroupFn& group_of = spec.group_of;
  const SkolemFn& skolem = spec.skolem;
  auto init = spec.aggregator.init;
  AZoomSpec spec_copy = spec;

  // Lines 1-5: split each vertex along its history, seed, group by the new
  // id, and aggregate with temporal alignment.
  auto zoomed_vertices =
      graph.vertices()
          .FlatMap<std::pair<VertexId, SeededState>>(
              [group_of, skolem, init](
                  const OgVertex& v,
                  std::vector<std::pair<VertexId, SeededState>>* out) {
                for (const HistoryItem& item : v.history) {
                  std::optional<GroupKey> group =
                      group_of(v.vid, item.properties);
                  if (!group.has_value()) continue;
                  out->emplace_back(
                      skolem(*group),
                      SeededState{item.interval,
                                  init(*group, v.vid, item.properties)});
                }
              })
          .AggregateByKey<std::vector<SeededState>>(
              {},
              [](std::vector<SeededState>* acc, const SeededState& s) {
                acc->push_back(s);
              },
              [](std::vector<SeededState>* acc,
                 std::vector<SeededState>&& other) {
                acc->insert(acc->end(),
                            std::make_move_iterator(other.begin()),
                            std::make_move_iterator(other.end()));
              })
          .FlatMap<OgVertex>(
              [spec_copy](const std::pair<VertexId, std::vector<SeededState>>& kv,
                          std::vector<OgVertex>* out) {
                History history = AggregateSeededStates(kv.second, spec_copy);
                if (history.empty()) return;
                out->push_back(OgVertex{kv.first, std::move(history)});
              });

  // Lines 6-9: edge redirection without a join — each OG edge embeds copies
  // of its endpoints, so their group periods are computed locally. One
  // output edge is emitted per distinct (new src, new dst) pair.
  std::string edge_type = spec.edge_type;
  auto zoomed_edges = graph.edges().FlatMap<OgEdge>(
      [spec_copy, edge_type](const OgEdge& e, std::vector<OgEdge>* out) {
        std::vector<OgGroupPeriod> src_periods =
            GroupPeriodsOf(e.v1, spec_copy);
        std::vector<OgGroupPeriod> dst_periods =
            GroupPeriodsOf(e.v2, spec_copy);
        if (src_periods.empty() || dst_periods.empty()) return;
        // (new src, new dst) -> history pieces where edge and both group
        // periods are simultaneously valid, plus the endpoint-copy states
        // for the same spans.
        struct Pieces {
          History edge, src, dst;
        };
        std::map<std::pair<VertexId, VertexId>, Pieces> pieces;
        for (const HistoryItem& item : e.history) {
          for (const OgGroupPeriod& sp : src_periods) {
            Interval a = item.interval.Intersect(sp.interval);
            if (a.empty()) continue;
            for (const OgGroupPeriod& dp : dst_periods) {
              Interval overlap = a.Intersect(dp.interval);
              if (overlap.empty()) continue;
              Properties props = item.properties;
              if (!edge_type.empty()) props.Set(kTypeProperty, edge_type);
              Pieces& p = pieces[{sp.new_vid, dp.new_vid}];
              p.edge.push_back(HistoryItem{overlap, std::move(props)});
              p.src.push_back(HistoryItem{overlap, sp.seeded});
              p.dst.push_back(HistoryItem{overlap, dp.seeded});
            }
          }
        }
        for (auto& [endpoints, p] : pieces) {
          // Endpoint copies carry the locally seeded group state (see
          // OgGroupPeriod): enough for a chained aZoom to redirect this
          // edge again, without the join the algorithm avoids.
          out->push_back(
              OgEdge{RedirectedEdgeId(e.eid, endpoints.first, endpoints.second),
                     OgVertex{endpoints.first, CoalesceHistory(std::move(p.src))},
                     OgVertex{endpoints.second, CoalesceHistory(std::move(p.dst))},
                     CoalesceHistory(std::move(p.edge))});
        }
      });

  // Same-id edges produced by different input edges coalesce at the graph
  // level only through the facade's lazy coalescing; per the paper, aZoom^T
  // output is left uncoalesced.
  return OgGraph(zoomed_vertices, zoomed_edges, graph.lifetime());
}

// ---------------------------------------------------------------------------
// RG (Algorithm 1)
// ---------------------------------------------------------------------------

RgGraph AZoomRg(const RgGraph& graph, const AZoomSpec& spec) {
  TG_SPAN("azoom.rg", "zoom");
  const GroupFn& group_of = spec.group_of;
  const SkolemFn& skolem = spec.skolem;
  auto init = spec.aggregator.init;
  auto merge = spec.aggregator.merge;
  auto aggregator = spec.aggregator;
  std::string edge_type = spec.edge_type;

  std::vector<sg::PropertyGraph> zoomed;
  zoomed.reserve(graph.snapshots().size());
  for (const sg::PropertyGraph& snapshot : graph.snapshots()) {
    // Lines 4-8: Skolem mapping + aggregation for identity-equivalence.
    auto vertices =
        snapshot.vertices()
            .FlatMap<std::pair<VertexId, Properties>>(
                [group_of, skolem, init](
                    const sg::Vertex& v,
                    std::vector<std::pair<VertexId, Properties>>* out) {
                  std::optional<GroupKey> group = group_of(v.vid, v.properties);
                  if (!group.has_value()) return;
                  out->emplace_back(skolem(*group),
                                    init(*group, v.vid, v.properties));
                })
            .ReduceByKey([merge](Properties a, const Properties& b) {
              return merge(std::move(a), b);
            })
            .Map([aggregator](const std::pair<VertexId, Properties>& kv) {
              return sg::Vertex{kv.first, Finalize(aggregator, kv.second)};
            });
    // Line 9: edge redirection. RG edges carry their endpoint properties
    // via the snapshot's triplet view (GraphX-style), so the Skolem
    // function is applied directly to the triplet.
    auto edges = snapshot.Triplets().FlatMap<sg::Edge>(
        [group_of, skolem, edge_type](const sg::Triplet& t,
                                      std::vector<sg::Edge>* out) {
          std::optional<GroupKey> src_group =
              group_of(t.edge.src, t.src_properties);
          std::optional<GroupKey> dst_group =
              group_of(t.edge.dst, t.dst_properties);
          if (!src_group.has_value() || !dst_group.has_value()) return;
          VertexId new_src = skolem(*src_group);
          VertexId new_dst = skolem(*dst_group);
          Properties props = t.edge.properties;
          if (!edge_type.empty()) props.Set(kTypeProperty, edge_type);
          out->push_back(sg::Edge{RedirectedEdgeId(t.edge.eid, new_src, new_dst),
                                  new_src, new_dst, std::move(props)});
        });
    zoomed.push_back(sg::PropertyGraph(vertices, edges));
  }
  return RgGraph(graph.context(), graph.intervals(), std::move(zoomed),
                 graph.lifetime());
}

}  // namespace tgraph
