#include "tgraph/wzoom.h"

#include <algorithm>

#include "obs/trace.h"
#include "tgraph/coalesce.h"

namespace tgraph {

using dataflow::Dataset;

namespace {

// Window intervals indexed by window number.
std::vector<Interval> WindowIntervals(const std::vector<TemporalWindow>& windows) {
  std::vector<Interval> intervals;
  intervals.reserve(windows.size());
  for (const TemporalWindow& w : windows) intervals.push_back(w.interval);
  return intervals;
}

// Calls fn(window_number, window_interval) for every window overlapping
// `interval`. Windows are sorted and disjoint; binary search for the first.
template <typename Fn>
void ForEachOverlappingWindow(const std::vector<Interval>& windows,
                              const Interval& interval, Fn fn) {
  if (interval.empty()) return;
  auto it = std::upper_bound(
      windows.begin(), windows.end(), interval.start,
      [](TimePoint t, const Interval& w) { return t < w.end; });
  for (; it != windows.end() && it->start < interval.end; ++it) {
    fn(static_cast<int64_t>(it - windows.begin()), *it);
  }
}

// Accumulated evidence of an entity inside one window: total covered
// duration plus the contributing states (for attribute resolution).
struct WindowAcc {
  int64_t covered = 0;
  std::vector<std::pair<TimePoint, Properties>> states;
};

void FoldState(WindowAcc* acc, const Interval& overlap, TimePoint state_start,
               const Properties& props) {
  acc->covered += overlap.duration();
  acc->states.emplace_back(state_start, props);
}

void CombineAcc(WindowAcc* acc, WindowAcc&& other) {
  acc->covered += other.covered;
  acc->states.insert(acc->states.end(),
                     std::make_move_iterator(other.states.begin()),
                     std::make_move_iterator(other.states.end()));
}

// Overlap of the graph's lifetime is never used to shrink the denominator:
// the quantifier fraction is relative to the full window duration
// (Example 2.3: Cat fails nodes=all in W3=[7,10) with coverage 2/3).
double Fraction(int64_t covered, const Interval& window) {
  return static_cast<double>(covered) / static_cast<double>(window.duration());
}

// The new lifetime after zooming: the span of the window relation.
Interval ZoomedLifetime(const std::vector<Interval>& windows,
                        Interval fallback) {
  if (windows.empty()) return fallback;
  return Interval(windows.front().start, windows.back().end);
}

// Rebuilds one entity's history for window semantics: one item per window
// the entity passes the quantifier in, carrying resolved attributes.
// Histories are coalesced (sorted, disjoint), so each window's overlapping
// run is found by binary search; the dominant single-state-per-window case
// avoids both the clip allocation and the resolve pass.
History ZoomHistory(const History& history,
                    const std::vector<Interval>& windows,
                    const Quantifier& quantifier, const ResolveSpec& resolve) {
  History result;
  Interval span = HistorySpan(history);
  ForEachOverlappingWindow(
      windows, span, [&](int64_t, const Interval& window) {
        // First item whose interval ends after the window starts.
        auto first = std::upper_bound(
            history.begin(), history.end(), window.start,
            [](TimePoint t, const HistoryItem& item) {
              return t < item.interval.end;
            });
        int64_t covered = 0;
        int overlapping = 0;
        const HistoryItem* only = nullptr;
        for (auto it = first;
             it != history.end() && it->interval.start < window.end; ++it) {
          Interval overlap = it->interval.Intersect(window);
          if (overlap.empty()) continue;
          covered += overlap.duration();
          ++overlapping;
          only = &*it;
        }
        if (overlapping == 0 || !quantifier.Passes(Fraction(covered, window))) {
          return;
        }
        if (overlapping == 1) {
          result.push_back(HistoryItem{window, only->properties});
          return;
        }
        std::vector<std::pair<TimePoint, Properties>> states;
        states.reserve(static_cast<size_t>(overlapping));
        for (auto it = first;
             it != history.end() && it->interval.start < window.end; ++it) {
          if (it->interval.Overlaps(window)) {
            states.emplace_back(it->interval.start, it->properties);
          }
        }
        result.push_back(
            HistoryItem{window, ResolveProperties(std::move(states), resolve)});
      });
  return CoalesceHistory(std::move(result));
}

}  // namespace

// ---------------------------------------------------------------------------
// VE (Algorithm 5)
// ---------------------------------------------------------------------------

VeGraph WZoomVe(const VeGraph& graph, const WZoomSpec& spec) {
  TG_SPAN("wzoom.ve", "zoom");
  std::vector<TemporalWindow> generated = GenerateWindows(
      graph.lifetime(), spec.window,
      spec.window.kind == WindowSpec::Kind::kChanges ? graph.ChangePoints()
                                                     : std::vector<TimePoint>{});
  std::vector<Interval> windows = WindowIntervals(generated);
  if (windows.empty()) return graph;

  // (entity id, window number) keys route by the entity id, so relations
  // routed by id are aggregated per window where they sit.
  using VertexWindowKey = dataflow::PrefixKey<VertexId, int64_t>;
  Quantifier vq = spec.vertex_quantifier;
  Quantifier eq = spec.edge_quantifier;
  ResolveSpec vresolve = spec.vertex_resolve;
  ResolveSpec eresolve = spec.edge_resolve;

  // Vertex alignment with windows (lines 3-9): one copy per overlapped
  // window — the tuple blow-up that penalizes VE for small windows.
  auto vertex_windows =
      graph.vertices()
          .FlatMap<std::pair<VertexWindowKey, WindowAcc>>(
              [windows](const VeVertex& v,
                        std::vector<std::pair<VertexWindowKey, WindowAcc>>* out) {
                ForEachOverlappingWindow(
                    windows, v.interval, [&](int64_t d, const Interval& w) {
                      WindowAcc acc;
                      FoldState(&acc, v.interval.Intersect(w), v.interval.start,
                                v.properties);
                      out->emplace_back(VertexWindowKey{v.vid, d},
                                        std::move(acc));
                    });
              },
              dataflow::kPreservesPartitioning)
          .ReduceByKey([](WindowAcc a, WindowAcc b) {
            CombineAcc(&a, std::move(b));
            return a;
          })
          .FlatMap<std::pair<VertexWindowKey, Properties>>(
              [windows, vq, vresolve](
                  const std::pair<VertexWindowKey, WindowAcc>& kv,
                  std::vector<std::pair<VertexWindowKey, Properties>>* out) {
                const Interval& window = windows[kv.first.rest];
                if (!vq.Passes(Fraction(kv.second.covered, window))) return;
                out->emplace_back(kv.first,
                                  ResolveProperties(kv.second.states, vresolve));
              },
              dataflow::kPreservesPartitioning)
          .Cache();

  // Edge alignment (lines 10-16), carrying endpoints through the fold.
  struct EdgeWindowValue {
    VertexId src = 0;
    VertexId dst = 0;
    WindowAcc acc;
  };
  using EdgeWindowKey = dataflow::PrefixKey<EdgeId, int64_t>;
  auto edge_windows =
      graph.edges()
          .FlatMap<std::pair<EdgeWindowKey, EdgeWindowValue>>(
              [windows](const VeEdge& e,
                        std::vector<std::pair<EdgeWindowKey, EdgeWindowValue>>*
                            out) {
                ForEachOverlappingWindow(
                    windows, e.interval, [&](int64_t d, const Interval& w) {
                      EdgeWindowValue value;
                      value.src = e.src;
                      value.dst = e.dst;
                      FoldState(&value.acc, e.interval.Intersect(w),
                                e.interval.start, e.properties);
                      out->emplace_back(EdgeWindowKey{e.eid, d},
                                        std::move(value));
                    });
              },
              dataflow::kPreservesPartitioning)
          .ReduceByKey([](EdgeWindowValue a, EdgeWindowValue b) {
            CombineAcc(&a.acc, std::move(b.acc));
            return a;
          })
          .Filter(
              [windows, eq](const std::pair<EdgeWindowKey, EdgeWindowValue>& kv) {
                const Interval& window = windows[kv.first.rest];
                return eq.Passes(Fraction(kv.second.acc.covered, window));
              });

  // Dangling-edge removal (lines 17-19): two semijoins on (endpoint,
  // window), needed only when the vertex quantifier is more restrictive.
  if (vq.MoreRestrictiveThan(eq)) {
    auto vertex_keys =
        vertex_windows.MapValues([](const Properties&) { return true; });
    auto by_src = edge_windows.Map(
        [](const std::pair<EdgeWindowKey, EdgeWindowValue>& kv) {
          return std::pair<VertexWindowKey,
                           std::pair<EdgeWindowKey, EdgeWindowValue>>(
              {kv.second.src, kv.first.rest}, kv);
        });
    auto by_dst =
        by_src.SemiJoin<bool>(vertex_keys)
            .Map([](const std::pair<VertexWindowKey,
                                    std::pair<EdgeWindowKey, EdgeWindowValue>>&
                        kv) {
              return std::pair<VertexWindowKey,
                               std::pair<EdgeWindowKey, EdgeWindowValue>>(
                  {kv.second.second.dst, kv.second.first.rest}, kv.second);
            });
    edge_windows =
        by_dst.SemiJoin<bool>(vertex_keys)
            .Map([](const std::pair<VertexWindowKey,
                                    std::pair<EdgeWindowKey, EdgeWindowValue>>&
                        kv) { return kv.second; });
  }

  auto zoomed_vertices = vertex_windows.Map(
      [windows](const std::pair<VertexWindowKey, Properties>& kv) {
        return VeVertex{kv.first.prefix, windows[kv.first.rest], kv.second};
      },
      dataflow::kPreservesPartitioning);
  auto zoomed_edges = edge_windows.Map(
      [windows, eresolve](const std::pair<EdgeWindowKey, EdgeWindowValue>& kv) {
        return VeEdge{kv.first.prefix, kv.second.src, kv.second.dst,
                      windows[kv.first.rest],
                      ResolveProperties(kv.second.acc.states, eresolve)};
      },
      dataflow::kPreservesPartitioning);

  VeGraph result(zoomed_vertices, zoomed_edges,
                 ZoomedLifetime(windows, graph.lifetime()));
  return result.Coalesce();
}

// ---------------------------------------------------------------------------
// OG (Algorithm 6)
// ---------------------------------------------------------------------------

OgGraph WZoomOg(const OgGraph& graph, const WZoomSpec& spec) {
  TG_SPAN("wzoom.og", "zoom");
  std::vector<TemporalWindow> generated = GenerateWindows(
      graph.lifetime(), spec.window,
      spec.window.kind == WindowSpec::Kind::kChanges ? graph.ChangePoints()
                                                     : std::vector<TimePoint>{});
  std::vector<Interval> windows = WindowIntervals(generated);
  if (windows.empty()) return graph;

  Quantifier vq = spec.vertex_quantifier;
  Quantifier eq = spec.edge_quantifier;
  ResolveSpec vresolve = spec.vertex_resolve;
  ResolveSpec eresolve = spec.edge_resolve;

  // Lines 1-4: per-vertex history recomputation; a pure map.
  auto zoomed_vertices =
      graph.vertices()
          .FlatMap<OgVertex>([windows, vq, vresolve](const OgVertex& v,
                                                     std::vector<OgVertex>* out) {
            History h = ZoomHistory(v.history, windows, vq, vresolve);
            if (h.empty()) return;
            out->push_back(OgVertex{v.vid, std::move(h)});
          })
          .Cache();

  // Lines 5-8: per-edge history recomputation, including the embedded
  // endpoint copies (zoomed with the *vertex* quantifier).
  auto zoomed_edges = graph.edges().FlatMap<OgEdge>(
      [windows, vq, eq, vresolve, eresolve](const OgEdge& e,
                                            std::vector<OgEdge>* out) {
        History h = ZoomHistory(e.history, windows, eq, eresolve);
        if (h.empty()) return;
        out->push_back(
            OgEdge{e.eid,
                   OgVertex{e.v1.vid,
                            ZoomHistory(e.v1.history, windows, vq, vresolve)},
                   OgVertex{e.v2.vid,
                            ZoomHistory(e.v2.history, windows, vq, vresolve)},
                   std::move(h)});
      });

  // Lines 9-15: dangling-edge removal — semijoin with the zoomed vertex
  // relation and intersect histories.
  if (vq.MoreRestrictiveThan(eq)) {
    auto vertex_histories = zoomed_vertices.Map([](const OgVertex& v) {
      return std::pair<VertexId, History>(v.vid, v.history);
    });
    auto by_v1 = zoomed_edges.Map([](const OgEdge& e) {
      return std::pair<VertexId, OgEdge>(e.v1.vid, e);
    });
    auto after_v1 =
        by_v1.Join<History>(vertex_histories)
            .FlatMap<OgEdge>(
                [](const std::pair<VertexId, std::pair<OgEdge, History>>& kv,
                   std::vector<OgEdge>* out) {
                  OgEdge e = kv.second.first;
                  e.history =
                      IntersectHistoryPresence(e.history, kv.second.second);
                  if (!e.history.empty()) out->push_back(std::move(e));
                });
    auto by_v2 = after_v1.Map([](const OgEdge& e) {
      return std::pair<VertexId, OgEdge>(e.v2.vid, e);
    });
    zoomed_edges =
        by_v2.Join<History>(vertex_histories)
            .FlatMap<OgEdge>(
                [](const std::pair<VertexId, std::pair<OgEdge, History>>& kv,
                   std::vector<OgEdge>* out) {
                  OgEdge e = kv.second.first;
                  e.history =
                      IntersectHistoryPresence(e.history, kv.second.second);
                  if (!e.history.empty()) out->push_back(std::move(e));
                });
  }

  return OgGraph(zoomed_vertices, zoomed_edges,
                 ZoomedLifetime(windows, graph.lifetime()));
}

// ---------------------------------------------------------------------------
// RG (Algorithm 4)
// ---------------------------------------------------------------------------

RgGraph WZoomRg(const RgGraph& graph, const WZoomSpec& spec) {
  TG_SPAN("wzoom.rg", "zoom");
  // RG's change points are exactly its snapshot boundaries.
  std::vector<TimePoint> change_points;
  for (const Interval& i : graph.intervals()) {
    change_points.push_back(i.start);
    change_points.push_back(i.end);
  }
  std::sort(change_points.begin(), change_points.end());
  change_points.erase(
      std::unique(change_points.begin(), change_points.end()),
      change_points.end());
  std::vector<TemporalWindow> generated = GenerateWindows(
      graph.lifetime(), spec.window,
      spec.window.kind == WindowSpec::Kind::kChanges ? change_points
                                                     : std::vector<TimePoint>{});
  std::vector<Interval> windows = WindowIntervals(generated);
  if (windows.empty()) return graph;

  Quantifier vq = spec.vertex_quantifier;
  Quantifier eq = spec.edge_quantifier;
  ResolveSpec vresolve = spec.vertex_resolve;
  ResolveSpec eresolve = spec.edge_resolve;

  std::vector<Interval> out_intervals;
  std::vector<sg::PropertyGraph> out_snapshots;

  for (const Interval& window : windows) {
    // Snapshots overlapping this window (lines 3-6).
    Dataset<std::pair<VertexId, WindowAcc>> vertex_states;
    struct EdgeValue {
      VertexId src = 0;
      VertexId dst = 0;
      WindowAcc acc;
    };
    Dataset<std::pair<EdgeId, EdgeValue>> edge_states;
    bool first = true;
    for (size_t s = 0; s < graph.intervals().size(); ++s) {
      Interval overlap = graph.intervals()[s].Intersect(window);
      if (overlap.empty()) continue;
      TimePoint snapshot_start = graph.intervals()[s].start;
      auto vs = graph.snapshots()[s].vertices().Map(
          [overlap, snapshot_start](const sg::Vertex& v) {
            WindowAcc acc;
            FoldState(&acc, overlap, snapshot_start, v.properties);
            return std::pair<VertexId, WindowAcc>(v.vid, std::move(acc));
          });
      auto es = graph.snapshots()[s].edges().Map(
          [overlap, snapshot_start](const sg::Edge& e) {
            EdgeValue value;
            value.src = e.src;
            value.dst = e.dst;
            FoldState(&value.acc, overlap, snapshot_start, e.properties);
            return std::pair<EdgeId, EdgeValue>(e.eid, std::move(value));
          });
      if (first) {
        vertex_states = vs;
        edge_states = es;
        first = false;
      } else {
        vertex_states = vertex_states.Union(vs);
        edge_states = edge_states.Union(es);
      }
    }
    if (first) {
      // No data in this window; emit an empty snapshot.
      out_intervals.push_back(window);
      out_snapshots.push_back(sg::PropertyGraph(
          Dataset<sg::Vertex>::FromVector(graph.context(), {}, 1),
          Dataset<sg::Edge>::FromVector(graph.context(), {}, 1)));
      continue;
    }

    // Aggregate, filter by quantifier, resolve (lines 7-18).
    auto window_vertices =
        vertex_states
            .ReduceByKey([](WindowAcc a, WindowAcc b) {
              CombineAcc(&a, std::move(b));
              return a;
            })
            .FlatMap<sg::Vertex>(
                [window, vq, vresolve](const std::pair<VertexId, WindowAcc>& kv,
                                       std::vector<sg::Vertex>* out) {
                  if (!vq.Passes(Fraction(kv.second.covered, window))) return;
                  out->push_back(sg::Vertex{
                      kv.first, ResolveProperties(kv.second.states, vresolve)});
                });
    auto window_edges =
        edge_states
            .ReduceByKey([](EdgeValue a, EdgeValue b) {
              CombineAcc(&a.acc, std::move(b.acc));
              return a;
            })
            .FlatMap<sg::Edge>(
                [window, eq, eresolve](const std::pair<EdgeId, EdgeValue>& kv,
                                       std::vector<sg::Edge>* out) {
                  if (!eq.Passes(Fraction(kv.second.acc.covered, window)))
                    return;
                  out->push_back(
                      sg::Edge{kv.first, kv.second.src, kv.second.dst,
                               ResolveProperties(kv.second.acc.states,
                                                 eresolve)});
                });

    sg::PropertyGraph window_graph(window_vertices, window_edges);
    if (vq.MoreRestrictiveThan(eq)) {
      // Remove dangling edges within the rebuilt snapshot.
      window_graph = window_graph.Subgraph(
          [](const sg::Vertex&) { return true; },
          [](const sg::Edge&) { return true; });
    }
    out_intervals.push_back(window);
    out_snapshots.push_back(std::move(window_graph));
  }

  return RgGraph(graph.context(), std::move(out_intervals),
                 std::move(out_snapshots),
                 ZoomedLifetime(windows, graph.lifetime()));
}

// ---------------------------------------------------------------------------
// OGC (bitset variant of Algorithm 6)
// ---------------------------------------------------------------------------

namespace {

// For each window, the (global interval index, overlap duration) pairs of
// intervals overlapping it. Precomputed once per zoom.
std::vector<std::vector<std::pair<size_t, int64_t>>> WindowWeights(
    const std::vector<Interval>& index, const std::vector<Interval>& windows) {
  std::vector<std::vector<std::pair<size_t, int64_t>>> weights(windows.size());
  size_t i = 0;
  for (size_t d = 0; d < windows.size(); ++d) {
    while (i > 0 && index[i - 1].end > windows[d].start) --i;
    while (i < index.size() && index[i].end <= windows[d].start) ++i;
    for (size_t j = i; j < index.size() && index[j].start < windows[d].end;
         ++j) {
      int64_t overlap = index[j].Intersect(windows[d]).duration();
      if (overlap > 0) weights[d].emplace_back(j, overlap);
    }
  }
  return weights;
}

// Presence bitset over windows from a presence bitset over the index.
// Only windows overlapping the entity's presence span are probed.
Bitset ZoomPresence(const Bitset& presence, const std::vector<Interval>& index,
                    const std::vector<Interval>& windows,
                    const std::vector<std::vector<std::pair<size_t, int64_t>>>&
                        weights,
                    const Quantifier& quantifier) {
  Bitset zoomed(windows.size());
  int64_t first = presence.FirstSetBit();
  if (first < 0) return zoomed;
  int64_t last = presence.LastSetBit();
  Interval span(index[static_cast<size_t>(first)].start,
                index[static_cast<size_t>(last)].end);
  ForEachOverlappingWindow(windows, span, [&](int64_t d, const Interval& w) {
    int64_t covered = 0;
    for (const auto& [idx, overlap] : weights[static_cast<size_t>(d)]) {
      if (presence.Test(idx)) covered += overlap;
    }
    if (quantifier.Passes(Fraction(covered, w))) {
      zoomed.Set(static_cast<size_t>(d));
    }
  });
  return zoomed;
}

}  // namespace

OgcGraph WZoomOgc(const OgcGraph& graph, const WZoomSpec& spec) {
  TG_SPAN("wzoom.ogc", "zoom");
  // OGC's change points are the boundaries of its global interval index.
  std::vector<TimePoint> change_points;
  for (const Interval& i : graph.intervals()) {
    change_points.push_back(i.start);
    change_points.push_back(i.end);
  }
  std::sort(change_points.begin(), change_points.end());
  change_points.erase(
      std::unique(change_points.begin(), change_points.end()),
      change_points.end());
  std::vector<TemporalWindow> generated = GenerateWindows(
      graph.lifetime(), spec.window,
      spec.window.kind == WindowSpec::Kind::kChanges ? change_points
                                                     : std::vector<TimePoint>{});
  std::vector<Interval> windows = WindowIntervals(generated);
  if (windows.empty()) return graph;

  auto weights = WindowWeights(graph.intervals(), windows);
  std::vector<Interval> index = graph.intervals();
  Quantifier vq = spec.vertex_quantifier;
  Quantifier eq = spec.edge_quantifier;
  bool remove_dangling = vq.MoreRestrictiveThan(eq);

  auto zoomed_vertices = graph.vertices().FlatMap<OgcVertex>(
      [index, windows, weights, vq](const OgcVertex& v,
                                    std::vector<OgcVertex>* out) {
        Bitset presence = ZoomPresence(v.presence, index, windows, weights, vq);
        if (presence.None()) return;
        out->push_back(OgcVertex{v.vid, v.type, std::move(presence)});
      });
  auto zoomed_edges = graph.edges().FlatMap<OgcEdge>(
      [index, windows, weights, vq, eq, remove_dangling](
          const OgcEdge& e, std::vector<OgcEdge>* out) {
        Bitset presence = ZoomPresence(e.presence, index, windows, weights, eq);
        // The endpoint bitsets only matter for edges that survive their own
        // quantifier; skipping them early is most of OGC's speed when a
        // strict quantifier filters aggressively.
        if (presence.None()) return;
        OgcVertex v1{e.v1.vid, e.v1.type,
                     ZoomPresence(e.v1.presence, index, windows, weights, vq)};
        OgcVertex v2{e.v2.vid, e.v2.type,
                     ZoomPresence(e.v2.presence, index, windows, weights, vq)};
        if (remove_dangling) {
          // "As simple as computing the logical and" (Section 3.2).
          presence.AndWith(v1.presence);
          presence.AndWith(v2.presence);
          if (presence.None()) return;
        }
        out->push_back(OgcEdge{e.eid, e.type, std::move(v1), std::move(v2),
                               std::move(presence)});
      });

  return OgcGraph(windows, zoomed_vertices, zoomed_edges,
                  ZoomedLifetime(windows, graph.lifetime()));
}

}  // namespace tgraph
