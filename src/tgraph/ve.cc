#include "tgraph/ve.h"

#include <algorithm>
#include <set>

#include "tgraph/coalesce.h"

namespace tgraph {

using dataflow::Dataset;

VeGraph VeGraph::Create(dataflow::ExecutionContext* ctx,
                        std::vector<VeVertex> vertices,
                        std::vector<VeEdge> edges,
                        std::optional<Interval> lifetime) {
  Interval life;
  if (lifetime.has_value()) {
    life = *lifetime;
  } else {
    for (const VeVertex& v : vertices) life = life.Merge(v.interval);
    for (const VeEdge& e : edges) life = life.Merge(e.interval);
  }
  return VeGraph(Dataset<VeVertex>::FromVector(ctx, std::move(vertices)),
                 Dataset<VeEdge>::FromVector(ctx, std::move(edges)), life);
}

int64_t VeGraph::NumVertices() const {
  return vertices_.Map([](const VeVertex& v) { return v.vid; })
      .Distinct()
      .Count();
}

int64_t VeGraph::NumEdges() const {
  return edges_.Map([](const VeEdge& e) { return e.eid; }).Distinct().Count();
}

VeGraph VeGraph::Coalesce() const {
  // The partitioning method (Section 4): group tuples per entity, sort each
  // group by start time, fold adjacent value-equivalent tuples. Every step
  // keeps the entity id as the key, so a relation already routed by it is
  // folded where it sits and the output stays routed.
  auto coalesced_vertices =
      vertices_
          .Map(
              [](const VeVertex& v) {
                return std::pair<VertexId, HistoryItem>(
                    v.vid, HistoryItem{v.interval, v.properties});
              },
              dataflow::kPreservesPartitioning)
          .AggregateByKey<History>(
              History{},
              [](History* acc, const HistoryItem& item) {
                acc->push_back(item);
              },
              [](History* acc, History&& other) {
                acc->insert(acc->end(), std::make_move_iterator(other.begin()),
                            std::make_move_iterator(other.end()));
              })
          .FlatMap<VeVertex>(
              [](const std::pair<VertexId, History>& kv,
                 std::vector<VeVertex>* out) {
                for (HistoryItem& item : CoalesceHistory(kv.second)) {
                  out->push_back(VeVertex{kv.first, item.interval,
                                          std::move(item.properties)});
                }
              },
              dataflow::kPreservesPartitioning);
  // Edge identity: the eid. Endpoints are constant per eid in a valid
  // TGraph, so we carry them through the fold.
  struct EdgeAcc {
    VertexId src = 0;
    VertexId dst = 0;
    History history;
  };
  auto coalesced_edges =
      edges_
          .Map([](const VeEdge& e) { return std::pair<EdgeId, VeEdge>(e.eid, e); },
               dataflow::kPreservesPartitioning)
          .AggregateByKey<EdgeAcc>(
              EdgeAcc{},
              [](EdgeAcc* acc, const VeEdge& e) {
                acc->src = e.src;
                acc->dst = e.dst;
                acc->history.push_back(HistoryItem{e.interval, e.properties});
              },
              [](EdgeAcc* acc, EdgeAcc&& other) {
                if (acc->history.empty()) {
                  acc->src = other.src;
                  acc->dst = other.dst;
                }
                acc->history.insert(acc->history.end(),
                                    std::make_move_iterator(other.history.begin()),
                                    std::make_move_iterator(other.history.end()));
              })
          .FlatMap<VeEdge>(
              [](const std::pair<EdgeId, EdgeAcc>& kv,
                 std::vector<VeEdge>* out) {
                for (HistoryItem& item : CoalesceHistory(kv.second.history)) {
                  out->push_back(VeEdge{kv.first, kv.second.src, kv.second.dst,
                                        item.interval,
                                        std::move(item.properties)});
                }
              },
              dataflow::kPreservesPartitioning);
  return VeGraph(coalesced_vertices, coalesced_edges, lifetime_);
}

VeGraph VeGraph::PartitionByEntity() const {
  return VeGraph(
      vertices_.PartitionBy([](const VeVertex& v) { return v.vid; }),
      edges_.PartitionBy([](const VeEdge& e) { return e.eid; }), lifetime_);
}

std::vector<TimePoint> VeGraph::ChangePoints() const {
  auto vertex_points = vertices_.FlatMap<TimePoint>(
      [](const VeVertex& v, std::vector<TimePoint>* out) {
        out->push_back(v.interval.start);
        out->push_back(v.interval.end);
      });
  auto edge_points = edges_.FlatMap<TimePoint>(
      [](const VeEdge& e, std::vector<TimePoint>* out) {
        out->push_back(e.interval.start);
        out->push_back(e.interval.end);
      });
  std::vector<TimePoint> points =
      vertex_points.Union(edge_points).Distinct().Collect();
  std::sort(points.begin(), points.end());
  return points;
}

sg::PropertyGraph VeGraph::SnapshotAt(TimePoint t) const {
  auto snapshot_vertices =
      vertices_.Filter([t](const VeVertex& v) { return v.interval.Contains(t); })
          .Map([](const VeVertex& v) {
            return sg::Vertex{v.vid, v.properties};
          });
  auto snapshot_edges =
      edges_.Filter([t](const VeEdge& e) { return e.interval.Contains(t); })
          .Map([](const VeEdge& e) {
            return sg::Edge{e.eid, e.src, e.dst, e.properties};
          });
  return sg::PropertyGraph(snapshot_vertices, snapshot_edges);
}

}  // namespace tgraph
