#ifndef TGRAPH_TGRAPH_VE_H_
#define TGRAPH_TGRAPH_VE_H_

#include <optional>
#include <vector>

#include "dataflow/dataset.h"
#include "sg/property_graph.h"
#include "tgraph/types.h"

namespace tgraph {

/// \brief The Vertex-Edge (VE) physical representation: two temporal
/// relations (vertices, edges), one tuple per entity state (Figure 5).
///
/// VE favours compactness and schema evolution but has no temporal locality
/// by default — consecutive states of an entity may live in different
/// partitions. PartitionByEntity() reconstructs temporal locality at
/// runtime, as described in Section 3.
///
/// A relation that claims a routing (Dataset::RoutedPartitions) is routed
/// by entity id: vertices by vid, edges by eid. Coalesce and the zoom
/// operators keep that routing wherever they keep the id as the key, so a
/// chain of them shuffles each relation once per key.
class VeGraph {
 public:
  VeGraph() = default;
  VeGraph(dataflow::Dataset<VeVertex> vertices,
          dataflow::Dataset<VeEdge> edges, Interval lifetime)
      : vertices_(std::move(vertices)),
        edges_(std::move(edges)),
        lifetime_(lifetime) {}

  /// Builds from record vectors; derives the lifetime from the data when
  /// not supplied.
  static VeGraph Create(dataflow::ExecutionContext* ctx,
                        std::vector<VeVertex> vertices,
                        std::vector<VeEdge> edges,
                        std::optional<Interval> lifetime = std::nullopt);

  const dataflow::Dataset<VeVertex>& vertices() const { return vertices_; }
  const dataflow::Dataset<VeEdge>& edges() const { return edges_; }
  Interval lifetime() const { return lifetime_; }
  dataflow::ExecutionContext* context() const { return vertices_.context(); }

  /// Number of vertex tuples (states), not distinct vertices.
  int64_t NumVertexRecords() const { return vertices_.Count(); }
  int64_t NumEdgeRecords() const { return edges_.Count(); }
  /// Number of distinct vertex ids.
  int64_t NumVertices() const;
  int64_t NumEdges() const;

  /// Temporally coalesces both relations using the partitioning method of
  /// Section 4: hash-partition by entity id, group locally, sort each
  /// group by start time, and fold value-equivalent adjacent tuples.
  VeGraph Coalesce() const;

  /// Hash-partitions tuples by entity id so each entity's states are
  /// co-located (runtime reconstruction of temporal locality).
  VeGraph PartitionByEntity() const;

  /// All distinct interval boundaries across both relations, sorted. The
  /// elementary intervals between consecutive change points are the
  /// "snapshots" of the TGraph.
  std::vector<TimePoint> ChangePoints() const;

  /// The state of the graph at time point `t` as a static property graph.
  sg::PropertyGraph SnapshotAt(TimePoint t) const;

 private:
  dataflow::Dataset<VeVertex> vertices_;
  dataflow::Dataset<VeEdge> edges_;
  Interval lifetime_;
};

}  // namespace tgraph

#endif  // TGRAPH_TGRAPH_VE_H_
