#ifndef TGRAPH_VIEWS_CONTENT_H_
#define TGRAPH_VIEWS_CONTENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cow_map.h"
#include "common/interval.h"
#include "tgraph/ve.h"

namespace tgraph::views {

/// Orders entity ids the way their rendered lines sort: by the decimal
/// string of the id. Every line of one entity starts with `V v<id> ` or
/// `E e<id> `, and a space sorts before any digit, so sorting entities in
/// this order and each entity's lines in byte order sorts all lines.
struct DecimalOrder {
  bool operator()(int64_t a, int64_t b) const;
};

/// One entity of a view: its coalesced rows and what they render to.
template <typename Row>
struct EntityContent {
  /// Coalesced states, by start time.
  std::vector<Row> rows;
  /// `V <row>` / `E <row>` for every row, each followed by '\n', in byte
  /// order.
  std::string lines;
};

/// \brief The coalesced VE content of a materialized view, grouped per
/// entity and shared copy-on-write between view snapshots.
///
/// Build() groups a full pipeline output; Splice() applies a recomputed
/// suffix by rebuilding only the entities it can change and sharing every
/// other one. Each entity keeps its rendered lines, so a snapshot's
/// content hash streams over cached text and re-renders only rows that
/// changed.
class ViewContent {
 public:
  /// The content of a pipeline output `graph` (VE, any row order).
  static ViewContent Build(const VeGraph& graph);

  /// The content after recomputing the view over [cut, end): per entity,
  /// Coalesce(prev|(-inf, cut) UNION suffix). Only entities with a row
  /// ending after `cut` or a row in `suffix` are rebuilt.
  ViewContent Splice(const VeGraph& suffix, TimePoint cut) const;

  /// Splice() scoped to named entities: rebuilds only the entities in
  /// `vertex_scope`/`edge_scope` and those with rows in `vertices`/`edges`
  /// (which all start at or after `cut`), each as Coalesce(prev|(-inf, cut)
  /// UNION its new rows), and shares every other entity as it is, however
  /// far past the cut it reaches. `lifetime` becomes the content's.
  ViewContent Splice(std::vector<VeVertex> vertices,
                     const std::vector<VertexId>& vertex_scope,
                     std::vector<VeEdge> edges,
                     const std::vector<EdgeId>& edge_scope, TimePoint cut,
                     Interval lifetime) const;

  /// All rows as a VE graph.
  VeGraph ToVe(dataflow::ExecutionContext* ctx) const;

  /// FNV-1a (HashBytes) of every rendered line, sorted in byte order and
  /// joined with '\n' terminators: edge lines, then vertex lines.
  uint64_t Hash() const;

  Interval lifetime() const { return lifetime_; }
  size_t vertex_records() const { return vertex_records_; }
  size_t edge_records() const { return edge_records_; }

 private:
  using Vertex = EntityContent<VeVertex>;
  using Edge = EntityContent<VeEdge>;

  CowMap<VertexId, std::shared_ptr<const Vertex>, DecimalOrder> vertices_;
  CowMap<EdgeId, std::shared_ptr<const Edge>, DecimalOrder> edges_;
  Interval lifetime_;
  size_t vertex_records_ = 0;
  size_t edge_records_ = 0;
};

}  // namespace tgraph::views

#endif  // TGRAPH_VIEWS_CONTENT_H_
