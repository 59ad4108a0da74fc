#ifndef TGRAPH_TGRAPH_ZOOM_SPEC_H_
#define TGRAPH_TGRAPH_ZOOM_SPEC_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "tgraph/coalesce.h"
#include "tgraph/types.h"

namespace tgraph {

/// The value nodes are grouped by during aZoom^T (e.g. a school name).
using GroupKey = PropertyValue;

/// \brief Maps one vertex *state* (id + properties) to its group, or
/// nullopt if the state belongs to no group — in which case the state
/// produces no output vertex and its incident edges are dropped for that
/// period (Example 2.2: Bob has no school during [2,5), so e1 shrinks).
using GroupFn =
    std::function<std::optional<GroupKey>(VertexId, const Properties&)>;

/// \brief Skolem function assigning a stable output vertex id to each group
/// key — "a user-provided function that takes the vertex id and all
/// attributes as an input and produces a long identifier" (Section 3.1).
using SkolemFn = std::function<VertexId(const GroupKey&)>;

/// Default Skolem function: a hash of the group key, masked positive. The
/// paper's experiments use exactly this ("aZoom^T with a hash function as
/// the Skolem function", Section 5.1).
VertexId HashSkolem(const GroupKey& key);

/// Built-in aggregate kinds (Section 2.2 lists count, sum, min, max,
/// average plus user-specified commutative/associative functions — the
/// latter are expressed by writing a custom VertexAggregator).
enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

/// \brief One aggregate column of the zoomed graph: output property name,
/// kind, and the input property it reads (ignored for kCount).
struct AggregateSpec {
  std::string output_property;
  AggKind kind = AggKind::kCount;
  std::string input_property;
};

/// \brief The aggregation machinery applied when multiple input vertices
/// map to the same output vertex in the same snapshot (the paper's f_agg,
/// generalized to an init/merge/finalize triple so that non-pairwise
/// aggregates like count and average are expressible).
struct VertexAggregator {
  /// Seeds an output property set from one input state and its group key.
  std::function<Properties(const GroupKey&, VertexId, const Properties&)> init;
  /// Commutative, associative merge of two seeded property sets.
  PropertiesMerge merge;
  /// Optional final pass per output state (e.g. dividing sum by count for
  /// averages, dropping scratch keys). May be null.
  std::function<Properties(const Properties&)> finalize;

  /// What MakeAggregator built the three functions from. A materialized
  /// view maintains COUNT/SUM/AVG groups by counting from these, which
  /// the opaque functions do not allow; empty `aggregates` (and any
  /// hand-built aggregator) means the functions are all there is.
  std::string new_type;
  std::string group_property;
  std::vector<AggregateSpec> aggregates;
};

/// \brief Builds a VertexAggregator that gives output vertices
/// type=`new_type`, stamps the group key into `group_property` (when
/// non-empty), and computes every aggregate in `aggregates`.
VertexAggregator MakeAggregator(std::string new_type,
                                std::string group_property,
                                std::vector<AggregateSpec> aggregates);

/// \brief GroupFn grouping by the value of a single property (states
/// lacking the property belong to no group).
GroupFn GroupByProperty(std::string property);

/// \brief Full aZoom^T parameterization.
struct AZoomSpec {
  GroupFn group_of;
  SkolemFn skolem = HashSkolem;
  VertexAggregator aggregator;
  /// When non-empty, output edges are re-typed to this value (Figure 2
  /// re-types co-author edges to "collaborate"); otherwise edge properties
  /// pass through unchanged.
  std::string edge_type;
};

}  // namespace tgraph

#endif  // TGRAPH_TGRAPH_ZOOM_SPEC_H_
