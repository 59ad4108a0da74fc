#ifndef TGRAPH_TGRAPH_COALESCE_H_
#define TGRAPH_TGRAPH_COALESCE_H_

#include <functional>
#include <vector>

#include "tgraph/types.h"

namespace tgraph {

/// Pairwise property merge used when two entity states overlap in time;
/// must be commutative and associative (paper requirement on f_agg). The
/// left argument is taken by value, so a caller folding into an
/// accumulator passes it as an rvalue and the merge may grow it in place;
/// a lambda taking `const Properties&` converts too.
using PropertiesMerge =
    std::function<Properties(Properties, const Properties&)>;

/// \brief Sorts `history` by interval start and merges every run of
/// value-equivalent, temporally adjacent (or overlapping) states into one
/// maximal state — the paper's temporal coalescing (Böhlen), applied to a
/// single entity. Empty-interval items are dropped.
History CoalesceHistory(History history);

/// \brief True iff `history` is sorted, pairwise disjoint, and no two
/// adjacent items are mergeable with equal properties.
bool IsCoalescedHistory(const History& history);

/// \brief Aligns two histories on their combined interval boundaries and
/// produces a coalesced history where:
///  - segments covered by only one input keep that input's properties, and
///  - segments covered by both get `merge(a_props, b_props)`.
///
/// With a commutative/associative `merge`, folding any number of histories
/// with this function is order-independent up to coalescing — which is what
/// lets aZoom^T over OG aggregate groups via ReduceByKey (Algorithm 3).
History MergeHistories(const History& a, const History& b,
                       const PropertiesMerge& merge);

/// \brief Restricts `history` to the parts overlapping `window`, clipping
/// intervals at the window boundaries.
History ClipHistory(const History& history, const Interval& window);

/// \brief Keeps the parts of `history` that overlap the *presence* of
/// `mask` (the union of the mask's intervals); properties come from
/// `history`. Used for dangling-edge removal over OG (Algorithm 6:
/// intersect(e.history, v.history)).
History IntersectHistoryPresence(const History& history, const History& mask);

/// \brief Removes from `history` every part that overlaps the presence of
/// `mask` (temporal anti-join on one entity). Properties come from
/// `history`; the result is coalesced.
History SubtractHistoryPresence(const History& history, const History& mask);

/// \brief Segments where BOTH histories are present, with properties
/// merged by `merge` (temporal intersection of one entity's states).
History IntersectHistories(const History& a, const History& b,
                           const PropertiesMerge& merge);

/// \brief Total number of time points covered by `history`.
int64_t HistoryCoveredDuration(const History& history);

/// \brief The smallest interval containing all of `history` (empty if none).
Interval HistorySpan(const History& history);

}  // namespace tgraph

#endif  // TGRAPH_TGRAPH_COALESCE_H_
