#include "storage/predicate.h"

namespace tgraph::storage {

Predicate Predicate::IntervalOverlaps(const std::string& start_column,
                                      const std::string& end_column,
                                      Interval query) {
  Predicate predicate;
  // start < query.end
  predicate.And(ColumnRange{start_column, std::nullopt, true, query.end,
                            /*upper_inclusive=*/false});
  // end > query.start
  predicate.And(ColumnRange{end_column, query.start, /*lower_inclusive=*/false,
                            std::nullopt, true});
  return predicate;
}

bool Predicate::MaybeMatches(const Schema& schema,
                             const std::vector<ColumnStats>& stats) const {
  for (const ColumnRange& range : ranges_) {
    int column = schema.FindColumn(range.column);
    if (column < 0 || static_cast<size_t>(column) >= stats.size()) continue;
    const ColumnStats& s = stats[column];
    if (!s.has_int_stats) continue;
    if (range.lower.has_value()) {
      // Every value in the group is at most max_int; if even the max fails
      // the lower bound, no row can match.
      if (range.lower_inclusive ? s.max_int < *range.lower
                                : s.max_int <= *range.lower) {
        return false;
      }
    }
    if (range.upper.has_value()) {
      if (range.upper_inclusive ? s.min_int > *range.upper
                                : s.min_int >= *range.upper) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace tgraph::storage
