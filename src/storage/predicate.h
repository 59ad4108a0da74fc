#ifndef TGRAPH_STORAGE_PREDICATE_H_
#define TGRAPH_STORAGE_PREDICATE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/interval.h"
#include "storage/table.h"

namespace tgraph::storage {

/// \brief A conjunction of range constraints over int64 columns — the
/// filter-pushdown language of the columnar format (mirroring Parquet's
/// min/max-statistics pushdown on sorted long columns, Section 4).
class Predicate {
 public:
  struct ColumnRange {
    std::string column;
    std::optional<int64_t> lower;
    bool lower_inclusive = true;
    std::optional<int64_t> upper;
    bool upper_inclusive = true;
  };

  Predicate() = default;

  /// Adds a constraint; all constraints must hold (conjunction).
  Predicate& And(ColumnRange range) {
    ranges_.push_back(std::move(range));
    return *this;
  }

  /// The overlap predicate used by the GraphLoader's date-range filter:
  /// a record valid over [start_col, end_col) overlaps `query` iff
  /// start < query.end AND end > query.start.
  static Predicate IntervalOverlaps(const std::string& start_column,
                                    const std::string& end_column,
                                    Interval query);

  const std::vector<ColumnRange>& ranges() const { return ranges_; }
  bool empty() const { return ranges_.empty(); }

  /// Can any row of a group with these statistics satisfy the predicate?
  /// Unknown columns or missing statistics conservatively answer yes.
  bool MaybeMatches(const Schema& schema,
                    const std::vector<ColumnStats>& stats) const;

 private:
  std::vector<ColumnRange> ranges_;
};

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_PREDICATE_H_
