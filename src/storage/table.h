#ifndef TGRAPH_STORAGE_TABLE_H_
#define TGRAPH_STORAGE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tgraph::storage {

/// Column types of the tgraph-store columnar container (the Parquet
/// substitute, docs/FORMAT.md). These in-memory types are what the store
/// writer, its encodings and pushdown predicates share.
/// Time is stored as kInt64, matching the paper's workaround ("Parquet does
/// not support filter pushdown for datetime formats, hence we store time as
/// UNIX timestamps (long)").
enum class ColumnType : uint8_t { kInt64, kDouble, kBool, kBinary };

struct ColumnSpec {
  std::string name;
  ColumnType type;
};

/// \brief An ordered list of typed columns.
struct Schema {
  std::vector<ColumnSpec> columns;

  /// Index of `name`, or -1.
  int FindColumn(const std::string& name) const;
  friend bool operator==(const Schema& a, const Schema& b);
};

/// \brief In-memory values of one column (only the member matching the
/// declared type is used).
struct Column {
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  std::vector<std::string> binaries;

  size_t Size(ColumnType type) const;
};

/// \brief A batch of rows in columnar layout.
struct RecordBatch {
  Schema schema;
  std::vector<Column> columns;
  int64_t num_rows = 0;
};

/// \brief Per-partition min/max statistics (zone maps) powering filter
/// pushdown. Only int64 columns participate (the time and id columns).
struct ColumnStats {
  bool has_int_stats = false;
  int64_t min_int = 0;
  int64_t max_int = 0;
};

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_TABLE_H_
