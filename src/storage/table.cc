#include "storage/table.h"

namespace tgraph::storage {

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool operator==(const Schema& a, const Schema& b) {
  if (a.columns.size() != b.columns.size()) return false;
  for (size_t i = 0; i < a.columns.size(); ++i) {
    if (a.columns[i].name != b.columns[i].name ||
        a.columns[i].type != b.columns[i].type) {
      return false;
    }
  }
  return true;
}

size_t Column::Size(ColumnType type) const {
  switch (type) {
    case ColumnType::kInt64:
      return ints.size();
    case ColumnType::kDouble:
      return doubles.size();
    case ColumnType::kBool:
      return bools.size();
    case ColumnType::kBinary:
      return binaries.size();
  }
  return 0;
}

}  // namespace tgraph::storage
