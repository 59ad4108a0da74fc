#include "storage/store_format.h"

#include <algorithm>

#include "storage/serde.h"

namespace tgraph::storage {

const char* SegmentEncodingName(SegmentEncoding encoding) {
  switch (encoding) {
    case SegmentEncoding::kRaw:
      return "raw";
    case SegmentEncoding::kDeltaVarint:
      return "delta_varint";
    case SegmentEncoding::kFrameOfReference:
      return "for";
    case SegmentEncoding::kDictionary:
      return "dict";
    case SegmentEncoding::kRunLength:
      return "rle";
    case SegmentEncoding::kDeltaRunLength:
      return "delta_rle";
  }
  return "unknown";
}

bool SegmentEncodingApplies(SegmentEncoding encoding, ColumnType type) {
  if (encoding == SegmentEncoding::kRaw) return true;
  switch (type) {
    case ColumnType::kInt64:
      return encoding == SegmentEncoding::kDeltaVarint ||
             encoding == SegmentEncoding::kFrameOfReference ||
             encoding == SegmentEncoding::kDeltaRunLength;
    case ColumnType::kDouble:
      return false;
    case ColumnType::kBool:
      return encoding == SegmentEncoding::kRunLength;
    case ColumnType::kBinary:
      return encoding == SegmentEncoding::kDictionary;
  }
  return false;
}

std::vector<ColumnStats> PartitionMeta::ColumnStatsView() const {
  std::vector<ColumnStats> stats;
  stats.reserve(segments.size());
  for (const SegmentMeta& segment : segments) stats.push_back(segment.stats);
  return stats;
}

int StoreFooter::FindTable(const std::string& name) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

const std::string* StoreFooter::FindMetadata(const std::string& key) const {
  for (const auto& [k, v] : metadata) {
    if (k == key) return &v;
  }
  return nullptr;
}

void EncodeStoreFooter(const StoreFooter& footer, uint32_t version,
                       std::string* out) {
  PutVarint(out, footer.metadata.size());
  for (const auto& [key, value] : footer.metadata) {
    PutBytes(out, key);
    PutBytes(out, value);
  }
  PutVarint(out, footer.tables.size());
  for (const TableMeta& table : footer.tables) {
    PutBytes(out, table.name);
    PutVarint(out, table.schema.columns.size());
    for (const ColumnSpec& column : table.schema.columns) {
      PutBytes(out, column.name);
      out->push_back(static_cast<char>(column.type));
    }
    PutVarint(out, table.partitions.size());
    for (const PartitionMeta& partition : table.partitions) {
      PutVarint(out, static_cast<uint64_t>(partition.num_rows));
      for (const SegmentMeta& segment : partition.segments) {
        PutFixed64(out, segment.offset);
        PutFixed64(out, segment.byte_size);
        PutFixed64(out, segment.checksum);
        if (version >= kStoreVersionV3) {
          out->push_back(static_cast<char>(segment.encoding));
          if (segment.encoding != SegmentEncoding::kRaw) {
            PutVarint(out, segment.plain_size);
          }
        }
        out->push_back(segment.stats.has_int_stats ? 1 : 0);
        if (segment.stats.has_int_stats) {
          PutFixed64(out, static_cast<uint64_t>(segment.stats.min_int));
          PutFixed64(out, static_cast<uint64_t>(segment.stats.max_int));
        }
      }
    }
  }
}

Status DecodeStoreFooter(std::string_view data, uint32_t version,
                         StoreFooter* footer) {
  size_t pos = 0;
  TG_ASSIGN_OR_RETURN(uint64_t num_meta, GetVarint(data, &pos));
  for (uint64_t i = 0; i < num_meta; ++i) {
    TG_ASSIGN_OR_RETURN(std::string_view key, GetBytes(data, &pos));
    TG_ASSIGN_OR_RETURN(std::string_view value, GetBytes(data, &pos));
    footer->metadata.emplace_back(std::string(key), std::string(value));
  }
  TG_ASSIGN_OR_RETURN(uint64_t num_tables, GetVarint(data, &pos));
  for (uint64_t t = 0; t < num_tables; ++t) {
    TableMeta table;
    TG_ASSIGN_OR_RETURN(std::string_view name, GetBytes(data, &pos));
    table.name = std::string(name);
    TG_ASSIGN_OR_RETURN(uint64_t num_columns, GetVarint(data, &pos));
    if (num_columns == 0) {
      return Status::IoError("store table '" + table.name + "' has no columns");
    }
    for (uint64_t c = 0; c < num_columns; ++c) {
      TG_ASSIGN_OR_RETURN(std::string_view column_name, GetBytes(data, &pos));
      if (pos >= data.size()) return Status::IoError("truncated store footer");
      uint8_t type = static_cast<uint8_t>(data[pos]);
      ++pos;
      if (type > static_cast<uint8_t>(ColumnType::kBinary)) {
        return Status::IoError("store footer has unknown column type " +
                               std::to_string(type));
      }
      table.schema.columns.push_back(
          ColumnSpec{std::string(column_name), static_cast<ColumnType>(type)});
    }
    TG_ASSIGN_OR_RETURN(uint64_t num_partitions, GetVarint(data, &pos));
    for (uint64_t p = 0; p < num_partitions; ++p) {
      PartitionMeta partition;
      TG_ASSIGN_OR_RETURN(uint64_t rows, GetVarint(data, &pos));
      partition.num_rows = static_cast<int64_t>(rows);
      partition.segments.resize(num_columns);
      for (uint64_t c = 0; c < num_columns; ++c) {
        SegmentMeta& segment = partition.segments[c];
        TG_ASSIGN_OR_RETURN(segment.offset, GetFixed64(data, &pos));
        TG_ASSIGN_OR_RETURN(segment.byte_size, GetFixed64(data, &pos));
        TG_ASSIGN_OR_RETURN(segment.checksum, GetFixed64(data, &pos));
        if (version >= kStoreVersionV3) {
          if (pos >= data.size()) {
            return Status::IoError("truncated store footer");
          }
          uint8_t tag = static_cast<uint8_t>(data[pos]);
          ++pos;
          if (tag > kStoreMaxSegmentEncoding) {
            return Status::IoError("store footer has unknown encoding " +
                                   std::to_string(tag));
          }
          segment.encoding = static_cast<SegmentEncoding>(tag);
          if (!SegmentEncodingApplies(segment.encoding,
                                      table.schema.columns[c].type)) {
            return Status::IoError(
                "store footer applies encoding " +
                std::string(SegmentEncodingName(segment.encoding)) +
                " to an incompatible column type");
          }
          if (segment.encoding != SegmentEncoding::kRaw) {
            TG_ASSIGN_OR_RETURN(segment.plain_size, GetVarint(data, &pos));
          } else {
            segment.plain_size = segment.byte_size;
          }
        } else {
          segment.plain_size = segment.byte_size;
        }
        if (pos >= data.size()) return Status::IoError("truncated store footer");
        segment.stats.has_int_stats = data[pos] != 0;
        ++pos;
        if (segment.stats.has_int_stats) {
          TG_ASSIGN_OR_RETURN(uint64_t min, GetFixed64(data, &pos));
          TG_ASSIGN_OR_RETURN(uint64_t max, GetFixed64(data, &pos));
          segment.stats.min_int = static_cast<int64_t>(min);
          segment.stats.max_int = static_cast<int64_t>(max);
        }
      }
      table.partitions.push_back(std::move(partition));
    }
    footer->tables.push_back(std::move(table));
  }
  if (pos != data.size()) {
    return Status::IoError("store footer has trailing bytes");
  }
  return Status::OK();
}

Status ValidateStoreLayout(const StoreFooter& footer, uint64_t file_size,
                           uint64_t data_end) {
  if (data_end > file_size) {
    return Status::IoError("store data area extends past end of file");
  }
  // Gather every segment's extent for the overlap check.
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  for (const TableMeta& table : footer.tables) {
    for (size_t p = 0; p < table.partitions.size(); ++p) {
      const PartitionMeta& partition = table.partitions[p];
      std::string where =
          "table '" + table.name + "' partition " + std::to_string(p);
      if (partition.num_rows < 0) {
        return Status::IoError(where + " has negative row count");
      }
      if (partition.segments.size() != table.schema.columns.size()) {
        return Status::IoError(where + " segment count does not match schema");
      }
      uint64_t rows = static_cast<uint64_t>(partition.num_rows);
      // Bounds rows before any `rows * 8` arithmetic below can overflow.
      // Every column type takes at least one plain byte per row, and a
      // plain size is at most the data area (raw segments) or
      // kStoreMaxPlainSegmentSize (encoded ones). Encoded segments may
      // take far less than 8 bytes a row on disk, so the data area alone
      // is no bound.
      if (rows > std::max(data_end, kStoreMaxPlainSegmentSize)) {
        return Status::IoError(where + " row count exceeds any segment's "
                               "plain size");
      }
      for (size_t c = 0; c < partition.segments.size(); ++c) {
        const SegmentMeta& segment = partition.segments[c];
        std::string which = where + " column '" +
                            table.schema.columns[c].name + "'";
        if (segment.offset % kStoreSegmentAlignment != 0) {
          return Status::IoError(which + " segment is misaligned");
        }
        if (segment.offset < kStoreHeaderSize ||
            segment.byte_size > data_end ||
            segment.offset > data_end - segment.byte_size) {
          return Status::IoError(which + " segment is out of bounds");
        }
        // Per-type size invariants, so readers can slice without checks.
        // For raw segments they bound the on-disk bytes directly; for
        // encoded segments they bound plain_size — the raw v2 layout the
        // decoder reconstructs — while the on-disk byte_size is only
        // bounds-checked against the data area above.
        const bool encoded = segment.encoding != SegmentEncoding::kRaw;
        if (!SegmentEncodingApplies(segment.encoding,
                                    table.schema.columns[c].type)) {
          return Status::IoError(which + " has an inapplicable encoding");
        }
        if (encoded && segment.plain_size > kStoreMaxPlainSegmentSize) {
          return Status::IoError(which + " plain size is implausibly large");
        }
        if (!encoded && segment.plain_size != segment.byte_size) {
          return Status::IoError(which + " raw plain size mismatch");
        }
        uint64_t expected = 0;
        bool exact = true;
        switch (table.schema.columns[c].type) {
          case ColumnType::kInt64:
          case ColumnType::kDouble:
            // rows * 8 cannot overflow: rows is bounded above.
            expected = rows * 8;
            break;
          case ColumnType::kBool:
            expected = rows;
            break;
          case ColumnType::kBinary:
            expected = (rows + 1) * 8;  // offsets array; payload follows
            exact = false;
            break;
        }
        if (exact ? segment.plain_size != expected
                  : segment.plain_size < expected) {
          return Status::IoError(which + " segment size does not match " +
                                 std::to_string(rows) + " rows");
        }
        if (segment.byte_size > 0) {
          extents.emplace_back(segment.offset, segment.byte_size);
        }
      }
    }
  }
  std::sort(extents.begin(), extents.end());
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i - 1].first + extents[i - 1].second > extents[i].first) {
      return Status::IoError("store sections overlap");
    }
  }
  return Status::OK();
}

}  // namespace tgraph::storage
