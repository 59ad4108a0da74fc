#include "storage/store_writer.h"

#include <algorithm>

#include "common/file_io.h"
#include "common/hash.h"
#include "storage/encodings.h"
#include "storage/serde.h"

namespace tgraph::storage {

namespace {

void PadToAlignment(std::string* out) {
  while (out->size() % kStoreSegmentAlignment != 0) out->push_back('\0');
}

void AppendRaw(std::string* out, const void* data, size_t bytes) {
  if (bytes > 0) out->append(static_cast<const char*>(data), bytes);
}

}  // namespace

StoreWriter::StoreWriter(std::string path, StoreWriterOptions options)
    : path_(std::move(path)), options_(std::move(options)) {
  const bool v3 = options_.version >= kStoreVersionV3;
  file_data_.append(v3 ? kStoreMagicV3 : kStoreMagic, sizeof(kStoreMagic));
  std::string header_tail;
  PutFixed64(&header_tail,
             static_cast<uint64_t>(options_.version) |
                 (static_cast<uint64_t>(kStoreFlagLittleEndian) << 32));
  // PutFixed64 writes little-endian, so the low word lands first: the
  // header reads as magic(8) + version(u32 LE) + flags(u32 LE).
  file_data_ += header_tail;
  footer_.metadata = options_.metadata;
}

StoreWriter::~StoreWriter() = default;

Result<std::unique_ptr<StoreWriter>> StoreWriter::Open(
    const std::string& path, StoreWriterOptions options) {
  if (options.partition_rows <= 0) {
    return Status::InvalidArgument("partition_rows must be positive");
  }
  if (options.version != kStoreVersion && options.version != kStoreVersionV3) {
    return Status::InvalidArgument("store version must be 2 or 3, got " +
                                   std::to_string(options.version));
  }
  return std::unique_ptr<StoreWriter>(
      new StoreWriter(path, std::move(options)));
}

int StoreWriter::AddTable(const std::string& name, Schema schema) {
  TableMeta table;
  table.name = name;
  table.schema = std::move(schema);
  footer_.tables.push_back(std::move(table));
  RecordBatch buffer;
  buffer.schema = footer_.tables.back().schema;
  buffer.columns.resize(buffer.schema.columns.size());
  buffers_.push_back(std::move(buffer));
  return static_cast<int>(footer_.tables.size()) - 1;
}

Status StoreWriter::Append(int table, const RecordBatch& batch) {
  if (closed_) return Status::InvalidArgument("store writer is closed");
  if (table < 0 || table >= static_cast<int>(buffers_.size())) {
    return Status::InvalidArgument("unknown store table handle");
  }
  RecordBatch& buffer = buffers_[table];
  if (!(batch.schema == buffer.schema)) {
    return Status::InvalidArgument("batch schema does not match table '" +
                                   footer_.tables[table].name + "'");
  }
  for (size_t c = 0; c < buffer.schema.columns.size(); ++c) {
    Column& dst = buffer.columns[c];
    const Column& src = batch.columns[c];
    switch (buffer.schema.columns[c].type) {
      case ColumnType::kInt64:
        dst.ints.insert(dst.ints.end(), src.ints.begin(), src.ints.end());
        break;
      case ColumnType::kDouble:
        dst.doubles.insert(dst.doubles.end(), src.doubles.begin(),
                           src.doubles.end());
        break;
      case ColumnType::kBool:
        dst.bools.insert(dst.bools.end(), src.bools.begin(), src.bools.end());
        break;
      case ColumnType::kBinary:
        dst.binaries.insert(dst.binaries.end(), src.binaries.begin(),
                            src.binaries.end());
        break;
    }
  }
  buffer.num_rows += batch.num_rows;
  while (buffer.num_rows >= options_.partition_rows) {
    TG_RETURN_IF_ERROR(FlushPartition(table));
  }
  return Status::OK();
}

Status StoreWriter::FlushPartition(int table) {
  RecordBatch& buffer = buffers_[table];
  int64_t rows = std::min(buffer.num_rows, options_.partition_rows);
  if (rows == 0) return Status::OK();
  size_t n = static_cast<size_t>(rows);
  const bool v3 = options_.version >= kStoreVersionV3;
  PartitionMeta partition;
  partition.num_rows = rows;
  partition.segments.resize(buffer.schema.columns.size());
  for (size_t c = 0; c < buffer.schema.columns.size(); ++c) {
    Column& column = buffer.columns[c];
    SegmentMeta& segment = partition.segments[c];
    // Build the raw v2 layout for the column slice; in v3 mode, also the
    // applicable encoded candidates, measured on the partition's actual
    // values. The smallest strictly-shrinking candidate wins, so a
    // pathological segment can never regress past raw (the mandatory
    // fallback), and a v2-mode file is byte-identical to the pre-v3
    // writer's output.
    std::string plain;
    std::string encoded;
    SegmentEncoding choice = SegmentEncoding::kRaw;
    switch (buffer.schema.columns[c].type) {
      case ColumnType::kInt64: {
        std::span<const int64_t> values(column.ints.data(), n);
        AppendRaw(&plain, values.data(), n * sizeof(int64_t));
        auto [min_it, max_it] =
            std::minmax_element(values.begin(), values.end());
        segment.stats = ColumnStats{true, *min_it, *max_it};
        if (v3) {
          // Sorted interval columns make tiny zigzag deltas; clustered
          // ones make narrow frame-of-reference widths; columns that step
          // by a constant for long stretches make few delta runs. Each
          // candidate is one cheap pass over an in-memory slice, and a
          // later one wins only when strictly smaller.
          std::string delta;
          EncodeDeltaVarint(values, &delta);
          std::string frame;
          EncodeFrameOfReference(values, &frame);
          std::string delta_runs;
          EncodeDeltaRunLength(values, &delta_runs);
          std::string* best = delta.size() <= frame.size() ? &delta : &frame;
          if (delta_runs.size() < best->size()) best = &delta_runs;
          if (best->size() < plain.size()) {
            choice = best == &delta    ? SegmentEncoding::kDeltaVarint
                     : best == &frame ? SegmentEncoding::kFrameOfReference
                                      : SegmentEncoding::kDeltaRunLength;
            encoded = std::move(*best);
          }
        }
        column.ints.erase(column.ints.begin(), column.ints.begin() + n);
        break;
      }
      case ColumnType::kDouble: {
        // Doubles stay raw: the workload's numeric columns are opaque
        // aggregates with no exploitable structure.
        AppendRaw(&plain, column.doubles.data(), n * sizeof(double));
        column.doubles.erase(column.doubles.begin(),
                             column.doubles.begin() + n);
        break;
      }
      case ColumnType::kBool: {
        AppendRaw(&plain, column.bools.data(), n);
        if (v3) {
          std::string rle;
          if (EncodeRunLength(
                  std::span<const uint8_t>(column.bools.data(), n), &rle) &&
              rle.size() < plain.size()) {
            choice = SegmentEncoding::kRunLength;
            encoded = std::move(rle);
          }
        }
        column.bools.erase(column.bools.begin(), column.bools.begin() + n);
        break;
      }
      case ColumnType::kBinary: {
        // (rows + 1) u64 end-exclusive offsets into the payload that
        // follows, so value i is payload[offsets[i], offsets[i + 1]).
        uint64_t cursor = 0;
        PutFixed64(&plain, cursor);
        for (size_t i = 0; i < n; ++i) {
          cursor += column.binaries[i].size();
          PutFixed64(&plain, cursor);
        }
        for (size_t i = 0; i < n; ++i) {
          plain += column.binaries[i];
        }
        if (v3) {
          std::string dict;
          if (EncodeDictionary(column.binaries.data(), n, &dict) &&
              dict.size() < plain.size()) {
            choice = SegmentEncoding::kDictionary;
            encoded = std::move(dict);
          }
        }
        column.binaries.erase(column.binaries.begin(),
                              column.binaries.begin() + n);
        break;
      }
    }
    PadToAlignment(&file_data_);
    segment.offset = file_data_.size();
    const std::string& bytes =
        choice == SegmentEncoding::kRaw ? plain : encoded;
    file_data_ += bytes;
    segment.encoding = choice;
    segment.byte_size = bytes.size();
    segment.plain_size = plain.size();
    segment.checksum = HashBytesFast(bytes);
  }
  buffer.num_rows -= rows;
  footer_.tables[table].partitions.push_back(std::move(partition));
  return Status::OK();
}

Status StoreWriter::Close() {
  if (closed_) return Status::OK();
  for (int t = 0; t < static_cast<int>(buffers_.size()); ++t) {
    while (buffers_[t].num_rows > 0) {
      TG_RETURN_IF_ERROR(FlushPartition(t));
    }
  }
  PadToAlignment(&file_data_);
  std::string footer;
  EncodeStoreFooter(footer_, options_.version, &footer);
  uint64_t footer_checksum = HashBytesFast(footer);
  uint64_t footer_size = footer.size();
  file_data_ += footer;
  PutFixed64(&file_data_, footer_checksum);
  PutFixed64(&file_data_, footer_size);
  file_data_.append(
      options_.version >= kStoreVersionV3 ? kStoreMagicV3 : kStoreMagic,
      sizeof(kStoreMagic));
  closed_ = true;
  return WriteFileAtomic(path_, file_data_);
}

}  // namespace tgraph::storage
