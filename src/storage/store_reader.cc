#include "storage/store_reader.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/encodings.h"
#include "storage/predicate.h"
#include "storage/serde.h"

namespace tgraph::storage {

Result<std::unique_ptr<StoreReader>> StoreReader::Open(
    const std::string& path) {
  TG_ASSIGN_OR_RETURN(MmapFile file, MmapFile::Open(path));
  std::string_view data = file.data();
  const char* magic = nullptr;
  uint32_t expected_version = 0;
  if (data.size() >= kStoreHeaderSize + kStoreTrailerSize) {
    if (data.compare(0, sizeof(kStoreMagic), kStoreMagic,
                     sizeof(kStoreMagic)) == 0) {
      magic = kStoreMagic;
      expected_version = kStoreVersion;
    } else if (data.compare(0, sizeof(kStoreMagicV3), kStoreMagicV3,
                            sizeof(kStoreMagicV3)) == 0) {
      magic = kStoreMagicV3;
      expected_version = kStoreVersionV3;
    }
  }
  if (magic == nullptr) {
    return Status::IoError(path + " is not a tgraph-store file");
  }
  if (data.compare(data.size() - sizeof(kStoreMagic), sizeof(kStoreMagic),
                   magic, sizeof(kStoreMagic)) != 0) {
    return Status::IoError(path + " has a corrupt trailer magic");
  }
  size_t pos = sizeof(kStoreMagic);
  TG_ASSIGN_OR_RETURN(uint64_t version_flags, GetFixed64(data, &pos));
  uint32_t version = static_cast<uint32_t>(version_flags & 0xffffffffu);
  uint32_t flags = static_cast<uint32_t>(version_flags >> 32);
  if (version != expected_version) {
    return Status::IoError(path + " has unsupported store version " +
                           std::to_string(version));
  }
  if ((flags & kStoreFlagLittleEndian) == 0 ||
      std::endian::native != std::endian::little) {
    return Status::IoError(path +
                           " endianness does not match this host (zero-copy "
                           "segments cannot be byte-swapped)");
  }
  pos = data.size() - kStoreTrailerSize;
  TG_ASSIGN_OR_RETURN(uint64_t footer_checksum, GetFixed64(data, &pos));
  TG_ASSIGN_OR_RETURN(uint64_t footer_size, GetFixed64(data, &pos));
  uint64_t max_footer =
      data.size() - kStoreHeaderSize - kStoreTrailerSize;
  if (footer_size > max_footer) {
    return Status::IoError(path + " has a corrupt footer length");
  }
  uint64_t data_end = data.size() - kStoreTrailerSize - footer_size;
  std::string_view footer_bytes = data.substr(data_end, footer_size);
  if (HashBytesFast(footer_bytes) != footer_checksum) {
    return Status::IoError(path +
                           " footer failed checksum verification "
                           "(corrupt file)");
  }
  std::unique_ptr<StoreReader> reader(new StoreReader());
  reader->version_ = version;
  TG_RETURN_IF_ERROR(DecodeStoreFooter(footer_bytes, version, &reader->footer_));
  TG_RETURN_IF_ERROR(
      ValidateStoreLayout(reader->footer_, data.size(), data_end));
  size_t num_segments = 0;
  reader->segment_base_.resize(reader->footer_.tables.size());
  for (size_t t = 0; t < reader->footer_.tables.size(); ++t) {
    const TableMeta& table = reader->footer_.tables[t];
    reader->segment_base_[t].reserve(table.partitions.size());
    for (const PartitionMeta& partition : table.partitions) {
      reader->segment_base_[t].push_back(num_segments);
      num_segments += partition.segments.size();
    }
  }
  reader->num_segments_ = num_segments;
  reader->verified_ =
      std::make_unique<std::atomic<uint8_t>[]>(std::max<size_t>(num_segments, 1));
  reader->decoded_ = std::make_unique<std::atomic<const std::string*>[]>(
      std::max<size_t>(num_segments, 1));
  for (size_t i = 0; i < num_segments; ++i) {
    reader->verified_[i].store(0, std::memory_order_relaxed);
    reader->decoded_[i].store(nullptr, std::memory_order_relaxed);
  }
  reader->file_ = std::move(file);
  return reader;
}

StoreReader::~StoreReader() {
  uint64_t released = 0;
  for (size_t i = 0; i < num_segments_; ++i) {
    const std::string* buffer = decoded_[i].load(std::memory_order_acquire);
    if (buffer != nullptr) {
      released += buffer->size();
      delete buffer;
    }
  }
  if (released > 0) {
    obs::MetricsRegistry::Global()
        .GetGauge(obs::metric_names::kStoreDecodeCacheBytes)
        ->Add(-static_cast<int64_t>(released));
  }
}

int64_t StoreReader::TableRows(int t) const {
  int64_t total = 0;
  for (const PartitionMeta& partition : footer_.tables[t].partitions) {
    total += partition.num_rows;
  }
  return total;
}

bool StoreReader::PartitionMaybeMatches(int t, size_t partition,
                                        const Predicate& predicate) const {
  const TableMeta& table = footer_.tables[t];
  return predicate.MaybeMatches(table.schema,
                                table.partitions[partition].ColumnStatsView());
}

Status StoreReader::CheckIndex(int t, size_t partition, int column,
                               ColumnType expected) const {
  if (t < 0 || t >= static_cast<int>(footer_.tables.size())) {
    return Status::InvalidArgument("store table index out of range");
  }
  const TableMeta& table = footer_.tables[t];
  if (partition >= table.partitions.size()) {
    return Status::InvalidArgument("store partition index out of range");
  }
  if (column < 0 ||
      column >= static_cast<int>(table.schema.columns.size())) {
    return Status::InvalidArgument("store column index out of range");
  }
  if (table.schema.columns[column].type != expected) {
    return Status::InvalidArgument("store column '" +
                                   table.schema.columns[column].name +
                                   "' has a different type");
  }
  return Status::OK();
}

std::string_view StoreReader::SegmentBytes(const SegmentMeta& segment) const {
  return file_.data().substr(segment.offset, segment.byte_size);
}

std::string_view StoreReader::PlainBytes(int t, size_t partition,
                                         int column) const {
  const SegmentMeta& segment =
      footer_.tables[t].partitions[partition].segments[column];
  if (segment.encoding == SegmentEncoding::kRaw) return SegmentBytes(segment);
  const std::string* buffer =
      decoded_[FlatIndex(t, partition, column)].load(std::memory_order_acquire);
  return std::string_view(*buffer);
}

Status StoreReader::VerifySegment(int t, size_t partition, int column) const {
  size_t flat = FlatIndex(t, partition, column);
  std::atomic<uint8_t>& flag = verified_[flat];
  const TableMeta& table = footer_.tables[t];
  const PartitionMeta& part = table.partitions[partition];
  const SegmentMeta& segment = part.segments[column];
  if (flag.load(std::memory_order_acquire) != 0) {
    if (segment.encoding != SegmentEncoding::kRaw) {
      static obs::Counter* cache_hits =
          obs::MetricsRegistry::Global().GetCounter(
              obs::metric_names::kStoreDecodeCacheHits);
      cache_hits->Increment();
    }
    return Status::OK();
  }
  std::string_view bytes = SegmentBytes(segment);
  std::string which = "store table '" + table.name + "' partition " +
                      std::to_string(partition) + " column '" +
                      table.schema.columns[column].name + "'";
  // The checksum covers the on-disk (encoded) bytes, so corruption is
  // detected before the decoder ever parses attacker-controlled input.
  if (HashBytesFast(bytes) != segment.checksum) {
    return Status::IoError(which +
                           " failed checksum verification (corrupt file)");
  }
  size_t rows = static_cast<size_t>(part.num_rows);
  std::string_view plain = bytes;
  std::unique_ptr<std::string> decoded_buffer;
  if (segment.encoding != SegmentEncoding::kRaw) {
    decoded_buffer = std::make_unique<std::string>();
    Status status = DecodeSegment(segment.encoding,
                                  table.schema.columns[column].type, bytes,
                                  rows, segment.plain_size,
                                  decoded_buffer.get());
    if (!status.ok()) {
      return Status::IoError(which + ": " + status.message());
    }
    plain = *decoded_buffer;
  }
  switch (table.schema.columns[column].type) {
    case ColumnType::kInt64: {
      // Detect zone-map lies: a footer whose min/max disagree with the
      // segment's contents would let pushdown skip (or scan) the wrong
      // partitions silently.
      const int64_t* values =
          reinterpret_cast<const int64_t*>(plain.data());
      if (rows > 0 && segment.stats.has_int_stats) {
        auto [min_it, max_it] = std::minmax_element(values, values + rows);
        if (*min_it != segment.stats.min_int ||
            *max_it != segment.stats.max_int) {
          return Status::IoError(which +
                                 " zone map does not match segment contents "
                                 "(corrupt file)");
        }
      }
      break;
    }
    case ColumnType::kBinary: {
      const uint64_t* offsets =
          reinterpret_cast<const uint64_t*>(plain.data());
      uint64_t payload_size = plain.size() - (rows + 1) * 8;
      if (offsets[0] != 0 || offsets[rows] != payload_size) {
        return Status::IoError(which + " has corrupt binary offsets");
      }
      for (size_t i = 0; i < rows; ++i) {
        if (offsets[i] > offsets[i + 1]) {
          return Status::IoError(which + " has non-monotonic binary offsets");
        }
      }
      break;
    }
    case ColumnType::kDouble:
    case ColumnType::kBool:
      break;
  }
  if (decoded_buffer != nullptr) {
    static obs::Counter* segments_decoded =
        obs::MetricsRegistry::Global().GetCounter(
            obs::metric_names::kStoreSegmentsDecoded);
    static obs::Counter* decoded_bytes_counter =
        obs::MetricsRegistry::Global().GetCounter(
            obs::metric_names::kStoreDecodedBytes);
    static obs::Gauge* cache_bytes = obs::MetricsRegistry::Global().GetGauge(
        obs::metric_names::kStoreDecodeCacheBytes);
    const std::string* expected = nullptr;
    if (decoded_[flat].compare_exchange_strong(expected,
                                               decoded_buffer.get(),
                                               std::memory_order_release,
                                               std::memory_order_acquire)) {
      uint64_t size = decoded_buffer->size();
      decoded_buffer.release();  // now owned by the cache slot
      decoded_bytes_.fetch_add(size, std::memory_order_relaxed);
      segments_decoded->Increment();
      decoded_bytes_counter->Add(static_cast<int64_t>(size));
      cache_bytes->Add(static_cast<int64_t>(size));
    }
    // A racing first touch already published its buffer; ours is dropped.
  }
  flag.store(1, std::memory_order_release);
  obs::AddQueryCounter(obs::QueryCounter::kStoreSegmentVerifies, 1);
  obs::AddQueryCounter(obs::QueryCounter::kStoreVerifiedBytes,
                       static_cast<int64_t>(segment.byte_size));
  return Status::OK();
}

Result<std::span<const int64_t>> StoreReader::Int64Column(int t,
                                                          size_t partition,
                                                          int column) const {
  TG_RETURN_IF_ERROR(CheckIndex(t, partition, column, ColumnType::kInt64));
  TG_RETURN_IF_ERROR(VerifySegment(t, partition, column));
  const PartitionMeta& part = footer_.tables[t].partitions[partition];
  std::string_view bytes = PlainBytes(t, partition, column);
  return std::span<const int64_t>(
      reinterpret_cast<const int64_t*>(bytes.data()),
      static_cast<size_t>(part.num_rows));
}

Result<std::span<const double>> StoreReader::DoubleColumn(int t,
                                                          size_t partition,
                                                          int column) const {
  TG_RETURN_IF_ERROR(CheckIndex(t, partition, column, ColumnType::kDouble));
  TG_RETURN_IF_ERROR(VerifySegment(t, partition, column));
  const PartitionMeta& part = footer_.tables[t].partitions[partition];
  std::string_view bytes = PlainBytes(t, partition, column);
  return std::span<const double>(
      reinterpret_cast<const double*>(bytes.data()),
      static_cast<size_t>(part.num_rows));
}

Result<std::span<const uint8_t>> StoreReader::BoolColumn(int t,
                                                         size_t partition,
                                                         int column) const {
  TG_RETURN_IF_ERROR(CheckIndex(t, partition, column, ColumnType::kBool));
  TG_RETURN_IF_ERROR(VerifySegment(t, partition, column));
  const PartitionMeta& part = footer_.tables[t].partitions[partition];
  std::string_view bytes = PlainBytes(t, partition, column);
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()),
      static_cast<size_t>(part.num_rows));
}

Result<StoreReader::BinaryColumnView> StoreReader::BinaryColumn(
    int t, size_t partition, int column) const {
  TG_RETURN_IF_ERROR(CheckIndex(t, partition, column, ColumnType::kBinary));
  TG_RETURN_IF_ERROR(VerifySegment(t, partition, column));
  const PartitionMeta& part = footer_.tables[t].partitions[partition];
  std::string_view bytes = PlainBytes(t, partition, column);
  size_t rows = static_cast<size_t>(part.num_rows);
  BinaryColumnView view;
  view.offsets = std::span<const uint64_t>(
      reinterpret_cast<const uint64_t*>(bytes.data()), rows + 1);
  view.payload = bytes.substr((rows + 1) * 8);
  return view;
}

}  // namespace tgraph::storage
