#ifndef TGRAPH_STORAGE_STORE_READER_H_
#define TGRAPH_STORAGE_STORE_READER_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/mmap_file.h"
#include "storage/store_format.h"

namespace tgraph::storage {

class Predicate;

/// \brief Memory-mapped reader for tgraph-store v2 and v3 files.
///
/// Open maps the file and fully validates its skeleton (header, trailer,
/// footer checksum, section table bounds/alignment/overlap) without
/// touching any column segment, so opening is O(footer) regardless of
/// graph size. Column accessors then return zero-copy views: raw segments
/// are reinterpreted straight out of the mapping, while v3 encoded
/// segments are decoded on first touch into a heap buffer that is cached
/// for the reader's lifetime (the decoded-segment cache) and served
/// zero-copy from then on. Zone maps live uncompressed in the footer, so
/// partitions skipped by pushdown are never decoded — nor even faulted
/// in.
///
/// Each segment's checksum — computed over the on-disk (encoded) bytes —
/// is verified the first time the segment is touched, together with
/// type-specific invariants evaluated on the decoded bytes (int64
/// zone-map agreement, binary offset monotonicity), so corruption
/// surfaces as IoError before any value is served.
///
/// A reader is immutable after Open and safe to share across threads
/// (tgraphd's catalog shares one reader — and therefore one decoded-
/// segment cache — across all queries of a directory); the per-segment
/// verification flags and decode slots are atomics, so concurrent first
/// touches at worst decode twice and keep one result.
class StoreReader {
 public:
  static Result<std::unique_ptr<StoreReader>> Open(const std::string& path);
  ~StoreReader();

  const std::string& path() const { return file_.path(); }
  size_t file_size() const { return file_.size(); }
  /// The identity of the file this reader mapped (MmapFile::identity).
  const std::string& identity() const { return file_.identity(); }
  /// Container version: kStoreVersion (2) or kStoreVersionV3 (3).
  uint32_t version() const { return version_; }
  const StoreFooter& footer() const { return footer_; }
  int FindTable(const std::string& name) const {
    return footer_.FindTable(name);
  }
  const TableMeta& table(int t) const { return footer_.tables[t]; }
  const std::string* FindMetadata(const std::string& key) const {
    return footer_.FindMetadata(key);
  }
  int64_t TableRows(int t) const;

  /// Bytes currently pinned in this reader's decoded-segment cache.
  uint64_t decoded_cache_bytes() const {
    return decoded_bytes_.load(std::memory_order_relaxed);
  }

  /// Hints the kernel to read ahead the whole file (cold-load helper).
  void Prefetch() const { file_.PrefetchAll(); }

  /// Zone-map pushdown: can any row of this partition satisfy the
  /// predicate? Answered from the footer alone — no segment pages are
  /// touched and no segment is decoded.
  bool PartitionMaybeMatches(int t, size_t partition,
                             const Predicate& predicate) const;

  /// The values of an int64 column segment, reinterpreted in place.
  Result<std::span<const int64_t>> Int64Column(int t, size_t partition,
                                               int column) const;
  /// The values of a double column segment, reinterpreted in place.
  Result<std::span<const double>> DoubleColumn(int t, size_t partition,
                                               int column) const;
  /// The values of a bool column segment (one byte per value).
  Result<std::span<const uint8_t>> BoolColumn(int t, size_t partition,
                                              int column) const;

  /// \brief Zero-copy view of a binary column segment: value i is
  /// payload[offsets[i], offsets[i + 1]).
  struct BinaryColumnView {
    std::span<const uint64_t> offsets;  ///< num_rows + 1 entries.
    std::string_view payload;

    size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
    std::string_view Value(size_t row) const {
      return payload.substr(offsets[row], offsets[row + 1] - offsets[row]);
    }
  };
  Result<BinaryColumnView> BinaryColumn(int t, size_t partition,
                                        int column) const;

 private:
  StoreReader() = default;

  Status CheckIndex(int t, size_t partition, int column,
                    ColumnType expected) const;
  size_t FlatIndex(int t, size_t partition, int column) const {
    return segment_base_[t][partition] + static_cast<size_t>(column);
  }
  /// The segment's bytes as written on disk (encoded for v3 segments).
  std::string_view SegmentBytes(const SegmentMeta& segment) const;
  /// The segment's raw-layout bytes: the mmap slice for raw segments, the
  /// decoded-cache buffer for encoded ones. Only valid after VerifySegment
  /// succeeded for this segment.
  std::string_view PlainBytes(int t, size_t partition, int column) const;
  /// First-touch verification and (for encoded segments) decode: checksum
  /// over the on-disk bytes, decode into the pinned cache buffer, then
  /// type-specific invariants (int64 zone-map agreement, binary offset
  /// monotonicity) over the plain bytes.
  Status VerifySegment(int t, size_t partition, int column) const;

  MmapFile file_;
  uint32_t version_ = kStoreVersion;
  StoreFooter footer_;
  std::vector<std::vector<size_t>> segment_base_;  // [table][partition]
  std::unique_ptr<std::atomic<uint8_t>[]> verified_;
  /// Decoded-segment cache: one CAS-published slot per segment, nullptr
  /// until the segment's first touch decodes it. Buffers are pinned until
  /// the reader is destroyed.
  std::unique_ptr<std::atomic<const std::string*>[]> decoded_;
  size_t num_segments_ = 0;
  mutable std::atomic<uint64_t> decoded_bytes_{0};
};

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_STORE_READER_H_
