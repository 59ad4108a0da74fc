#ifndef TGRAPH_STORAGE_STORE_FORMAT_H_
#define TGRAPH_STORAGE_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace tgraph::storage {

/// tgraph-store v2/v3: the binary, columnar, section-based graph container.
///
/// The normative byte-level specification lives in docs/FORMAT.md (§1 for
/// the v2 container, §5 for the v3 segment encodings); the constants and
/// layout structs here are the single source the spec is reviewed against.
/// In one sentence: a fixed 16-byte header, a sequence of 8-byte-aligned
/// column segments (one per (table, partition, column)), and a
/// varint-encoded footer holding the section table and per-segment zone
/// maps, sealed by a checksum + length + tail magic trailer so the footer
/// can be located from the end of the file.
///
///   [header 16B] [segment]* [footer] [footer_checksum u64]
///                                    [footer_size u64] [tail magic 8B]
///
/// v3 keeps the container identical and adds per-segment encodings: each
/// footer segment descriptor carries an encoding tag plus the decoded
/// ("plain") size, the segment bytes on disk are the *encoded* payload,
/// and zone maps stay uncompressed in the footer so pushdown never
/// touches encoded bytes. A v3 file whose segments are all kRaw is the v2
/// layout with a different magic/version and one extra descriptor byte
/// per segment.
///
/// All fixed-width integers are little-endian. Variable-width integers are
/// LEB128 varints; length-prefixed byte strings are varint length + raw
/// bytes (the encodings of storage/serde.h).

/// Leading and trailing magic (8 bytes, no NUL terminator on disk).
inline constexpr char kStoreMagic[8] = {'T', 'G', 'S', 'T', 'O', 'R', 'E', '2'};
inline constexpr char kStoreMagicV3[8] = {'T', 'G', 'S', 'T', 'O', 'R',
                                          'E', '3'};
/// Format versions recorded in the header. Readers accept v2 and v3 and
/// reject anything else; the magic's trailing digit must match.
inline constexpr uint32_t kStoreVersion = 2;
inline constexpr uint32_t kStoreVersionV3 = 3;
/// Header flag bit: all fixed-width integers (and int64/double column
/// segments) are little-endian. Always set by the writer; readers on
/// big-endian hosts reject the file rather than byte-swap, because column
/// segments are reinterpreted in place (zero-copy).
inline constexpr uint32_t kStoreFlagLittleEndian = 0x1;
/// Header: magic(8) + version(u32) + flags(u32).
inline constexpr size_t kStoreHeaderSize = 16;
/// Trailer: footer_checksum(u64) + footer_size(u64) + magic(8).
inline constexpr size_t kStoreTrailerSize = 24;
/// Every segment starts on an 8-byte boundary so int64 segments can be
/// reinterpreted as aligned arrays. Gaps are zero-filled pad bytes.
inline constexpr size_t kStoreSegmentAlignment = 8;

/// \brief How one segment's bytes are encoded on disk (v3; docs/FORMAT.md
/// §5). v2 files are always kRaw. The decoder reconstructs the raw v2
/// segment layout exactly, so every reader code path downstream of decode
/// is encoding-agnostic.
enum class SegmentEncoding : uint8_t {
  kRaw = 0,               ///< v2 layout verbatim; the mandatory fallback.
  kDeltaVarint = 1,       ///< int64: zigzag-varint first value + deltas.
  kFrameOfReference = 2,  ///< int64: base + fixed-width bit-packed offsets.
  kDictionary = 3,        ///< binary: value dictionary + bit-packed codes.
  kRunLength = 4,         ///< bool: (value, run length) pairs.
  kDeltaRunLength = 5,    ///< int64: (delta, run length) pairs.
};
/// Highest encoding tag a reader understands; greater tags are IoError.
inline constexpr uint8_t kStoreMaxSegmentEncoding = 5;

/// Name used in docs, stats output, and bench reports ("raw",
/// "delta_varint", "for", "dict", "rle", "delta_rle").
const char* SegmentEncodingName(SegmentEncoding encoding);

/// Whether `encoding` may legally be applied to a column of `type`:
/// int64 -> raw/delta_varint/for/delta_rle, double -> raw, bool -> raw/rle,
/// binary -> raw/dict. Anything else in a footer is IoError.
bool SegmentEncodingApplies(SegmentEncoding encoding, ColumnType type);

/// Upper bound on the decoded ("plain") size of one encoded segment.
/// Caps the heap allocation a corrupt footer can provoke before the
/// decoder's byte-exact size check rejects the segment.
inline constexpr uint64_t kStoreMaxPlainSegmentSize = 1ull << 30;

/// Well-known footer metadata keys written by the graph_io writers.
inline constexpr char kStoreMetaLifetimeStart[] = "lifetime_start";
inline constexpr char kStoreMetaLifetimeEnd[] = "lifetime_end";
inline constexpr char kStoreMetaSortOrder[] = "sort_order";
/// The representation the file stores: "ve", "og", or "ogc".
inline constexpr char kStoreMetaRepresentation[] = "representation";

/// \brief Location, integrity, and zone map of one column segment: the
/// encoded bytes of one column of one partition.
struct SegmentMeta {
  uint64_t offset = 0;     ///< Absolute file offset; 8-byte aligned.
  uint64_t byte_size = 0;  ///< Encoded bytes, excluding alignment padding.
  /// Hash over the segment's *on-disk* (encoded) bytes; verified before a
  /// segment is decoded, so on-disk corruption surfaces as IoError, never
  /// bad data — and pruned partitions are never hashed at all.
  uint64_t checksum = 0;
  /// How the on-disk bytes are encoded (always kRaw in v2 files).
  SegmentEncoding encoding = SegmentEncoding::kRaw;
  /// Decoded size in bytes — the raw v2 layout the decoder reconstructs.
  /// Serialized only for encoded segments; equal to byte_size for kRaw.
  uint64_t plain_size = 0;
  /// Zone map: min/max of an int64 column's values. The pair of zone maps
  /// on a table's interval columns (start/end or first/last) is what
  /// temporal pushdown evaluates before touching the segment's pages.
  /// Stored uncompressed in the footer regardless of segment encoding.
  ColumnStats stats;
};

/// \brief One horizontal slice of a table: `num_rows` rows, one segment
/// per schema column. The unit of parallel loading and of pushdown
/// skipping.
struct PartitionMeta {
  int64_t num_rows = 0;
  std::vector<SegmentMeta> segments;  ///< Aligned with the table schema.

  /// The per-column zone maps, in the shape Predicate::MaybeMatches wants.
  std::vector<ColumnStats> ColumnStatsView() const;
};

/// \brief One named table (e.g. "vertices", "edges") with its schema and
/// partitions.
struct TableMeta {
  std::string name;
  Schema schema;
  std::vector<PartitionMeta> partitions;
};

/// \brief Everything the footer records: free-form metadata plus the
/// section table.
struct StoreFooter {
  std::vector<std::pair<std::string, std::string>> metadata;
  std::vector<TableMeta> tables;

  /// Index of the table named `name`, or -1.
  int FindTable(const std::string& name) const;
  /// Metadata value for `key`, or nullptr.
  const std::string* FindMetadata(const std::string& key) const;
};

/// Serializes the footer body (no trailer; the writer seals it). The
/// `version` selects the segment-descriptor grammar: v2 descriptors have
/// no encoding tag (and the caller must not have set one), v3 descriptors
/// carry encoding + plain size (docs/FORMAT.md §5.2).
void EncodeStoreFooter(const StoreFooter& footer, uint32_t version,
                       std::string* out);

/// Parses a footer body under the given version's grammar. Structural
/// failures (truncation, bad types, unknown or inapplicable encodings)
/// return IoError.
Status DecodeStoreFooter(std::string_view data, uint32_t version,
                         StoreFooter* footer);

/// \brief Cross-checks a decoded footer against the file size: header and
/// trailer bounds, segment alignment, per-type byte sizes (int64/double =
/// 8*rows, bool = rows, binary >= 8*(rows+1) — applied to byte_size for
/// raw segments and to plain_size for encoded ones, whose plain_size is
/// additionally capped by kStoreMaxPlainSegmentSize), segments within the
/// data area, and pairwise non-overlap of all segments. Returns IoError
/// with the first violation; a footer that passes cannot make the reader
/// index out of the mapping nor allocate an unbounded decode buffer.
Status ValidateStoreLayout(const StoreFooter& footer, uint64_t file_size,
                           uint64_t data_end);

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_STORE_FORMAT_H_
