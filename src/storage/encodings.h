#ifndef TGRAPH_STORAGE_ENCODINGS_H_
#define TGRAPH_STORAGE_ENCODINGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/store_format.h"
#include "storage/table.h"

namespace tgraph::storage {

/// Per-segment codecs for tgraph-store v3. The byte-level wire layout of
/// every encoding is specified normatively in docs/FORMAT.md §5; this
/// header is the implementation's contract with that spec.
///
/// Encoders append the encoded payload to `out` and never fail: the
/// writer compares the encoded size against the raw layout and falls back
/// to kRaw when encoding does not help (or, for the dictionary, when the
/// column has too many distinct values — signalled by a false return).
///
/// Decoders reconstruct the *raw v2 segment layout* byte-for-byte:
/// int64 -> rows * 8 little-endian bytes, bool -> rows bytes, binary ->
/// (rows + 1) u64 end offsets + payload. Everything downstream of decode
/// (verification invariants, zero-copy accessors) is therefore
/// encoding-agnostic. Decoders are fully bounds-checked and return
/// IoError on any structural defect — truncation, out-of-range codes or
/// widths, run-length overflow, trailing bytes — never undefined
/// behavior, because encoded bytes are attacker-controlled input.

// --- encoders -------------------------------------------------------------

/// zvarint(v[0]), then zvarint(v[i] - v[i-1]) for i in [1, n). Deltas are
/// computed with two's-complement wraparound so INT64_MIN..INT64_MAX
/// ranges round-trip exactly.
void EncodeDeltaVarint(std::span<const int64_t> values, std::string* out);

/// base: fixed64 (the minimum value), width: u8 in [0, 64], then
/// ceil(n * width / 8) bytes of LSB-first bit-packed (v[i] - base).
/// Unused trailing bits of the last byte are zero.
void EncodeFrameOfReference(std::span<const int64_t> values, std::string* out);

/// run_count: varint, then run_count pairs of (delta: zvarint, length:
/// varint >= 1): the deltas of EncodeDeltaVarint, the first one taken
/// from 0, run-length encoded. Columns that step by a constant for long
/// stretches (an id repeated over an entity's states, a sequential id,
/// periodic times) take a few bytes per stretch instead of one per row.
void EncodeDeltaRunLength(std::span<const int64_t> values, std::string* out);

/// dict_count: varint, dict_count length-prefixed byte strings (first
/// occurrence order), width: u8, then ceil(n * width / 8) bytes of
/// LSB-first bit-packed codes. Returns false (out untouched) when the
/// column exceeds 255 distinct values — the writer then falls back to raw.
bool EncodeDictionary(const std::string* values, size_t n, std::string* out);

/// run_count: varint, then run_count pairs of (value: u8 in {0, 1},
/// length: varint >= 1). Runs alternate by construction. Returns false
/// (out untouched) when any input byte is outside {0, 1}: such a segment
/// would not round-trip byte-identically, so the writer keeps it raw.
bool EncodeRunLength(std::span<const uint8_t> values, std::string* out);

// --- decoder --------------------------------------------------------------

/// Decodes `encoded` (a whole on-disk segment payload, already
/// checksum-verified) into the raw v2 layout for a column of `type` with
/// `rows` rows. On success `out` holds exactly `plain_size` bytes; any
/// mismatch or structural defect is IoError. kRaw is not accepted here —
/// raw segments are served zero-copy and never pass through a decode
/// buffer.
Status DecodeSegment(SegmentEncoding encoding, ColumnType type,
                     std::string_view encoded, size_t rows,
                     uint64_t plain_size, std::string* out);

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_ENCODINGS_H_
