#include "storage/encodings.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/serde.h"

namespace tgraph::storage {

namespace {

/// Standard zigzag mapping so small-magnitude deltas of either sign get
/// short varints: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t u) {
  return static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
}

/// Appends values of `width` bits each, LSB-first within and across
/// bytes; the final partial byte is zero-padded (FORMAT.md §5.1).
class BitPacker {
 public:
  explicit BitPacker(std::string* out) : out_(out) {}

  void Append(uint64_t value, int width) {
    for (int b = 0; b < width; ++b) {
      if (bit_ == 0) out_->push_back('\0');
      if ((value >> b) & 1) {
        out_->back() = static_cast<char>(
            static_cast<uint8_t>(out_->back()) | (1u << bit_));
      }
      bit_ = (bit_ + 1) & 7;
    }
  }

 private:
  std::string* out_;
  int bit_ = 0;
};

/// Reads back-to-back `width`-bit values from an exactly-sized buffer.
/// The caller has already checked the buffer holds ceil(n * width / 8)
/// bytes, so Read never indexes out of bounds. Bits are consumed through
/// a 64-bit staging word refilled 8 bytes at a time (byte-wise only for
/// the sub-word tail), so decode cost is ~width/64 refills per value
/// instead of one branch per bit — this loop is the hot path of every
/// frame-of-reference and dictionary segment on the cold-load path.
class BitReader {
 public:
  explicit BitReader(std::string_view bytes) : bytes_(bytes) {}

  uint64_t Read(int width) {
    uint64_t value = 0;
    int got = 0;
    while (got < width) {
      if (nbits_ == 0) Refill();
      int take = std::min(width - got, nbits_);
      uint64_t mask = take == 64 ? ~0ull : (1ull << take) - 1;
      value |= (buffer_ & mask) << got;
      buffer_ = take == 64 ? 0 : buffer_ >> take;
      nbits_ -= take;
      got += take;
    }
    return value;
  }

  /// All bits from the read cursor to the end of the buffer are zero —
  /// the canonical-padding rule that makes encodings byte-deterministic.
  bool PaddingIsZero() const {
    if (buffer_ != 0) return false;
    for (size_t i = byte_pos_; i < bytes_.size(); ++i) {
      if (bytes_[i] != 0) return false;
    }
    return true;
  }

 private:
  void Refill() {
    size_t remaining = bytes_.size() - byte_pos_;
    if (remaining >= 8) {
      std::memcpy(&buffer_, bytes_.data() + byte_pos_, 8);
      byte_pos_ += 8;
      nbits_ = 64;
    } else {
      buffer_ = 0;
      std::memcpy(&buffer_, bytes_.data() + byte_pos_, remaining);
      byte_pos_ += remaining;
      nbits_ = static_cast<int>(remaining * 8);
    }
  }

  std::string_view bytes_;
  size_t byte_pos_ = 0;
  uint64_t buffer_ = 0;
  int nbits_ = 0;
};

inline size_t PackedBytes(size_t n, int width) {
  return (n * static_cast<size_t>(width) + 7) / 8;
}

/// Minimal width for codes in [0, count): 0 when a single entry suffices.
inline int CodeWidth(uint64_t count) {
  return count <= 1 ? 0 : std::bit_width(count - 1);
}

}  // namespace

void EncodeDeltaVarint(std::span<const int64_t> values, std::string* out) {
  if (values.empty()) return;
  PutVarint(out, ZigZagEncode(values[0]));
  for (size_t i = 1; i < values.size(); ++i) {
    // Two's-complement wraparound subtraction: the delta round-trips even
    // when the true difference overflows int64.
    uint64_t delta = static_cast<uint64_t>(values[i]) -
                     static_cast<uint64_t>(values[i - 1]);
    PutVarint(out, ZigZagEncode(static_cast<int64_t>(delta)));
  }
}

void EncodeFrameOfReference(std::span<const int64_t> values,
                            std::string* out) {
  int64_t base = 0;
  int width = 0;
  if (!values.empty()) {
    auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
    base = *min_it;
    uint64_t range =
        static_cast<uint64_t>(*max_it) - static_cast<uint64_t>(base);
    width = range == 0 ? 0 : std::bit_width(range);
  }
  PutFixed64(out, static_cast<uint64_t>(base));
  out->push_back(static_cast<char>(width));
  BitPacker packer(out);
  for (int64_t v : values) {
    packer.Append(static_cast<uint64_t>(v) - static_cast<uint64_t>(base),
                  width);
  }
}

bool EncodeDictionary(const std::string* values, size_t n, std::string* out) {
  constexpr size_t kMaxEntries = 255;
  std::unordered_map<std::string_view, uint8_t> index;
  std::vector<std::string_view> entries;
  std::vector<uint8_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = index.try_emplace(
        values[i], static_cast<uint8_t>(entries.size()));
    if (inserted) {
      if (entries.size() == kMaxEntries) return false;
      entries.push_back(values[i]);
    }
    codes[i] = it->second;
  }
  PutVarint(out, entries.size());
  for (std::string_view entry : entries) PutBytes(out, entry);
  int width = CodeWidth(entries.size());
  out->push_back(static_cast<char>(width));
  BitPacker packer(out);
  for (uint8_t code : codes) packer.Append(code, width);
  return true;
}

void EncodeDeltaRunLength(std::span<const int64_t> values, std::string* out) {
  std::vector<std::pair<uint64_t, uint64_t>> runs;  // (delta, length)
  uint64_t previous = 0;
  for (int64_t v : values) {
    const uint64_t delta = static_cast<uint64_t>(v) - previous;  // mod 2^64
    previous = static_cast<uint64_t>(v);
    if (!runs.empty() && runs.back().first == delta) {
      ++runs.back().second;
    } else {
      runs.emplace_back(delta, 1);
    }
  }
  PutVarint(out, runs.size());
  for (const auto& [delta, length] : runs) {
    PutVarint(out, ZigZagEncode(static_cast<int64_t>(delta)));
    PutVarint(out, length);
  }
}

bool EncodeRunLength(std::span<const uint8_t> values, std::string* out) {
  std::vector<std::pair<uint8_t, uint64_t>> runs;
  for (uint8_t v : values) {
    if (v > 1) return false;
    if (!runs.empty() && runs.back().first == v) {
      ++runs.back().second;
    } else {
      runs.emplace_back(v, 1);
    }
  }
  PutVarint(out, runs.size());
  for (const auto& [value, length] : runs) {
    out->push_back(static_cast<char>(value));
    PutVarint(out, length);
  }
  return true;
}

namespace {

Status DecodeDeltaVarint(std::string_view encoded, size_t rows,
                         std::string* out) {
  out->resize(rows * 8);
  char* dst = out->data();
  size_t pos = 0;
  uint64_t value = 0;
  for (size_t i = 0; i < rows; ++i) {
    TG_ASSIGN_OR_RETURN(uint64_t zigzag, GetVarint(encoded, &pos));
    uint64_t delta = static_cast<uint64_t>(ZigZagDecode(zigzag));
    value = i == 0 ? delta : value + delta;  // wraparound mirrors encode
    std::memcpy(dst + i * 8, &value, 8);
  }
  if (pos != encoded.size()) {
    return Status::IoError("delta_varint segment has trailing bytes");
  }
  return Status::OK();
}

Status DecodeFrameOfReference(std::string_view encoded, size_t rows,
                              std::string* out) {
  size_t pos = 0;
  TG_ASSIGN_OR_RETURN(uint64_t base, GetFixed64(encoded, &pos));
  if (pos >= encoded.size()) {
    return Status::IoError("for segment is truncated before its bit width");
  }
  int width = static_cast<uint8_t>(encoded[pos]);
  ++pos;
  if (width > 64) {
    return Status::IoError("for segment has out-of-range bit width " +
                           std::to_string(width));
  }
  if (encoded.size() - pos != PackedBytes(rows, width)) {
    return Status::IoError("for segment packed size does not match " +
                           std::to_string(rows) + " rows");
  }
  BitReader reader(encoded.substr(pos));
  out->resize(rows * 8);
  char* dst = out->data();
  for (size_t i = 0; i < rows; ++i) {
    uint64_t value = base + reader.Read(width);
    std::memcpy(dst + i * 8, &value, 8);
  }
  if (!reader.PaddingIsZero()) {
    return Status::IoError("for segment has nonzero padding bits");
  }
  return Status::OK();
}

Status DecodeDictionary(std::string_view encoded, size_t rows,
                        uint64_t plain_size, std::string* out) {
  size_t pos = 0;
  TG_ASSIGN_OR_RETURN(uint64_t dict_count, GetVarint(encoded, &pos));
  if (dict_count > 255) {
    return Status::IoError("dict segment has too many entries (" +
                           std::to_string(dict_count) + ")");
  }
  if (rows > 0 && dict_count == 0) {
    return Status::IoError("dict segment has rows but no entries");
  }
  std::vector<std::string_view> entries;
  entries.reserve(static_cast<size_t>(dict_count));
  for (uint64_t i = 0; i < dict_count; ++i) {
    TG_ASSIGN_OR_RETURN(std::string_view entry, GetBytes(encoded, &pos));
    entries.push_back(entry);
  }
  if (pos >= encoded.size()) {
    return Status::IoError("dict segment is truncated before its code width");
  }
  int width = static_cast<uint8_t>(encoded[pos]);
  ++pos;
  // The width is fully determined by dict_count; accepting wider codes
  // would make the encoding non-canonical and let corrupt files smuggle
  // out-of-range codes past the size check.
  if (width != CodeWidth(dict_count)) {
    return Status::IoError("dict segment has out-of-range code width " +
                           std::to_string(width));
  }
  if (encoded.size() - pos != PackedBytes(rows, width)) {
    return Status::IoError("dict segment packed size does not match " +
                           std::to_string(rows) + " rows");
  }
  BitReader reader(encoded.substr(pos));
  std::vector<uint8_t> codes(rows);
  uint64_t payload_size = 0;
  for (size_t i = 0; i < rows; ++i) {
    uint64_t code = reader.Read(width);
    if (code >= dict_count) {
      return Status::IoError("dict segment has out-of-range code " +
                             std::to_string(code));
    }
    codes[i] = static_cast<uint8_t>(code);
    payload_size += entries[codes[i]].size();
  }
  if (!reader.PaddingIsZero()) {
    return Status::IoError("dict segment has nonzero padding bits");
  }
  if (plain_size != (rows + 1) * 8 + payload_size) {
    return Status::IoError("dict segment decodes to a different plain size");
  }
  out->resize(static_cast<size_t>(plain_size));
  char* dst = out->data();
  uint64_t cursor = 0;
  char* payload = dst + (rows + 1) * 8;
  std::memcpy(dst, &cursor, 8);
  for (size_t i = 0; i < rows; ++i) {
    std::string_view entry = entries[codes[i]];
    std::memcpy(payload + cursor, entry.data(), entry.size());
    cursor += entry.size();
    std::memcpy(dst + (i + 1) * 8, &cursor, 8);
  }
  return Status::OK();
}

Status DecodeRunLength(std::string_view encoded, size_t rows,
                       std::string* out) {
  size_t pos = 0;
  TG_ASSIGN_OR_RETURN(uint64_t run_count, GetVarint(encoded, &pos));
  out->resize(rows);
  size_t filled = 0;
  for (uint64_t r = 0; r < run_count; ++r) {
    if (pos >= encoded.size()) {
      return Status::IoError("rle segment is truncated mid-run");
    }
    uint8_t value = static_cast<uint8_t>(encoded[pos]);
    ++pos;
    if (value > 1) {
      return Status::IoError("rle segment has non-boolean run value " +
                             std::to_string(value));
    }
    TG_ASSIGN_OR_RETURN(uint64_t length, GetVarint(encoded, &pos));
    if (length == 0) {
      return Status::IoError("rle segment has an empty run");
    }
    if (length > rows - filled) {
      return Status::IoError("rle segment runs overflow the row count");
    }
    std::memset(out->data() + filled, value, static_cast<size_t>(length));
    filled += static_cast<size_t>(length);
  }
  if (filled != rows) {
    return Status::IoError("rle segment runs cover " + std::to_string(filled) +
                           " of " + std::to_string(rows) + " rows");
  }
  if (pos != encoded.size()) {
    return Status::IoError("rle segment has trailing bytes");
  }
  return Status::OK();
}

Status DecodeDeltaRunLength(std::string_view encoded, size_t rows,
                            std::string* out) {
  size_t pos = 0;
  TG_ASSIGN_OR_RETURN(uint64_t run_count, GetVarint(encoded, &pos));
  out->resize(rows * 8);
  char* dst = out->data();
  size_t filled = 0;
  uint64_t value = 0;
  for (uint64_t r = 0; r < run_count; ++r) {
    TG_ASSIGN_OR_RETURN(uint64_t zigzag, GetVarint(encoded, &pos));
    TG_ASSIGN_OR_RETURN(uint64_t length, GetVarint(encoded, &pos));
    if (length == 0) {
      return Status::IoError("delta_rle segment has an empty run");
    }
    if (length > rows - filled) {
      return Status::IoError("delta_rle segment runs overflow the row count");
    }
    const uint64_t delta = static_cast<uint64_t>(ZigZagDecode(zigzag));
    for (uint64_t k = 0; k < length; ++k) {
      value += delta;  // wraparound mirrors encode
      std::memcpy(dst + filled * 8, &value, 8);
      ++filled;
    }
  }
  if (filled != rows) {
    return Status::IoError("delta_rle segment runs cover " +
                           std::to_string(filled) + " of " +
                           std::to_string(rows) + " rows");
  }
  if (pos != encoded.size()) {
    return Status::IoError("delta_rle segment has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Status DecodeSegment(SegmentEncoding encoding, ColumnType type,
                     std::string_view encoded, size_t rows,
                     uint64_t plain_size, std::string* out) {
  out->clear();
  if (!SegmentEncodingApplies(encoding, type)) {
    return Status::IoError(std::string("encoding ") +
                           SegmentEncodingName(encoding) +
                           " does not apply to this column type");
  }
  if (plain_size > kStoreMaxPlainSegmentSize) {
    return Status::IoError("segment plain size is implausibly large");
  }
  switch (encoding) {
    case SegmentEncoding::kRaw:
      return Status::IoError("raw segments are served zero-copy, not decoded");
    case SegmentEncoding::kDeltaVarint:
      if (plain_size != rows * 8) {
        return Status::IoError("delta_varint plain size does not match rows");
      }
      TG_RETURN_IF_ERROR(DecodeDeltaVarint(encoded, rows, out));
      break;
    case SegmentEncoding::kFrameOfReference:
      if (plain_size != rows * 8) {
        return Status::IoError("for plain size does not match rows");
      }
      TG_RETURN_IF_ERROR(DecodeFrameOfReference(encoded, rows, out));
      break;
    case SegmentEncoding::kDictionary:
      TG_RETURN_IF_ERROR(DecodeDictionary(encoded, rows, plain_size, out));
      break;
    case SegmentEncoding::kRunLength:
      if (plain_size != rows) {
        return Status::IoError("rle plain size does not match rows");
      }
      TG_RETURN_IF_ERROR(DecodeRunLength(encoded, rows, out));
      break;
    case SegmentEncoding::kDeltaRunLength:
      if (plain_size != rows * 8) {
        return Status::IoError("delta_rle plain size does not match rows");
      }
      TG_RETURN_IF_ERROR(DecodeDeltaRunLength(encoded, rows, out));
      break;
  }
  if (out->size() != plain_size) {
    return Status::IoError("segment decoded to a different plain size");
  }
  return Status::OK();
}

}  // namespace tgraph::storage
