// Tests for the tgraph-store v3 segment codecs (storage/encodings.h):
// byte-exact round trips through the raw v2 layout, wire-format details
// pinned against docs/FORMAT.md §5, and an adversarial half — truncated
// dictionaries, out-of-range code widths, run-length overflow, nonzero
// padding — where every malformed payload must come back as IoError and
// never UB. These run under ASan/UBSan in CI.

#include "storage/encodings.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "storage/serde.h"
#include "storage/store_format.h"

namespace tgraph::storage {
namespace {

// --- helpers: the raw v2 layouts the decoders must reconstruct -----------

std::string RawInt64Layout(const std::vector<int64_t>& values) {
  std::string raw(values.size() * 8, '\0');
  // An empty vector's data() may be null, which memcpy must never get.
  if (!raw.empty()) std::memcpy(raw.data(), values.data(), raw.size());
  return raw;
}

std::string RawBoolLayout(const std::vector<uint8_t>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size());
}

std::string RawBinaryLayout(const std::vector<std::string>& values) {
  std::string raw((values.size() + 1) * 8, '\0');
  uint64_t cursor = 0;
  std::memcpy(raw.data(), &cursor, 8);
  for (size_t i = 0; i < values.size(); ++i) {
    cursor += values[i].size();
    std::memcpy(raw.data() + (i + 1) * 8, &cursor, 8);
  }
  for (const std::string& v : values) raw += v;
  return raw;
}

Status Decode(SegmentEncoding encoding, ColumnType type,
              std::string_view encoded, size_t rows, uint64_t plain_size,
              std::string* out) {
  return DecodeSegment(encoding, type, encoded, rows, plain_size, out);
}

void ExpectInt64RoundTrip(SegmentEncoding encoding,
                          const std::vector<int64_t>& values) {
  std::string encoded;
  if (encoding == SegmentEncoding::kDeltaVarint) {
    EncodeDeltaVarint(values, &encoded);
  } else if (encoding == SegmentEncoding::kDeltaRunLength) {
    EncodeDeltaRunLength(values, &encoded);
  } else {
    EncodeFrameOfReference(values, &encoded);
  }
  std::string raw = RawInt64Layout(values);
  std::string decoded;
  Status status = Decode(encoding, ColumnType::kInt64, encoded, values.size(),
                         raw.size(), &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded, raw) << SegmentEncodingName(encoding);
}

// --- round trips ----------------------------------------------------------

TEST(StoreEncodingsTest, Int64RoundTrips) {
  std::vector<std::vector<int64_t>> cases = {
      {},                              // FOR only: delta of 0 rows is empty
      {0},
      {42},
      {-7, -7, -7, -7},                // constant -> FOR width 0
      {1, 2, 3, 4, 5, 6, 7},           // sorted, small deltas
      {100, 90, 95, 80, 120},          // non-monotone
      {std::numeric_limits<int64_t>::min(),
       std::numeric_limits<int64_t>::max(), 0, -1, 1},
  };
  for (const auto& values : cases) {
    ExpectInt64RoundTrip(SegmentEncoding::kFrameOfReference, values);
    ExpectInt64RoundTrip(SegmentEncoding::kDeltaRunLength, values);
    if (!values.empty()) {
      ExpectInt64RoundTrip(SegmentEncoding::kDeltaVarint, values);
    }
  }
}

TEST(StoreEncodingsTest, DeltaVarintWrapsAroundExtremes) {
  // max -> min is a delta that overflows int64; two's-complement
  // wraparound must still round-trip it exactly.
  std::vector<int64_t> values = {std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  ExpectInt64RoundTrip(SegmentEncoding::kDeltaVarint, values);
}

TEST(StoreEncodingsTest, DeltaRunLengthWrapsAndCollapsesRuns) {
  std::vector<int64_t> extremes = {std::numeric_limits<int64_t>::max(),
                                   std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max()};
  ExpectInt64RoundTrip(SegmentEncoding::kDeltaRunLength, extremes);
  // An id repeated over 15 states, then the next id: delta runs of 0 and
  // one jump per id, far below a byte per row.
  std::vector<int64_t> ids;
  for (int64_t id = 1; id <= 100; ++id) ids.insert(ids.end(), 15, id * 37);
  ExpectInt64RoundTrip(SegmentEncoding::kDeltaRunLength, ids);
  std::string encoded;
  EncodeDeltaRunLength(ids, &encoded);
  EXPECT_LT(encoded.size(), ids.size() / 3);
}

TEST(StoreEncodingsTest, FrameOfReferenceFullWidthRange) {
  // min..max span forces width 64 — the widest legal packing.
  std::vector<int64_t> values = {std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()};
  ExpectInt64RoundTrip(SegmentEncoding::kFrameOfReference, values);
  std::string encoded;
  EncodeFrameOfReference(values, &encoded);
  EXPECT_EQ(static_cast<uint8_t>(encoded[8]), 64);  // width byte after base
}

TEST(StoreEncodingsTest, FrameOfReferenceConstantColumnIsWidthZero) {
  std::vector<int64_t> values(1000, 123456789);
  std::string encoded;
  EncodeFrameOfReference(values, &encoded);
  // base fixed64 + width byte, no packed payload at all.
  EXPECT_EQ(encoded.size(), 9u);
  ExpectInt64RoundTrip(SegmentEncoding::kFrameOfReference, values);
}

TEST(StoreEncodingsTest, DictionaryRoundTrips) {
  std::vector<std::vector<std::string>> cases = {
      {},
      {""},
      {"a", "a", "a"},                           // 1 entry -> width 0
      {"x", "y", "x", "", "y", "x"},             // 3 entries -> width 2
      {"school:MIT", "school:CMU", "school:MIT"},
  };
  for (const auto& values : cases) {
    std::string encoded;
    ASSERT_TRUE(EncodeDictionary(values.data(), values.size(), &encoded));
    std::string raw = RawBinaryLayout(values);
    std::string decoded;
    Status status = Decode(SegmentEncoding::kDictionary, ColumnType::kBinary,
                           encoded, values.size(), raw.size(), &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, raw);
  }
}

TEST(StoreEncodingsTest, DictionaryRefusesHighCardinality) {
  std::vector<std::string> values;
  // append(), not "v" + std::string&& (GCC 12 -Wrestrict false positive).
  for (int i = 0; i < 256; ++i) {
    values.push_back(std::string("v").append(std::to_string(i)));
  }
  std::string encoded;
  EXPECT_FALSE(EncodeDictionary(values.data(), values.size(), &encoded));
  EXPECT_TRUE(encoded.empty());
  // 255 distinct values is the last accepted cardinality.
  values.pop_back();
  EXPECT_TRUE(EncodeDictionary(values.data(), values.size(), &encoded));
}

TEST(StoreEncodingsTest, RunLengthRoundTrips) {
  std::vector<std::vector<uint8_t>> cases = {
      {},
      {1},
      {0, 0, 0, 0, 0},
      {1, 1, 0, 0, 0, 1},
  };
  for (const auto& values : cases) {
    std::string encoded;
    ASSERT_TRUE(EncodeRunLength(values, &encoded));
    std::string decoded;
    Status status = Decode(SegmentEncoding::kRunLength, ColumnType::kBool,
                           encoded, values.size(), values.size(), &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, RawBoolLayout(values));
  }
}

TEST(StoreEncodingsTest, RunLengthRefusesNonBooleanBytes) {
  // A bool segment whose raw bytes are not strictly 0/1 cannot round-trip
  // byte-identically through (value, length) runs; the encoder must punt
  // to raw rather than normalize.
  std::vector<uint8_t> values = {0, 1, 2, 1};
  std::string encoded;
  EXPECT_FALSE(EncodeRunLength(values, &encoded));
  EXPECT_TRUE(encoded.empty());
}

// --- adversarial decodes --------------------------------------------------

std::string EncodedDict(const std::vector<std::string>& values) {
  std::string encoded;
  EXPECT_TRUE(EncodeDictionary(values.data(), values.size(), &encoded));
  return encoded;
}

TEST(StoreEncodingsTest, RejectsRawAndInapplicableEncodings) {
  std::string out;
  EXPECT_TRUE(Decode(SegmentEncoding::kRaw, ColumnType::kInt64, "", 0, 0, &out)
                  .IsIoError());
  // rle on int64, dict on bool, delta on binary: all type errors.
  EXPECT_TRUE(Decode(SegmentEncoding::kRunLength, ColumnType::kInt64, "", 0, 0,
                     &out)
                  .IsIoError());
  EXPECT_TRUE(Decode(SegmentEncoding::kDictionary, ColumnType::kBool, "", 0, 0,
                     &out)
                  .IsIoError());
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaVarint, ColumnType::kBinary, "", 0,
                     0, &out)
                  .IsIoError());
}

TEST(StoreEncodingsTest, RejectsImplausiblePlainSize) {
  std::string out;
  Status status =
      Decode(SegmentEncoding::kDeltaVarint, ColumnType::kInt64, "",
             (kStoreMaxPlainSegmentSize + 8) / 8, kStoreMaxPlainSegmentSize + 8,
             &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("implausibly large"), std::string::npos);
}

TEST(StoreEncodingsTest, DeltaVarintRejectsTruncationAtEveryPrefix) {
  std::vector<int64_t> values = {5, -300, 7000, 7001, -1};
  std::string encoded;
  EncodeDeltaVarint(values, &encoded);
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::string out;
    EXPECT_TRUE(Decode(SegmentEncoding::kDeltaVarint, ColumnType::kInt64,
                       std::string_view(encoded).substr(0, len), values.size(),
                       values.size() * 8, &out)
                    .IsIoError())
        << "prefix " << len;
  }
  // Trailing garbage after the last delta is also an error.
  encoded.push_back('\0');
  std::string out;
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaVarint, ColumnType::kInt64,
                     encoded, values.size(), values.size() * 8, &out)
                  .IsIoError());
}

TEST(StoreEncodingsTest, DeltaVarintRejectsWrongPlainSize) {
  std::vector<int64_t> values = {1, 2, 3};
  std::string encoded;
  EncodeDeltaVarint(values, &encoded);
  std::string out;
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaVarint, ColumnType::kInt64,
                     encoded, 3, 23, &out)
                  .IsIoError());
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaVarint, ColumnType::kInt64,
                     encoded, 4, 32, &out)
                  .IsIoError());  // rows mismatch -> truncation or trailing
}

TEST(StoreEncodingsTest, FrameOfReferenceRejectsOutOfRangeWidth) {
  std::vector<int64_t> values = {10, 20, 30};
  std::string encoded;
  EncodeFrameOfReference(values, &encoded);
  encoded[8] = static_cast<char>(65);  // width byte: 65 > 64
  std::string out;
  Status status = Decode(SegmentEncoding::kFrameOfReference, ColumnType::kInt64,
                         encoded, 3, 24, &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("out-of-range bit width"),
            std::string::npos);
}

TEST(StoreEncodingsTest, FrameOfReferenceRejectsSizeAndPaddingLies) {
  std::vector<int64_t> values = {10, 20, 30};
  std::string encoded;
  EncodeFrameOfReference(values, &encoded);
  std::string out;
  // Truncation at every prefix.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_TRUE(Decode(SegmentEncoding::kFrameOfReference, ColumnType::kInt64,
                       std::string_view(encoded).substr(0, len), 3, 24, &out)
                    .IsIoError())
        << "prefix " << len;
  }
  // Extra packed byte.
  std::string longer = encoded + '\0';
  EXPECT_TRUE(Decode(SegmentEncoding::kFrameOfReference, ColumnType::kInt64,
                     longer, 3, 24, &out)
                  .IsIoError());
  // Nonzero padding bits in the final partial byte (3 values * 5 bits = 15
  // bits: the packed payload's top bit is padding).
  ASSERT_EQ(static_cast<uint8_t>(encoded[8]), 5u);  // range 20 -> width 5
  std::string dirty = encoded;
  dirty.back() = static_cast<char>(static_cast<uint8_t>(dirty.back()) | 0x80);
  Status status = Decode(SegmentEncoding::kFrameOfReference, ColumnType::kInt64,
                         dirty, 3, 24, &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("padding"), std::string::npos);
}

TEST(StoreEncodingsTest, DictionaryRejectsTruncationAtEveryPrefix) {
  std::string encoded = EncodedDict({"alpha", "beta", "alpha", "gamma"});
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::string out;
    EXPECT_TRUE(Decode(SegmentEncoding::kDictionary, ColumnType::kBinary,
                       std::string_view(encoded).substr(0, len), 4,
                       RawBinaryLayout({"alpha", "beta", "alpha", "gamma"})
                           .size(),
                       &out)
                    .IsIoError())
        << "prefix " << len;
  }
}

TEST(StoreEncodingsTest, DictionaryRejectsOutOfRangeCodeWidth) {
  // Hand-build a dict payload claiming width 8 for a 2-entry dictionary.
  // The canonical width is 1; a wider width must be rejected outright (it
  // would let out-of-range codes hide behind a consistent packed size).
  std::string encoded;
  PutVarint(&encoded, 2);  // dict_count
  PutBytes(&encoded, "a");
  PutBytes(&encoded, "b");
  encoded.push_back(static_cast<char>(8));  // width: lie
  encoded.push_back(static_cast<char>(0));  // one 8-bit code
  std::string out;
  Status status = Decode(SegmentEncoding::kDictionary, ColumnType::kBinary,
                         encoded, 1, (1 + 1) * 8 + 1, &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("out-of-range code width"),
            std::string::npos);
}

TEST(StoreEncodingsTest, DictionaryRejectsOutOfRangeCode) {
  // 3 entries -> width 2, which can express code 3 — one past the last
  // entry. Pack that and verify the decoder objects.
  std::string encoded;
  PutVarint(&encoded, 3);
  PutBytes(&encoded, "a");
  PutBytes(&encoded, "b");
  PutBytes(&encoded, "c");
  encoded.push_back(static_cast<char>(2));  // canonical width for 3 entries
  encoded.push_back(static_cast<char>(3));  // one code: 3 >= dict_count
  std::string out;
  Status status = Decode(SegmentEncoding::kDictionary, ColumnType::kBinary,
                         encoded, 1, (1 + 1) * 8 + 1, &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("out-of-range code"), std::string::npos);
}

TEST(StoreEncodingsTest, DictionaryRejectsZeroEntriesWithRows) {
  std::string encoded;
  PutVarint(&encoded, 0);                   // dict_count 0
  encoded.push_back(static_cast<char>(0));  // width 0, no codes
  std::string out;
  EXPECT_TRUE(Decode(SegmentEncoding::kDictionary, ColumnType::kBinary,
                     encoded, 2, (2 + 1) * 8, &out)
                  .IsIoError());
}

TEST(StoreEncodingsTest, DictionaryRejectsPlainSizeLie) {
  std::vector<std::string> values = {"aa", "bb", "aa"};
  std::string encoded = EncodedDict(values);
  std::string out;
  // Correct plain size is (3 + 1) * 8 + 6 = 38; claim one byte more.
  Status status = Decode(SegmentEncoding::kDictionary, ColumnType::kBinary,
                         encoded, 3, 39, &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("different plain size"), std::string::npos);
}

TEST(StoreEncodingsTest, RunLengthRejectsOverflowAndShortfall) {
  std::string out;
  // Runs sum past the row count: 2 + 2 > 3.
  std::string over;
  PutVarint(&over, 2);
  over.push_back('\x01');
  PutVarint(&over, 2);
  over.push_back('\x00');
  PutVarint(&over, 2);
  Status status =
      Decode(SegmentEncoding::kRunLength, ColumnType::kBool, over, 3, 3, &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("overflow"), std::string::npos);
  // Runs sum short of the row count: 2 < 3.
  std::string under;
  PutVarint(&under, 1);
  under.push_back('\x01');
  PutVarint(&under, 2);
  EXPECT_TRUE(Decode(SegmentEncoding::kRunLength, ColumnType::kBool, under, 3,
                     3, &out)
                  .IsIoError());
  // A huge run length must not provoke a huge memset or wrap anything.
  std::string huge;
  PutVarint(&huge, 1);
  huge.push_back('\x01');
  PutVarint(&huge, uint64_t{1} << 62);
  EXPECT_TRUE(Decode(SegmentEncoding::kRunLength, ColumnType::kBool, huge, 3,
                     3, &out)
                  .IsIoError());
}

TEST(StoreEncodingsTest, RunLengthRejectsMalformedRuns) {
  std::string out;
  std::vector<uint8_t> values = {1, 1, 0};
  std::string good;
  ASSERT_TRUE(EncodeRunLength(values, &good));
  // Non-boolean run value.
  std::string bad_value = good;
  bad_value[1] = '\x02';  // first run's value byte
  EXPECT_TRUE(Decode(SegmentEncoding::kRunLength, ColumnType::kBool, bad_value,
                     3, 3, &out)
                  .IsIoError());
  // Zero-length run.
  std::string zero;
  PutVarint(&zero, 2);
  zero.push_back('\x01');
  PutVarint(&zero, 0);
  zero.push_back('\x00');
  PutVarint(&zero, 3);
  EXPECT_TRUE(Decode(SegmentEncoding::kRunLength, ColumnType::kBool, zero, 3,
                     3, &out)
                  .IsIoError());
  // Truncation at every prefix, and trailing bytes.
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_TRUE(Decode(SegmentEncoding::kRunLength, ColumnType::kBool,
                       std::string_view(good).substr(0, len), 3, 3, &out)
                    .IsIoError())
        << "prefix " << len;
  }
  std::string trailing = good + '\x00';
  EXPECT_TRUE(Decode(SegmentEncoding::kRunLength, ColumnType::kBool, trailing,
                     3, 3, &out)
                  .IsIoError());
}

TEST(StoreEncodingsTest, DeltaRunLengthRejectsMalformedRuns) {
  std::string out;
  // Runs sum past the row count: 2 + 2 > 3.
  std::string over;
  PutVarint(&over, 2);
  PutVarint(&over, 2);  // zvarint(1)
  PutVarint(&over, 2);
  PutVarint(&over, 0);
  PutVarint(&over, 2);
  Status status = Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                         over, 3, 24, &out);
  ASSERT_TRUE(status.IsIoError());
  EXPECT_NE(status.message().find("overflow"), std::string::npos);
  // A huge run length must not expand anything.
  std::string huge;
  PutVarint(&huge, 1);
  PutVarint(&huge, 2);
  PutVarint(&huge, uint64_t{1} << 62);
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                     huge, 3, 24, &out)
                  .IsIoError());
  // Zero-length run.
  std::string zero;
  PutVarint(&zero, 2);
  PutVarint(&zero, 2);
  PutVarint(&zero, 0);
  PutVarint(&zero, 0);
  PutVarint(&zero, 3);
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                     zero, 3, 24, &out)
                  .IsIoError());
  // Short of the row count, a plain size lie, truncation at every prefix,
  // and trailing bytes.
  std::vector<int64_t> values = {5, 5, 9};
  std::string good;
  EncodeDeltaRunLength(values, &good);
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                     good, 4, 32, &out)
                  .IsIoError());
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                     good, 3, 25, &out)
                  .IsIoError());
  for (size_t len = 0; len < good.size(); ++len) {
    EXPECT_TRUE(Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                       std::string_view(good).substr(0, len), 3, 24, &out)
                    .IsIoError())
        << "prefix " << len;
  }
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                     good + '\x00', 3, 24, &out)
                  .IsIoError());
  // Not applicable to any other column type.
  EXPECT_TRUE(Decode(SegmentEncoding::kDeltaRunLength, ColumnType::kBool,
                     good, 3, 3, &out)
                  .IsIoError());
}

// Byte-flip fuzz over every codec: any single-byte mutation of a valid
// payload must either decode to *something* or fail cleanly — never crash
// (ASan/UBSan enforce the "cleanly"). Mutations that survive decoding are
// fine; the store layer's checksum rejects them before decode in practice.
TEST(StoreEncodingsTest, ByteFlipFuzzNeverCrashes) {
  std::vector<int64_t> ints = {3, 1, 4, 1, 5, 9, 2, 6, 5, 35, -89, 793};
  std::vector<std::string> bins = {"to", "be", "or", "not", "to", "be"};
  std::vector<uint8_t> bools = {1, 1, 0, 1, 0, 0, 0, 1};
  struct Case {
    SegmentEncoding encoding;
    ColumnType type;
    std::string encoded;
    size_t rows;
    uint64_t plain_size;
  };
  std::vector<Case> cases;
  std::string payload;
  EncodeDeltaVarint(ints, &payload);
  cases.push_back({SegmentEncoding::kDeltaVarint, ColumnType::kInt64, payload,
                   ints.size(), ints.size() * 8});
  payload.clear();
  EncodeFrameOfReference(ints, &payload);
  cases.push_back({SegmentEncoding::kFrameOfReference, ColumnType::kInt64,
                   payload, ints.size(), ints.size() * 8});
  payload.clear();
  EncodeDeltaRunLength(ints, &payload);
  cases.push_back({SegmentEncoding::kDeltaRunLength, ColumnType::kInt64,
                   payload, ints.size(), ints.size() * 8});
  payload.clear();
  ASSERT_TRUE(EncodeDictionary(bins.data(), bins.size(), &payload));
  cases.push_back({SegmentEncoding::kDictionary, ColumnType::kBinary, payload,
                   bins.size(), RawBinaryLayout(bins).size()});
  payload.clear();
  ASSERT_TRUE(EncodeRunLength(bools, &payload));
  cases.push_back({SegmentEncoding::kRunLength, ColumnType::kBool, payload,
                   bools.size(), bools.size()});
  for (const Case& c : cases) {
    for (size_t i = 0; i < c.encoded.size(); ++i) {
      for (uint8_t flip : {0x01, 0x55, 0xff}) {
        std::string mutated = c.encoded;
        mutated[i] = static_cast<char>(static_cast<uint8_t>(mutated[i]) ^
                                       flip);
        std::string out;
        Status status = Decode(c.encoding, c.type, mutated, c.rows,
                               c.plain_size, &out);
        if (status.ok()) {
          EXPECT_EQ(out.size(), c.plain_size);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tgraph::storage
