// Adversarial tests for the tgraph-store container (v2 and v3): every
// malformed input must come back as a Status error — truncated headers,
// bad magic, overlapping sections, lying zone maps, flipped bytes — and
// never a crash or wrong data. These run under ASan/UBSan in CI, so
// "doesn't crash" is checked with real teeth. (Attacks on the v3 encoded
// payloads themselves live in store_encodings_test.cc.)

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "common/hash.h"
#include "storage/graph_io.h"
#include "storage/serde.h"
#include "storage/store_format.h"
#include "storage/store_reader.h"
#include "tests/test_util.h"

namespace tgraph::storage {
namespace {

using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;
using ::tgraph::testing::RandomTGraph;

std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  TG_CHECK(f != nullptr) << path;
  std::string data;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    data.append(buffer, n);
  }
  std::fclose(f);
  return data;
}

void WriteAll(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  TG_CHECK(f != nullptr) << path;
  TG_CHECK(std::fwrite(data.data(), 1, data.size(), f) == data.size());
  std::fclose(f);
}

// A small but multi-partition store to attack. `version` 0 means the
// writer default (v3, encoded segments).
std::string MakeVictim(const std::string& name, uint32_t version = 0) {
  std::string dir = TempDir(name);
  GraphWriteOptions options;
  options.row_group_size = 16;
  if (version != 0) options.store_version = version;
  TG_CHECK_OK(WriteVeStore(RandomTGraph(3, 40, 80, 25), dir, options));
  return dir;
}

// Splits a well-formed store file into its regions.
struct FileParts {
  uint32_t version = kStoreVersion;  // from the header, drives the grammar
  std::string data;    // header + segments (everything before the footer)
  StoreFooter footer;  // decoded, ready to tamper with
};

FileParts Dissect(const std::string& bytes) {
  TG_CHECK(bytes.size() >= kStoreHeaderSize + kStoreTrailerSize);
  size_t pos = bytes.size() - kStoreTrailerSize + 8;
  Result<uint64_t> footer_size = GetFixed64(bytes, &pos);
  TG_CHECK_OK(footer_size.status());
  size_t data_end = bytes.size() - kStoreTrailerSize - *footer_size;
  FileParts parts;
  parts.version = static_cast<uint8_t>(bytes[8]);
  parts.data = bytes.substr(0, data_end);
  TG_CHECK_OK(DecodeStoreFooter(
      std::string_view(bytes).substr(data_end, *footer_size), parts.version,
      &parts.footer));
  return parts;
}

// Reassembles a store file from (possibly tampered) parts, recomputing the
// footer checksum and trailer so only the intended lie is present.
std::string Reassemble(const FileParts& parts) {
  std::string encoded_footer;
  EncodeStoreFooter(parts.footer, parts.version, &encoded_footer);
  std::string bytes = parts.data;
  bytes += encoded_footer;
  PutFixed64(&bytes, HashBytesFast(encoded_footer));
  PutFixed64(&bytes, encoded_footer.size());
  bytes.append(parts.version >= kStoreVersionV3 ? kStoreMagicV3 : kStoreMagic,
               sizeof(kStoreMagic));
  return bytes;
}

Status LoadStatus(const std::string& dir) {
  return LoadVeGraph(Ctx(), dir, {}).status();
}

TEST(StoreCorruptionTest, BadHeadMagicIsRejected) {
  std::string dir = MakeVictim("corrupt_head_magic");
  std::string bytes = ReadAll(StorePath(dir));
  bytes[0] = 'X';
  WriteAll(StorePath(dir), bytes);
  EXPECT_FALSE(StoreReader::Open(StorePath(dir)).ok());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, BadTailMagicIsRejected) {
  std::string dir = MakeVictim("corrupt_tail_magic");
  std::string bytes = ReadAll(StorePath(dir));
  bytes[bytes.size() - 1] ^= 0xff;
  WriteAll(StorePath(dir), bytes);
  EXPECT_TRUE(LoadStatus(dir).IsIoError());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, TruncationAtEveryBoundaryIsAnError) {
  std::string dir = MakeVictim("corrupt_truncated");
  std::string bytes = ReadAll(StorePath(dir));
  // Below the header, mid-header, mid-data, mid-footer, mid-trailer.
  for (size_t keep : {size_t{0}, size_t{7}, size_t{kStoreHeaderSize},
                      bytes.size() / 2, bytes.size() - kStoreTrailerSize,
                      bytes.size() - 9, bytes.size() - 1}) {
    WriteAll(StorePath(dir), bytes.substr(0, keep));
    EXPECT_FALSE(StoreReader::Open(StorePath(dir)).ok()) << "keep=" << keep;
    EXPECT_TRUE(LoadStatus(dir).IsIoError()) << "keep=" << keep;
  }
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, WrongVersionIsRejected) {
  std::string dir = MakeVictim("corrupt_version");
  std::string bytes = ReadAll(StorePath(dir));
  bytes[8] = 99;  // version field, little-endian low byte
  WriteAll(StorePath(dir), bytes);
  EXPECT_FALSE(StoreReader::Open(StorePath(dir)).ok());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, CorruptFooterChecksumIsRejected) {
  std::string dir = MakeVictim("corrupt_footer_checksum");
  std::string bytes = ReadAll(StorePath(dir));
  bytes[bytes.size() - kStoreTrailerSize] ^= 0x01;  // checksum low byte
  WriteAll(StorePath(dir), bytes);
  EXPECT_TRUE(LoadStatus(dir).IsIoError());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, AbsurdFooterLengthIsRejected) {
  std::string dir = MakeVictim("corrupt_footer_length");
  std::string bytes = ReadAll(StorePath(dir));
  std::string tampered = bytes.substr(0, bytes.size() - 16);
  PutFixed64(&tampered, uint64_t{1} << 60);  // footer_size
  tampered += bytes.substr(bytes.size() - 8);  // keep the real tail magic
  WriteAll(StorePath(dir), tampered);
  EXPECT_TRUE(LoadStatus(dir).IsIoError());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, SegmentBitFlipFailsChecksumOnLoad) {
  std::string dir = MakeVictim("corrupt_segment");
  std::string bytes = ReadAll(StorePath(dir));
  FileParts parts = Dissect(bytes);
  // Flip a byte inside the first segment's payload. Open still succeeds
  // (verification is lazy), the load must fail.
  const SegmentMeta& segment = parts.footer.tables[0].partitions[0].segments[0];
  bytes[segment.offset + 3] ^= 0x40;
  WriteAll(StorePath(dir), bytes);
  ASSERT_TRUE(StoreReader::Open(StorePath(dir)).ok());
  EXPECT_TRUE(LoadStatus(dir).IsIoError());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, OverlappingSectionsAreRejected) {
  std::string dir = MakeVictim("corrupt_overlap");
  FileParts parts = Dissect(ReadAll(StorePath(dir)));
  // Point the second segment into the first one's extent.
  TableMeta& table = parts.footer.tables[0];
  ASSERT_GE(table.partitions[0].segments.size(), 2u);
  table.partitions[0].segments[1].offset = table.partitions[0].segments[0].offset;
  WriteAll(StorePath(dir), Reassemble(parts));
  EXPECT_FALSE(StoreReader::Open(StorePath(dir)).ok());
  EXPECT_TRUE(LoadStatus(dir).IsIoError());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, AbsurdRowCountIsRejected) {
  // Row counts are bounded by what a segment's plain size can describe,
  // before any `rows * 8` arithmetic: absurd counts fail with a Status on
  // both the raw (v2) and the encoded (v3) layout.
  for (uint32_t version : {2u, 3u}) {
    for (int64_t rows : {int64_t{1} << 40, int64_t{1} << 61,
                         std::numeric_limits<int64_t>::max()}) {
      std::string dir = MakeVictim("corrupt_rows", version);
      FileParts parts = Dissect(ReadAll(StorePath(dir)));
      parts.footer.tables[0].partitions[0].num_rows = rows;
      WriteAll(StorePath(dir), Reassemble(parts));
      Result<std::unique_ptr<StoreReader>> reader =
          StoreReader::Open(StorePath(dir));
      ASSERT_FALSE(reader.ok()) << "v" << version << " rows " << rows;
      EXPECT_TRUE(reader.status().IsIoError()) << reader.status();
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(StoreCorruptionTest, SegmentPastEndOfFileIsRejected) {
  std::string dir = MakeVictim("corrupt_oob");
  FileParts parts = Dissect(ReadAll(StorePath(dir)));
  parts.footer.tables[0].partitions[0].segments[0].offset = uint64_t{1} << 40;
  WriteAll(StorePath(dir), Reassemble(parts));
  EXPECT_FALSE(StoreReader::Open(StorePath(dir)).ok());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, LyingZoneMapIsDetected) {
  std::string dir = MakeVictim("corrupt_zonemap");
  FileParts parts = Dissect(ReadAll(StorePath(dir)));
  // Shrink the vid column's zone map so it excludes rows the segment
  // actually holds. A reader that trusted it would silently drop data;
  // ours must refuse. The checksum is over the data bytes (unchanged), so
  // only the zone-map check can catch this.
  int t = parts.footer.FindTable("vertices");
  ASSERT_GE(t, 0);
  SegmentMeta& segment = parts.footer.tables[t].partitions[0].segments[0];
  ASSERT_TRUE(segment.stats.has_int_stats);
  segment.stats.min_int = segment.stats.max_int + 1000;
  segment.stats.max_int = segment.stats.max_int + 2000;
  WriteAll(StorePath(dir), Reassemble(parts));
  ASSERT_TRUE(StoreReader::Open(StorePath(dir)).ok());
  Status status = LoadStatus(dir);
  EXPECT_TRUE(status.IsIoError()) << status.ToString();
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, NonMonotonicBinaryOffsetsAreRejected) {
  // A v2 victim: the attack patches offset words at a fixed position in
  // the raw segment layout, which only exists on disk for raw segments.
  std::string dir = MakeVictim("corrupt_offsets", kStoreVersion);
  std::string bytes = ReadAll(StorePath(dir));
  FileParts parts = Dissect(bytes);
  // The VE vertex props column (index 3) is binary: offsets first, payload
  // after. Swap two offsets and recompute the segment checksum so only
  // the monotonicity check can object.
  int t = parts.footer.FindTable("vertices");
  ASSERT_GE(t, 0);
  SegmentMeta& segment = parts.footer.tables[t].partitions[0].segments[3];
  int64_t rows = parts.footer.tables[t].partitions[0].num_rows;
  ASSERT_GE(rows, 2);
  std::string patched;
  PutFixed64(&patched, uint64_t{1} << 50);
  bytes.replace(segment.offset + 8, 8, patched);
  segment.checksum = HashBytesFast(
      std::string_view(bytes).substr(segment.offset, segment.byte_size));
  WriteAll(StorePath(dir), Reassemble(FileParts{
                               parts.version,
                               bytes.substr(0, parts.data.size()),
                               parts.footer}));
  ASSERT_TRUE(StoreReader::Open(StorePath(dir)).ok());
  EXPECT_TRUE(LoadStatus(dir).IsIoError());
  std::filesystem::remove_all(dir);
}

TEST(StoreCorruptionTest, EmptyAndTinyFilesAreRejected) {
  std::string dir = TempDir("corrupt_tiny");
  std::filesystem::create_directories(dir);
  WriteAll(StorePath(dir), "");
  EXPECT_FALSE(StoreReader::Open(StorePath(dir)).ok());
  WriteAll(StorePath(dir), "TGSTORE2");
  EXPECT_FALSE(StoreReader::Open(StorePath(dir)).ok());
  EXPECT_FALSE(StoreReader::Open(dir + "/missing.tgs").ok());
  std::filesystem::remove_all(dir);
}

// Byte-flip fuzz: flipping any single byte must produce either a Status
// error or a successful load — never a crash. (Flips that only touch
// payload bytes are caught by segment checksums; flips in padding are
// legitimately invisible.)
TEST(StoreCorruptionTest, ByteFlipFuzzNeverCrashes) {
  std::string dir = MakeVictim("corrupt_fuzz");
  std::string pristine = ReadAll(StorePath(dir));
  int errors = 0;
  int survivors = 0;
  for (size_t i = 0; i < pristine.size(); i += 7) {
    std::string bytes = pristine;
    bytes[i] ^= 0x55;
    WriteAll(StorePath(dir), bytes);
    Status status = LoadStatus(dir);
    if (status.ok()) {
      ++survivors;
    } else {
      ++errors;
    }
  }
  // The vast majority of flips must be detected; a few land in padding.
  EXPECT_GT(errors, 0);
  EXPECT_LT(survivors, errors);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tgraph::storage
