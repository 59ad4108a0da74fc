// Backward-compatibility regression for tgraph-store v2: kFixtureV2Hex
// is the byte-exact graph.tgs a pre-v3 release wrote for the paper's
// Figure 1 graph (row_group_size = 2, temporal sort). The current reader
// must load it bit-for-bit correctly forever, and the current writer with
// GraphWriteOptions::store_version = 2 (a library-only reference mode) must
// still produce these exact bytes — byte-level compat in both directions,
// pinned without needing old binaries around.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/logging.h"
#include "storage/graph_io.h"
#include "storage/store_format.h"
#include "storage/store_reader.h"
#include "tests/test_util.h"

namespace tgraph::storage {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;

constexpr char kFixtureV2Hex[] =
    "544753544f5245320200000001000000010000000000000002000000000000000100"
    "00000000000002000000000000000700000000000000050000000000000000000000"
    "000000001a00000000000000280000000000000002067363686f6f6c03034d495404"
    "747970650306706572736f6e0104747970650306706572736f6e0200000000000000"
    "03000000000000000500000000000000010000000000000009000000000000000900"
    "00000000000000000000000000001a00000000000000340000000000000002067363"
    "686f6f6c0303434d5504747970650306706572736f6e02067363686f6f6c03034d49"
    "5404747970650306706572736f6e0000000001000000000000000200000000000000"
    "01000000000000000200000000000000020000000000000003000000000000000200"
    "00000000000007000000000000000700000000000000090000000000000000000000"
    "00000000110000000000000022000000000000000104747970650309636f2d617574"
    "686f720104747970650309636f2d617574686f72000000000000040e6c6966657469"
    "6d655f737461727401310c6c69666574696d655f656e6401390a736f72745f6f7264"
    "65720874656d706f72616c0e726570726573656e746174696f6e0276650208766572"
    "74696365730403766964000573746172740003656e64000570726f70730302021000"
    "0000000000001000000000000000b45e5dd8d94c4c72010100000000000000020000"
    "000000000020000000000000001000000000000000b45e5dd8d94c4c720101000000"
    "0000000002000000000000003000000000000000100000000000000004abbaefc242"
    "e4640105000000000000000700000000000000400000000000000040000000000000"
    "0041468723982ab75f0002800000000000000010000000000000004adc9a251bd318"
    "e7010200000000000000030000000000000090000000000000001000000000000000"
    "a2be13ce21b3c9830101000000000000000500000000000000a00000000000000010"
    "00000000000000931813a18d5222c50109000000000000000900000000000000b000"
    "0000000000004c00000000000000407381694195d259000565646765730603656964"
    "00037372630003647374000573746172740003656e64000570726f70730301020001"
    "0000000000001000000000000000b45e5dd8d94c4c72010100000000000000020000"
    "000000000010010000000000001000000000000000b45e5dd8d94c4c720101000000"
    "000000000200000000000000200100000000000010000000000000004adc9a251bd3"
    "18e70102000000000000000300000000000000300100000000000010000000000000"
    "00203f935058509a4b01020000000000000007000000000000004001000000000000"
    "1000000000000000afc134851f144b16010700000000000000090000000000000050"
    "010000000000003a00000000000000e0cc673fd1be62560033df3d70a616dfb7a602"
    "000000000000544753544f524532";

std::string FromHex(std::string_view hex) {
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    return c - 'a' + 10;
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return bytes;
}

std::string ToHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 0xf]);
  }
  return hex;
}

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

GraphWriteOptions FixtureWriteOptions() {
  GraphWriteOptions options;
  options.row_group_size = 2;
  options.store_version = kStoreVersion;
  return options;
}

TEST(StoreCompatTest, WriterV2ModeReproducesSeedBytes) {
  std::string dir = TempDir("compat_v2_writer");
  TG_CHECK_OK(WriteVeStore(Figure1(), dir, FixtureWriteOptions()));
  EXPECT_EQ(ToHex(ReadAll(StorePath(dir))), kFixtureV2Hex);
  std::filesystem::remove_all(dir);
}

TEST(StoreCompatTest, SeedV2FileStillLoads) {
  std::string dir = TempDir("compat_v2_reader");
  std::filesystem::create_directories(dir);
  std::FILE* f = std::fopen(StorePath(dir).c_str(), "wb");
  TG_CHECK(f != nullptr);
  std::string bytes = FromHex(kFixtureV2Hex);
  TG_CHECK(std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size());
  std::fclose(f);

  Result<std::unique_ptr<StoreReader>> reader =
      StoreReader::Open(StorePath(dir));
  TG_CHECK_OK(reader.status());
  EXPECT_EQ((*reader)->version(), kStoreVersion);
  for (const TableMeta& table : (*reader)->footer().tables) {
    for (const PartitionMeta& partition : table.partitions) {
      for (const SegmentMeta& segment : partition.segments) {
        EXPECT_EQ(segment.encoding, SegmentEncoding::kRaw);
      }
    }
  }

  // The graph inside must be exactly Figure 1, loaded through the normal
  // auto-detecting loader — and identical to what a fresh v3 write loads.
  Result<VeGraph> from_fixture = LoadVeGraph(Ctx(), dir, {});
  TG_CHECK_OK(from_fixture.status());
  std::string v3_dir = TempDir("compat_v3_rewrite");
  TG_CHECK_OK(WriteVeStore(Figure1(), v3_dir, {}));
  Result<VeGraph> from_v3 = LoadVeGraph(Ctx(), v3_dir, {});
  TG_CHECK_OK(from_v3.status());
  EXPECT_EQ(Canonical(*from_fixture), Canonical(*from_v3));
  EXPECT_EQ(Canonical(*from_fixture), Canonical(Figure1()));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(v3_dir);
}

}  // namespace
}  // namespace tgraph::storage
