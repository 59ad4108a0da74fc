#include "storage/graph_io.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "server/catalog.h"
#include "storage/store_reader.h"
#include "tests/test_util.h"
#include "tgraph/convert.h"
#include "tgraph/validate.h"

namespace tgraph::storage {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::CanonicalTopology;
using ::tgraph::testing::Ctx;
using ::tgraph::testing::Figure1;
using ::tgraph::testing::RandomTGraph;

std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(GraphIoTest, VeRoundTrip) {
  std::string dir = TempDir("ve_roundtrip");
  VeGraph g = Figure1();
  TG_CHECK_OK(WriteVeStore(g, dir));
  Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Canonical(*loaded), Canonical(g));
  EXPECT_EQ(loaded->lifetime(), g.lifetime());
}

TEST(GraphIoTest, VeRoundTripBothSortOrders) {
  VeGraph g = RandomTGraph(41);
  for (SortOrder order :
       {SortOrder::kTemporalLocality, SortOrder::kStructuralLocality}) {
    std::string dir = TempDir(std::string("ve_order_") + SortOrderName(order));
    GraphWriteOptions options;
    options.sort_order = order;
    TG_CHECK_OK(WriteVeStore(g, dir, options));
    Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(Canonical(*loaded), Canonical(g)) << SortOrderName(order);
  }
}

TEST(GraphIoTest, VeTimeRangeFilterClips) {
  std::string dir = TempDir("ve_range");
  TG_CHECK_OK(WriteVeStore(Figure1(), dir));
  LoadOptions options;
  options.time_range = Interval(3, 6);
  Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->lifetime(), Interval(3, 6));
  for (const VeVertex& v : loaded->vertices().Collect()) {
    EXPECT_TRUE(Interval(3, 6).Contains(v.interval));
  }
  // e2 [7,9) is outside; e1 [2,7) clips to [3,6).
  std::vector<VeEdge> edges = loaded->edges().Collect();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].interval, Interval(3, 6));
  TG_CHECK_OK(ValidateVe(*loaded));
}

TEST(GraphIoTest, OgRoundTrip) {
  std::string dir = TempDir("og_roundtrip");
  OgGraph g = VeToOg(Figure1());
  TG_CHECK_OK(WriteOgStore(g, dir));
  Result<OgGraph> loaded = LoadOgGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(Canonical(OgToVe(*loaded).Coalesce()),
            Canonical(OgToVe(g).Coalesce()));
  TG_CHECK_OK(ValidateOg(*loaded));
}

TEST(GraphIoTest, OgTimeRangeClipsHistoriesAndEmbeddedCopies) {
  std::string dir = TempDir("og_range");
  TG_CHECK_OK(WriteOgStore(VeToOg(Figure1()), dir));
  LoadOptions options;
  options.time_range = Interval(1, 6);
  Result<OgGraph> loaded = LoadOgGraph(Ctx(), dir, options);
  ASSERT_TRUE(loaded.ok());
  for (const OgVertex& v : loaded->vertices().Collect()) {
    EXPECT_TRUE(Interval(1, 6).Contains(HistorySpan(v.history)));
  }
  for (const OgEdge& e : loaded->edges().Collect()) {
    EXPECT_TRUE(Interval(1, 6).Contains(HistorySpan(e.history)));
    EXPECT_TRUE(Interval(1, 6).Contains(HistorySpan(e.v1.history)));
  }
}

TEST(GraphIoTest, OgcRoundTrip) {
  std::string dir = TempDir("ogc_roundtrip");
  OgcGraph g = VeToOgc(Figure1());
  TG_CHECK_OK(WriteOgcStore(g, dir));
  Result<OgcGraph> loaded = LoadOgcGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->intervals(), g.intervals());
  EXPECT_EQ(CanonicalTopology(OgcToVe(*loaded)), CanonicalTopology(OgcToVe(g)));
  TG_CHECK_OK(ValidateOgc(*loaded));
}

TEST(GraphIoTest, OgcTimeRangeSlicesIndexAndBitsets) {
  std::string dir = TempDir("ogc_range");
  TG_CHECK_OK(WriteOgcStore(VeToOgc(Figure1()), dir));
  LoadOptions options;
  options.time_range = Interval(2, 7);
  Result<OgcGraph> loaded = LoadOgcGraph(Ctx(), dir, options);
  ASSERT_TRUE(loaded.ok());
  // Index entries overlapping [2,7): [2,5) and [5,7).
  ASSERT_EQ(loaded->intervals().size(), 2u);
  EXPECT_EQ(loaded->intervals()[0], Interval(2, 5));
  for (const OgcVertex& v : loaded->vertices().Collect()) {
    EXPECT_EQ(v.presence.size(), 2u);
  }
}

TEST(GraphIoTest, RgLoadsFromVeStore) {
  std::string dir = TempDir("rg_load");
  GraphWriteOptions options;
  options.sort_order = SortOrder::kStructuralLocality;
  TG_CHECK_OK(WriteVeStore(Figure1(), dir, options));
  Result<RgGraph> loaded = LoadRgGraph(Ctx(), dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumSnapshots(), 4u);
  TG_CHECK_OK(ValidateRg(*loaded));
}

TEST(GraphIoTest, RandomGraphRoundTripsExactly) {
  for (uint64_t seed : {51u, 52u}) {
    VeGraph g = RandomTGraph(seed);
    std::string dir = TempDir("ve_random_" + std::to_string(seed));
    TG_CHECK_OK(WriteVeStore(g, dir));
    Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(Canonical(*loaded), Canonical(g)) << seed;
  }
}

TEST(GraphIoTest, MissingDirectoryIsIoError) {
  EXPECT_TRUE(
      LoadVeGraph(Ctx(), "/nonexistent/path").status().IsIoError());
}

TEST(GraphIoTest, SortOrderRecordedInMetadata) {
  for (SortOrder order :
       {SortOrder::kTemporalLocality, SortOrder::kStructuralLocality}) {
    std::string dir = TempDir(std::string("ve_meta_") + SortOrderName(order));
    GraphWriteOptions options;
    options.sort_order = order;
    TG_CHECK_OK(WriteVeStore(Figure1(), dir, options));
    auto reader = StoreReader::Open(StorePath(dir));
    ASSERT_TRUE(reader.ok());
    const std::string* value = (*reader)->FindMetadata("sort_order");
    ASSERT_NE(value, nullptr);
    EXPECT_EQ(*value, SortOrderName(order));
    EXPECT_EQ(*(*reader)->FindMetadata("representation"), "ve");
  }
}

TEST(GraphIoTest, WritersLeaveOnlyTheStore) {
  std::string dir = TempDir("only_store");
  TG_CHECK_OK(WriteVeStore(Figure1(), dir));
  TG_CHECK_OK(WriteVeStore(RandomTGraph(43), dir));
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"graph.tgs"});
}

/// A reader that mapped a directory's store before a rewrite keeps
/// loading the graph it opened, with every segment checksum verifying:
/// the writer renames a new file into place instead of truncating the
/// mapped one.
TEST(GraphIoTest, RewriteDoesNotTearAnOpenReader) {
  std::string dir = TempDir("rewrite_under_reader");
  const VeGraph old_graph = RandomTGraph(61, 120, 240, 40);
  const VeGraph new_graph = Figure1();
  GraphWriteOptions options;
  options.row_group_size = 32;
  TG_CHECK_OK(WriteVeStore(old_graph, dir, options));
  Result<std::unique_ptr<StoreReader>> reader =
      StoreReader::Open(StorePath(dir));
  ASSERT_TRUE(reader.ok());

  TG_CHECK_OK(WriteVeStore(new_graph, dir, options));

  // No segment was touched before the rewrite, so this load verifies and
  // decodes every segment of the old mapping now.
  Result<VeGraph> old_loaded = LoadVeGraphFromStore(Ctx(), **reader);
  ASSERT_TRUE(old_loaded.ok()) << old_loaded.status().ToString();
  EXPECT_EQ(Canonical(*old_loaded), Canonical(old_graph));
  Result<VeGraph> new_loaded = LoadVeGraph(Ctx(), dir);
  ASSERT_TRUE(new_loaded.ok());
  EXPECT_EQ(Canonical(*new_loaded), Canonical(new_graph));
}

/// `tgz save-store --rep og` followed by `tgz info`: a VE load of a store
/// holding another representation fails with a Status naming the missing
/// table, through the plain loader and through the server's catalog.
TEST(GraphIoTest, VeLoadOfOgStoreNamesTheMissingTable) {
  std::string dir = TempDir("og_only");
  TG_CHECK_OK(WriteOgStore(VeToOg(Figure1()), dir));
  Status plain = LoadVeGraph(Ctx(), dir).status();
  EXPECT_TRUE(plain.IsIoError());
  EXPECT_NE(plain.ToString().find("no 'vertices' table"), std::string::npos)
      << plain.ToString();
  EXPECT_NE(plain.ToString().find("og representation"), std::string::npos)
      << plain.ToString();

  server::GraphCatalog catalog(Ctx());
  Status served = catalog.GetOrLoad(dir, std::nullopt).status();
  EXPECT_TRUE(served.IsIoError());
  EXPECT_NE(served.ToString().find("no 'vertices' table"), std::string::npos)
      << served.ToString();
}

}  // namespace
}  // namespace tgraph::storage
