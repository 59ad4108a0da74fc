// Differential tests for tgraph-store v3: for every physical
// representation, a graph written as a store container and loaded through
// the memory-mapped reader must be canonically identical to the same
// graph held in memory (sliced in memory when the load is ranged) — with
// and without a temporal slice, with predicate pushdown on and off.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <vector>

#include "obs/trace.h"
#include "server/catalog.h"
#include "storage/graph_io.h"
#include "storage/predicate.h"
#include "storage/store_reader.h"
#include "tests/test_util.h"
#include "tgraph/convert.h"
#include "tgraph/slice.h"

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

// Each case loads the store dir with these options and compares the
// result with the in-memory graph, sliced by the same range.
struct SliceCase {
  std::optional<Interval> range;
  bool pushdown;
};

std::vector<SliceCase> AllSliceCases() {
  return {{std::nullopt, true},
          {std::nullopt, false},
          {Interval(2, 7), true},
          {Interval(2, 7), false}};
}

std::string CaseName(const SliceCase& c) {
  return "range=" + (c.range ? c.range->ToString() : std::string("none")) +
         " pushdown=" + (c.pushdown ? "on" : "off");
}

LoadOptions CaseOptions(const SliceCase& c) {
  LoadOptions options;
  options.time_range = c.range;
  options.pushdown = c.pushdown;
  return options;
}

TEST(StoreDifferentialTest, VeMatchesInMemory) {
  VeGraph g = RandomTGraph(7, 40, 80, 25);
  std::string store_dir = TempDir("store_diff_ve");
  TG_CHECK_OK(WriteVeStore(g, store_dir));
  for (const SliceCase& c : AllSliceCases()) {
    Result<VeGraph> loaded = LoadVeGraph(Ctx(), store_dir, CaseOptions(c));
    TG_CHECK_OK(loaded.status());
    VeGraph expected = c.range ? SliceVe(g, *c.range) : g;
    EXPECT_EQ(Canonical(*loaded), Canonical(expected)) << CaseName(c);
  }
  std::filesystem::remove_all(store_dir);
}

TEST(StoreDifferentialTest, RgMatchesInMemory) {
  VeGraph g = RandomTGraph(11, 30, 60, 20);
  std::string store_dir = TempDir("store_diff_rg");
  TG_CHECK_OK(WriteVeStore(g, store_dir));
  RgGraph rg = VeToRg(g);
  for (const SliceCase& c : AllSliceCases()) {
    Result<RgGraph> loaded = LoadRgGraph(Ctx(), store_dir, CaseOptions(c));
    TG_CHECK_OK(loaded.status());
    RgGraph expected = c.range ? SliceRg(rg, *c.range) : rg;
    EXPECT_EQ(Canonical(RgToVe(*loaded).Coalesce()),
              Canonical(RgToVe(expected).Coalesce()))
        << CaseName(c);
  }
  std::filesystem::remove_all(store_dir);
}

TEST(StoreDifferentialTest, OgMatchesInMemory) {
  OgGraph og = VeToOg(RandomTGraph(13, 35, 70, 22));
  std::string store_dir = TempDir("store_diff_og");
  TG_CHECK_OK(WriteOgStore(og, store_dir));
  for (const SliceCase& c : AllSliceCases()) {
    Result<OgGraph> loaded = LoadOgGraph(Ctx(), store_dir, CaseOptions(c));
    TG_CHECK_OK(loaded.status());
    OgGraph expected = c.range ? SliceOg(og, *c.range) : og;
    EXPECT_EQ(Canonical(OgToVe(*loaded).Coalesce()),
              Canonical(OgToVe(expected).Coalesce()))
        << CaseName(c);
  }
  std::filesystem::remove_all(store_dir);
}

TEST(StoreDifferentialTest, OgcMatchesInMemory) {
  OgcGraph ogc = VeToOgc(RandomTGraph(17, 30, 60, 20));
  std::string store_dir = TempDir("store_diff_ogc");
  TG_CHECK_OK(WriteOgcStore(ogc, store_dir));
  for (const SliceCase& c : AllSliceCases()) {
    Result<OgcGraph> loaded = LoadOgcGraph(Ctx(), store_dir, CaseOptions(c));
    TG_CHECK_OK(loaded.status());
    OgcGraph expected = c.range ? SliceOgc(ogc, *c.range) : ogc;
    EXPECT_EQ(loaded->intervals(), expected.intervals()) << CaseName(c);
    EXPECT_EQ(CanonicalTopology(OgcToVe(*loaded)),
              CanonicalTopology(OgcToVe(expected)))
        << CaseName(c);
  }
  std::filesystem::remove_all(store_dir);
}

TEST(StoreDifferentialTest, Figure1SliceHasExpectedContents) {
  VeGraph g = Figure1();
  std::string store_dir = TempDir("store_fig1");
  TG_CHECK_OK(WriteVeStore(g, store_dir));
  LoadOptions options;
  options.time_range = Interval(8, 9);
  Result<VeGraph> sliced = LoadVeGraph(Ctx(), store_dir, options);
  TG_CHECK_OK(sliced.status());
  // Ann ([1,7)) and edge 1 ([2,7)) do not survive an [8,9) slice; Bob,
  // Cat, and edge 2 do.
  EXPECT_EQ(sliced->vertices().Collect().size(), 2u);
  EXPECT_EQ(sliced->edges().Collect().size(), 1u);
  std::filesystem::remove_all(store_dir);
}

// Zone maps must actually prune: with a structural sort and small
// partitions, a narrow slice touches only a fraction of the partitions.
TEST(StorePushdownTest, ZoneMapsSkipPartitions) {
  VeGraph g = RandomTGraph(42, 200, 400, 100);
  std::string store_dir = TempDir("store_pushdown");
  GraphWriteOptions write_options;
  write_options.sort_order = SortOrder::kStructuralLocality;
  write_options.row_group_size = 64;
  TG_CHECK_OK(WriteVeStore(g, store_dir, write_options));

  LoadOptions options;
  options.time_range = Interval(0, 5);
  Result<std::unique_ptr<StoreReader>> reader =
      StoreReader::Open(StorePath(store_dir));
  TG_CHECK_OK(reader.status());
  // Per table, the partitions the [0, 5) slice can match by zone map.
  const Predicate overlaps =
      Predicate::IntervalOverlaps("start", "end", *options.time_range);
  auto matching = [&](const char* table, size_t* total) {
    const int t = (*reader)->FindTable(table);
    *total = (*reader)->table(t).partitions.size();
    size_t kept = 0;
    for (size_t p = 0; p < *total; ++p) {
      kept += (*reader)->PartitionMaybeMatches(t, p, overlaps) ? 1 : 0;
    }
    return kept;
  };
  size_t vertex_total = 0, edge_total = 0;
  const size_t vertex_kept = matching("vertices", &vertex_total);
  const size_t edge_kept = matching("edges", &edge_total);
  EXPECT_GT(vertex_total, 1u);
  EXPECT_LT(vertex_kept, vertex_total);
  EXPECT_LT(edge_kept, edge_total);

  // The load decodes exactly the matching partitions and prunes the rest.
  obs::QueryCounterScope pruned_load;
  Result<VeGraph> sliced = LoadVeGraph(Ctx(), store_dir, options);
  TG_CHECK_OK(sliced.status());
  const obs::QueryCounterValues work = pruned_load.Delta();
  EXPECT_EQ(work[obs::QueryCounter::kStorePartitionsDecoded],
            static_cast<int64_t>(vertex_kept + edge_kept));
  EXPECT_EQ(work[obs::QueryCounter::kStorePartitionsPruned],
            static_cast<int64_t>(vertex_total - vertex_kept + edge_total -
                                 edge_kept));

  // Pushdown off: every partition is decoded, same graph comes back.
  LoadOptions no_pushdown = options;
  no_pushdown.pushdown = false;
  obs::QueryCounterScope full_load;
  Result<VeGraph> full = LoadVeGraph(Ctx(), store_dir, no_pushdown);
  TG_CHECK_OK(full.status());
  const obs::QueryCounterValues full_work = full_load.Delta();
  EXPECT_EQ(full_work[obs::QueryCounter::kStorePartitionsDecoded],
            static_cast<int64_t>(vertex_total + edge_total));
  EXPECT_EQ(full_work[obs::QueryCounter::kStorePartitionsPruned], 0);
  EXPECT_EQ(Canonical(*full), Canonical(*sliced));
  std::filesystem::remove_all(store_dir);
}

TEST(StoreReaderTest, ReaderIsSharableAcrossRangedLoads) {
  VeGraph g = RandomTGraph(5, 50, 100, 30);
  std::string store_dir = TempDir("store_shared");
  TG_CHECK_OK(WriteVeStore(g, store_dir));
  Result<std::unique_ptr<StoreReader>> reader =
      StoreReader::Open(StorePath(store_dir));
  TG_CHECK_OK(reader.status());
  (*reader)->Prefetch();
  LoadOptions full;
  LoadOptions early;
  early.time_range = Interval(0, 10);
  Result<VeGraph> a = LoadVeGraphFromStore(Ctx(), **reader, full);
  Result<VeGraph> b = LoadVeGraphFromStore(Ctx(), **reader, early);
  TG_CHECK_OK(a.status());
  TG_CHECK_OK(b.status());
  EXPECT_EQ(Canonical(*a), Canonical(g));
  std::filesystem::remove_all(store_dir);
}

// The server catalog serves two different time slices of one store dir
// off a single shared mmap reader.
TEST(StoreCatalogTest, CatalogSharesOneMmapAcrossRanges) {
  VeGraph g = Figure1();
  std::string store_dir = TempDir("store_catalog");
  TG_CHECK_OK(WriteVeStore(g, store_dir));

  server::GraphCatalog catalog(Ctx());
  Result<TGraph> full = catalog.GetOrLoad(store_dir, std::nullopt);
  Result<TGraph> sliced = catalog.GetOrLoad(store_dir, Interval(2, 7));
  TG_CHECK_OK(full.status());
  TG_CHECK_OK(sliced.status());
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(Canonical(full->ve()), Canonical(g));
  std::filesystem::remove_all(store_dir);
}

// A rewrite of the store between two lookups, as another process's
// `tgz save-store` would make it, is seen by the next lookup: it reports a
// new version and serves the new graph, also for a range never loaded
// before, and the old version's slots are gone.
TEST(StoreCatalogTest, CatalogServesTheNewGraphAfterARewrite) {
  std::string store_dir = TempDir("store_catalog_rewrite");
  VeGraph before = Figure1();
  TG_CHECK_OK(WriteVeStore(before, store_dir));
  server::GraphCatalog catalog(Ctx());
  std::string first_version;
  Result<TGraph> first =
      catalog.GetOrLoad(store_dir, std::nullopt, &first_version);
  TG_CHECK_OK(first.status());
  TG_CHECK_OK(catalog.GetOrLoad(store_dir, Interval(2, 7)).status());
  EXPECT_EQ(catalog.size(), 2u);

  VeGraph after = RandomTGraph(/*seed=*/3, /*num_vertices=*/7);
  ASSERT_NE(Canonical(after), Canonical(before));
  TG_CHECK_OK(WriteVeStore(after, store_dir));

  std::string second_version;
  Result<TGraph> second =
      catalog.GetOrLoad(store_dir + "/", std::nullopt, &second_version);
  TG_CHECK_OK(second.status());
  EXPECT_NE(second_version, first_version);
  EXPECT_EQ(Canonical(second->ve()), Canonical(after));
  EXPECT_EQ(catalog.size(), 1u);
  Result<TGraph> ranged = catalog.GetOrLoad(store_dir, Interval(0, 5));
  TG_CHECK_OK(ranged.status());
  EXPECT_EQ(Canonical(ranged->ve()), Canonical(SliceVe(after, Interval(0, 5))));
  EXPECT_EQ(catalog.size(), 2u);
  Result<std::string> current = catalog.CurrentVersion(store_dir);
  TG_CHECK_OK(current.status());
  EXPECT_EQ(*current, second_version);
  std::filesystem::remove_all(store_dir);
}

}  // namespace
}  // namespace tgraph::storage
