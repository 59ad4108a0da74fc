// Differential and behavioral tests for tgraph-store v3: an encoded v3
// container must load canonically identically to the raw v2 container of
// the same graph for every representation, with and without a temporal
// slice, with pushdown on and off; encodings must actually be chosen (and
// shrink the file); pruned partitions must never be decoded; and the
// decoded-segment cache must be shared, metered, and budget-checked.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "storage/graph_io.h"
#include "storage/store_format.h"
#include "storage/store_reader.h"
#include "tests/test_util.h"
#include "tgraph/convert.h"

namespace tgraph::storage {
namespace {

using ::tgraph::testing::Canonical;
using ::tgraph::testing::CanonicalTopology;
using ::tgraph::testing::Ctx;
using ::tgraph::testing::RandomTGraph;

std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

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

GraphWriteOptions Versioned(uint32_t version, int64_t row_group_size = 64) {
  GraphWriteOptions options;
  options.store_version = version;
  options.row_group_size = row_group_size;
  return options;
}

int64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                     const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

/// Per-encoding segment counts of every table in a store file.
std::map<std::string, int> EncodingHistogram(const StoreReader& reader) {
  std::map<std::string, int> histogram;
  for (const TableMeta& table : reader.footer().tables) {
    for (const PartitionMeta& partition : table.partitions) {
      for (const SegmentMeta& segment : partition.segments) {
        ++histogram[SegmentEncodingName(segment.encoding)];
      }
    }
  }
  return histogram;
}

// --- differential identity: encoded v3 vs raw v2 --------------------------

TEST(StoreV3DifferentialTest, VeAndRgMatchRawV2) {
  VeGraph g = RandomTGraph(21, 60, 120, 30);
  std::string v2_dir = TempDir("v3diff_ve_v2");
  std::string v3_dir = TempDir("v3diff_ve_v3");
  TG_CHECK_OK(WriteVeStore(g, v2_dir, Versioned(2)));
  TG_CHECK_OK(WriteVeStore(g, v3_dir, Versioned(3)));
  for (const SliceCase& c : AllSliceCases()) {
    LoadOptions options;
    options.time_range = c.range;
    options.pushdown = c.pushdown;
    Result<VeGraph> from_v2 = LoadVeGraph(Ctx(), v2_dir, options);
    Result<VeGraph> from_v3 = LoadVeGraph(Ctx(), v3_dir, options);
    TG_CHECK_OK(from_v2.status());
    TG_CHECK_OK(from_v3.status());
    EXPECT_EQ(Canonical(*from_v3), Canonical(*from_v2))
        << "range=" << (c.range ? c.range->ToString() : "none")
        << " pushdown=" << c.pushdown;
    Result<RgGraph> rg_v2 = LoadRgGraph(Ctx(), v2_dir, options);
    Result<RgGraph> rg_v3 = LoadRgGraph(Ctx(), v3_dir, options);
    TG_CHECK_OK(rg_v2.status());
    TG_CHECK_OK(rg_v3.status());
    EXPECT_EQ(Canonical(RgToVe(*rg_v3).Coalesce()),
              Canonical(RgToVe(*rg_v2).Coalesce()))
        << "range=" << (c.range ? c.range->ToString() : "none")
        << " pushdown=" << c.pushdown;
  }
  std::filesystem::remove_all(v2_dir);
  std::filesystem::remove_all(v3_dir);
}

TEST(StoreV3DifferentialTest, OgMatchesRawV2) {
  OgGraph og = VeToOg(RandomTGraph(23, 40, 80, 25));
  std::string v2_dir = TempDir("v3diff_og_v2");
  std::string v3_dir = TempDir("v3diff_og_v3");
  TG_CHECK_OK(WriteOgStore(og, v2_dir, Versioned(2)));
  TG_CHECK_OK(WriteOgStore(og, v3_dir, Versioned(3)));
  for (const SliceCase& c : AllSliceCases()) {
    LoadOptions options;
    options.time_range = c.range;
    options.pushdown = c.pushdown;
    Result<OgGraph> from_v2 = LoadOgGraph(Ctx(), v2_dir, options);
    Result<OgGraph> from_v3 = LoadOgGraph(Ctx(), v3_dir, options);
    TG_CHECK_OK(from_v2.status());
    TG_CHECK_OK(from_v3.status());
    EXPECT_EQ(Canonical(OgToVe(*from_v3).Coalesce()),
              Canonical(OgToVe(*from_v2).Coalesce()))
        << "range=" << (c.range ? c.range->ToString() : "none")
        << " pushdown=" << c.pushdown;
  }
  std::filesystem::remove_all(v2_dir);
  std::filesystem::remove_all(v3_dir);
}

TEST(StoreV3DifferentialTest, OgcMatchesRawV2) {
  OgcGraph ogc = VeToOgc(RandomTGraph(29, 40, 80, 25));
  std::string v2_dir = TempDir("v3diff_ogc_v2");
  std::string v3_dir = TempDir("v3diff_ogc_v3");
  TG_CHECK_OK(WriteOgcStore(ogc, v2_dir, Versioned(2)));
  TG_CHECK_OK(WriteOgcStore(ogc, v3_dir, Versioned(3)));
  for (const SliceCase& c : AllSliceCases()) {
    LoadOptions options;
    options.time_range = c.range;
    options.pushdown = c.pushdown;
    Result<OgcGraph> from_v2 = LoadOgcGraph(Ctx(), v2_dir, options);
    Result<OgcGraph> from_v3 = LoadOgcGraph(Ctx(), v3_dir, options);
    TG_CHECK_OK(from_v2.status());
    TG_CHECK_OK(from_v3.status());
    EXPECT_EQ(CanonicalTopology(OgcToVe(*from_v3)),
              CanonicalTopology(OgcToVe(*from_v2)))
        << "range=" << (c.range ? c.range->ToString() : "none")
        << " pushdown=" << c.pushdown;
  }
  std::filesystem::remove_all(v2_dir);
  std::filesystem::remove_all(v3_dir);
}

// --- encoding selection ---------------------------------------------------

TEST(StoreV3Test, EncodingsAreChosenAndShrinkTheFile) {
  // Temporal data is the favorable case the encodings were built for:
  // sorted interval columns (delta/FOR), low-cardinality property blobs
  // (dict), and the writer's measured selection must never lose to raw.
  VeGraph g = RandomTGraph(31, 300, 600, 60);
  std::string v2_dir = TempDir("v3_size_v2");
  std::string v3_dir = TempDir("v3_size_v3");
  TG_CHECK_OK(WriteVeStore(g, v2_dir, Versioned(2, 16 * 1024)));
  TG_CHECK_OK(WriteVeStore(g, v3_dir, Versioned(3, 16 * 1024)));
  uintmax_t v2_size = std::filesystem::file_size(StorePath(v2_dir));
  uintmax_t v3_size = std::filesystem::file_size(StorePath(v3_dir));
  EXPECT_LT(v3_size, v2_size);

  Result<std::unique_ptr<StoreReader>> v2 = StoreReader::Open(StorePath(v2_dir));
  Result<std::unique_ptr<StoreReader>> v3 = StoreReader::Open(StorePath(v3_dir));
  TG_CHECK_OK(v2.status());
  TG_CHECK_OK(v3.status());
  EXPECT_EQ((*v2)->version(), kStoreVersion);
  EXPECT_EQ((*v3)->version(), kStoreVersionV3);

  // A v2 file is all-raw by construction.
  std::map<std::string, int> v2_histogram = EncodingHistogram(**v2);
  EXPECT_EQ(v2_histogram.size(), 1u);
  EXPECT_GT(v2_histogram["raw"], 0);
  // The v3 file must have picked at least one int64 encoding; double
  // columns (if any) always stay raw.
  std::map<std::string, int> v3_histogram = EncodingHistogram(**v3);
  EXPECT_GT(v3_histogram["delta_varint"] + v3_histogram["for"], 0);

  // Every encoded segment's descriptor must beat its raw layout — the
  // writer's mandatory-fallback rule, checked from the footer.
  for (const TableMeta& table : (*v3)->footer().tables) {
    for (const PartitionMeta& partition : table.partitions) {
      for (const SegmentMeta& segment : partition.segments) {
        if (segment.encoding != SegmentEncoding::kRaw) {
          EXPECT_LT(segment.byte_size, segment.plain_size);
        } else {
          EXPECT_EQ(segment.byte_size, segment.plain_size);
        }
      }
    }
  }
  std::filesystem::remove_all(v2_dir);
  std::filesystem::remove_all(v3_dir);
}

// --- selective decode and the decoded-segment cache -----------------------

TEST(StoreV3Test, PrunedPartitionsAreNeverDecoded) {
  VeGraph g = RandomTGraph(42, 200, 400, 100);
  std::string dir = TempDir("v3_pruned");
  GraphWriteOptions write_options = Versioned(3, 64);
  write_options.sort_order = SortOrder::kStructuralLocality;
  TG_CHECK_OK(WriteVeStore(g, dir, write_options));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  LoadOptions narrow;
  narrow.time_range = Interval(0, 5);

  obs::MetricsSnapshot before = registry.Snapshot();
  Result<VeGraph> sliced = LoadVeGraph(Ctx(), dir, narrow);
  TG_CHECK_OK(sliced.status());
  obs::MetricsSnapshot sliced_delta = registry.Snapshot().DeltaSince(before);

  before = registry.Snapshot();
  Result<VeGraph> full = LoadVeGraph(Ctx(), dir, {});
  TG_CHECK_OK(full.status());
  obs::MetricsSnapshot full_delta = registry.Snapshot().DeltaSince(before);

  namespace names = obs::metric_names;
  // The narrow slice pruned partitions; the full load pruned none.
  EXPECT_GT(CounterValue(sliced_delta, names::kStorePartitionsPruned), 0);
  EXPECT_EQ(CounterValue(full_delta, names::kStorePartitionsPruned), 0);
  // Pruned partitions are never decoded: the sliced load decoded strictly
  // fewer segments (each load opens its own reader, so nothing is shared
  // between the two deltas).
  int64_t sliced_decodes =
      CounterValue(sliced_delta, names::kStoreSegmentsDecoded);
  int64_t full_decodes = CounterValue(full_delta, names::kStoreSegmentsDecoded);
  EXPECT_GT(full_decodes, 0);
  EXPECT_LT(sliced_decodes, full_decodes);
  EXPECT_LT(CounterValue(sliced_delta, names::kStoreDecodedBytes),
            CounterValue(full_delta, names::kStoreDecodedBytes));
  std::filesystem::remove_all(dir);
}

TEST(StoreV3Test, DecodeCacheIsSharedAcrossLoadsOfOneReader) {
  VeGraph g = RandomTGraph(37, 80, 160, 40);
  std::string dir = TempDir("v3_cache");
  TG_CHECK_OK(WriteVeStore(g, dir, Versioned(3)));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  namespace names = obs::metric_names;
  Result<std::unique_ptr<StoreReader>> reader =
      StoreReader::Open(StorePath(dir));
  TG_CHECK_OK(reader.status());
  EXPECT_EQ((*reader)->decoded_cache_bytes(), 0u);

  obs::MetricsSnapshot before = registry.Snapshot();
  TG_CHECK_OK(LoadVeGraphFromStore(Ctx(), **reader, {}).status());
  obs::MetricsSnapshot first = registry.Snapshot().DeltaSince(before);
  EXPECT_GT(CounterValue(first, names::kStoreSegmentsDecoded), 0);
  uint64_t pinned = (*reader)->decoded_cache_bytes();
  EXPECT_GT(pinned, 0u);
  EXPECT_EQ(static_cast<int64_t>(pinned),
            CounterValue(first, names::kStoreDecodedBytes));

  // Second load off the same reader: zero new decodes, all cache hits,
  // no growth of the pinned bytes.
  before = registry.Snapshot();
  TG_CHECK_OK(LoadVeGraphFromStore(Ctx(), **reader, {}).status());
  obs::MetricsSnapshot second = registry.Snapshot().DeltaSince(before);
  EXPECT_EQ(CounterValue(second, names::kStoreSegmentsDecoded), 0);
  EXPECT_GT(CounterValue(second, names::kStoreDecodeCacheHits), 0);
  EXPECT_EQ((*reader)->decoded_cache_bytes(), pinned);

  // Destroying the reader releases its pinned bytes from the global gauge.
  int64_t gauge_before = registry.Snapshot().gauges.at(
      names::kStoreDecodeCacheBytes);
  reader->reset();
  int64_t gauge_after = registry.Snapshot().gauges.at(
      names::kStoreDecodeCacheBytes);
  EXPECT_EQ(gauge_before - gauge_after, static_cast<int64_t>(pinned));
  std::filesystem::remove_all(dir);
}

TEST(StoreV3Test, GenerationBelowEightBytesARowOpensAndRoundTrips) {
  // A compacted live generation of many short-lived edges between two
  // vertices: sequential ids and times, constant endpoints and properties.
  // Its encoded segments take far less than 8 bytes a row, which layout
  // validation once mistook for a row count the file could not hold.
  std::string dir = TempDir("v3_tiny_live");
  ingest::LiveGraph::Options options;
  options.delta_events_threshold = 0;
  options.sync = false;
  Result<std::unique_ptr<ingest::LiveGraph>> live =
      ingest::LiveGraph::Open(Ctx(), dir, options);
  ASSERT_TRUE(live.ok()) << live.status();
  constexpr int kEdges = 2000;
  std::vector<ingest::Event> events;
  for (VertexId vid : {1, 2}) {
    ingest::Event add;
    add.kind = ingest::EventKind::kAddVertex;
    add.id = vid;
    add.at = vid;
    add.props = Properties{{"type", "node"}};
    events.push_back(std::move(add));
  }
  for (int i = 0; i < kEdges; ++i) {
    ingest::Event add;
    add.kind = ingest::EventKind::kAddEdge;
    add.id = i + 1;
    add.src = 1;
    add.dst = 2;
    add.at = 10 + 2 * i;
    add.props = Properties{{"type", "link"}};
    events.push_back(std::move(add));
    ingest::Event remove;
    remove.kind = ingest::EventKind::kRemoveEdge;
    remove.id = i + 1;
    remove.at = 11 + 2 * i;
    events.push_back(std::move(remove));
  }
  ASSERT_TRUE((*live)->Append(events).ok());
  ASSERT_TRUE((*live)->Compact().ok());
  Result<const VeGraph*> expected = (*live)->snapshot()->Graph();
  ASSERT_TRUE(expected.ok()) << expected.status();

  std::string gen_file;
  std::ifstream(dir + "/" + ingest::kCurrentFileName) >> gen_file;
  const std::string gen_path = dir + "/" + gen_file;
  // The premise: the whole file is smaller than 8 bytes per edge row.
  ASSERT_LT(std::filesystem::file_size(gen_path), uint64_t{8} * kEdges);

  Result<std::unique_ptr<StoreReader>> reader = StoreReader::Open(gen_path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  Result<VeGraph> loaded = LoadVeGraphFromStore(Ctx(), **reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(Canonical(*loaded), Canonical(**expected));
  ASSERT_TRUE((*live)->Close().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tgraph::storage
