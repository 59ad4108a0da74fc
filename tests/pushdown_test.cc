#include <gtest/gtest.h>

#include <filesystem>

#include "common/logging.h"
#include "obs/trace.h"
#include "storage/graph_io.h"
#include "storage/predicate.h"
#include "storage/store_reader.h"
#include "storage/store_writer.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace tgraph::storage {
namespace {

using ::tgraph::testing::Ctx;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Schema TimeSchema() {
  return Schema{{{"id", ColumnType::kInt64},
                 {"start", ColumnType::kInt64},
                 {"end", ColumnType::kInt64}}};
}

/// 1000 rows, row i valid over [s, s+5) with s = order(i), in 100-row v3
/// partitions.
template <typename Order>
std::string WriteStoreFile(const std::string& name, const Order& order) {
  std::string path = TempPath(name);
  StoreWriterOptions options;
  options.partition_rows = 100;
  auto writer = StoreWriter::Open(path, options);
  TG_CHECK(writer.ok());
  int t = (*writer)->AddTable("rows", TimeSchema());
  RecordBatch batch;
  batch.schema = TimeSchema();
  batch.columns.resize(3);
  for (int64_t i = 0; i < 1000; ++i) {
    const int64_t s = order(i);
    batch.columns[0].ints.push_back(s);
    batch.columns[1].ints.push_back(s);
    batch.columns[2].ints.push_back(s + 5);
  }
  batch.num_rows = 1000;
  TG_CHECK_OK((*writer)->Append(t, batch));
  TG_CHECK_OK((*writer)->Close());
  return path;
}

std::string WriteSortedFile(const std::string& name) {
  return WriteStoreFile(name, [](int64_t i) { return i; });
}

/// What a loader does with one table: prune partitions by zone map
/// (`predicate` may be null), decode the survivors, and count the rows
/// overlapping `query`.
struct Scan {
  size_t partitions_decoded = 0;
  int64_t rows = 0;
};

Scan ScanOverlapping(const StoreReader& reader, const Predicate* predicate,
                     Interval query) {
  Scan scan;
  const int t = reader.FindTable("rows");
  for (size_t p = 0; p < reader.table(t).partitions.size(); ++p) {
    if (predicate != nullptr &&
        !reader.PartitionMaybeMatches(t, p, *predicate)) {
      continue;
    }
    ++scan.partitions_decoded;
    auto starts = reader.Int64Column(t, p, 1);
    auto ends = reader.Int64Column(t, p, 2);
    TG_CHECK_OK(starts.status());
    TG_CHECK_OK(ends.status());
    for (size_t i = 0; i < starts->size(); ++i) {
      if (Interval((*starts)[i], (*ends)[i]).Overlaps(query)) ++scan.rows;
    }
  }
  return scan;
}

TEST(PredicateTest, MaybeMatchesUsesStats) {
  Schema schema = TimeSchema();
  std::vector<ColumnStats> stats(3);
  stats[1] = ColumnStats{true, 100, 199};  // start in [100, 199]
  stats[2] = ColumnStats{true, 105, 204};  // end in [105, 204]

  // Query range [150, 160): overlaps.
  EXPECT_TRUE(Predicate::IntervalOverlaps("start", "end", Interval(150, 160))
                  .MaybeMatches(schema, stats));
  // Query range [500, 600): start stats exclude it.
  EXPECT_FALSE(Predicate::IntervalOverlaps("start", "end", Interval(500, 600))
                   .MaybeMatches(schema, stats));
  // Query range [0, 50): end stats exclude it (all rows end >= 105 > 50 is
  // fine for "end > start_of_query" but start must be < 50; min start 100).
  EXPECT_FALSE(Predicate::IntervalOverlaps("start", "end", Interval(0, 50))
                   .MaybeMatches(schema, stats));
}

TEST(PredicateTest, UnknownColumnsAreConservative) {
  Schema schema = TimeSchema();
  std::vector<ColumnStats> stats(3);  // no stats at all
  EXPECT_TRUE(Predicate::IntervalOverlaps("start", "end", Interval(0, 1))
                  .MaybeMatches(schema, stats));
  Predicate odd;
  odd.And(Predicate::ColumnRange{"no_such_column", 5, true, 10, true});
  EXPECT_TRUE(odd.MaybeMatches(schema, stats));
}

TEST(PushdownTest, PrunesPartitionsOutsideRange) {
  auto reader = StoreReader::Open(WriteSortedFile("pushdown_sorted.tgs"));
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->table(0).partitions.size(), 10u);

  const Interval query(250, 260);
  Predicate p = Predicate::IntervalOverlaps("start", "end", query);
  Scan scan = ScanOverlapping(**reader, &p, query);
  // Rows overlapping [250,260): starts 246..259 -> 14 rows.
  EXPECT_EQ(scan.rows, 14);
  // Sorted file: only 1-2 of 10 partitions may be decoded.
  EXPECT_LE(scan.partitions_decoded, 2u);
}

TEST(PushdownTest, UnsortedFileDecodesMorePartitions) {
  // Same data, shuffled: zone maps widen and pruning degrades — this is
  // exactly why the writers sort (Section 4).
  auto reader = StoreReader::Open(WriteStoreFile(
      "pushdown_shuffled.tgs", [](int64_t i) { return (i * 617) % 1000; }));
  ASSERT_TRUE(reader.ok());
  const Interval query(250, 260);
  Predicate p = Predicate::IntervalOverlaps("start", "end", query);
  Scan scan = ScanOverlapping(**reader, &p, query);
  EXPECT_EQ(scan.rows, 14);                  // same rows either way
  EXPECT_EQ(scan.partitions_decoded, 10u);   // but every partition decoded
}

TEST(PushdownTest, NoPredicateDecodesEverything) {
  auto reader = StoreReader::Open(WriteSortedFile("pushdown_all.tgs"));
  ASSERT_TRUE(reader.ok());
  Scan scan = ScanOverlapping(**reader, nullptr, Interval(0, 2000));
  EXPECT_EQ(scan.rows, 1000);
  EXPECT_EQ(scan.partitions_decoded, 10u);
}

TEST(PushdownTest, NothingDecodedWhenRangeBeyondData) {
  auto reader = StoreReader::Open(WriteSortedFile("pushdown_empty.tgs"));
  ASSERT_TRUE(reader.ok());
  const Interval query(5000, 6000);
  Predicate p = Predicate::IntervalOverlaps("start", "end", query);
  Scan scan = ScanOverlapping(**reader, &p, query);
  EXPECT_EQ(scan.rows, 0);
  EXPECT_EQ(scan.partitions_decoded, 0u);
}

/// 1000 vertices; vertex (i * 617) % 1000 lives over [i, i + 5), so an id
/// order and a time order disagree.
VeGraph ScatteredGraph() {
  std::vector<VeVertex> vertices;
  for (int64_t i = 0; i < 1000; ++i) {
    vertices.push_back(VeVertex{(i * 617) % 1000, Interval(i, i + 5), {}});
  }
  return VeGraph::Create(Ctx(), std::move(vertices), {}, Interval(0, 1005));
}

/// The graph loaders prune by the same zone maps. Which sort order
/// prunes well depends on what the query slices: a time range only prunes
/// the structurally sorted (start, id) store. Both orders load the same
/// rows, with pushdown on and off.
TEST(PushdownTest, GraphLoadPrunesUnderStructuralSortOnly) {
  const VeGraph graph = ScatteredGraph();
  LoadOptions load;
  load.time_range = Interval(250, 260);
  int64_t expected_rows = -1;
  for (SortOrder order :
       {SortOrder::kStructuralLocality, SortOrder::kTemporalLocality}) {
    SCOPED_TRACE(SortOrderName(order));
    const std::string dir =
        TempPath(std::string("pushdown_graph_") + SortOrderName(order));
    GraphWriteOptions write;
    write.sort_order = order;
    write.row_group_size = 100;
    ASSERT_TRUE(WriteVeStore(graph, dir, write).ok());
    {
      // The graph has no edges, so the load's partition counters count
      // the 10 vertex partitions alone.
      Result<std::unique_ptr<StoreReader>> reader =
          StoreReader::Open(StorePath(dir));
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      EXPECT_EQ((*reader)->table((*reader)->FindTable("vertices"))
                    .partitions.size(),
                10u);
      EXPECT_EQ(
          (*reader)->table((*reader)->FindTable("edges")).partitions.size(),
          0u);
    }
    for (bool pushdown : {true, false}) {
      load.pushdown = pushdown;
      obs::QueryCounterScope work;
      Result<VeGraph> loaded = LoadVeGraph(Ctx(), dir, load);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      const int64_t decoded =
          work.Delta()[obs::QueryCounter::kStorePartitionsDecoded];
      const int64_t pruned =
          work.Delta()[obs::QueryCounter::kStorePartitionsPruned];
      const int64_t rows = loaded->vertices().Count();
      if (expected_rows < 0) expected_rows = rows;
      EXPECT_EQ(rows, expected_rows);
      EXPECT_EQ(decoded + pruned, 10);
      const int64_t expected_decoded =
          !pushdown ? 10 : (order == SortOrder::kStructuralLocality ? 1 : 10);
      EXPECT_LE(decoded, expected_decoded + 1);
      EXPECT_GE(decoded, expected_decoded);
    }
  }
  EXPECT_EQ(expected_rows, 14);
}

}  // namespace
}  // namespace tgraph::storage
