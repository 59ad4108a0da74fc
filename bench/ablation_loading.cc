// Ablation (Section 4, "Data loading"): what loading a graph out of the
// tgraph-store v3 container costs, along the three choices the paper's
// loading story turns on:
//   sort order — temporal (entity id, start) vs structural (start, id)
//   reader     — cold: StoreReader::Open plus a load (footer parse, mmap,
//                checksum, decode) every repetition; warm: one reader,
//                opened and its decoded-segment cache filled before timing
//                (the tgraphd catalog's serving path)
//   range      — the full lifetime vs a narrow 6-tick slice with zone-map
//                pushdown
// Every cell is timed kRepeats times and reported as min, median,
// quartiles and spread; ranged cells also report partitions decoded out of
// the total. "Cold" means a cold reader, not a cold page cache: the store
// file stays in the OS cache between repetitions.
//
// The paper's claim under test: a ranged load of a structurally sorted
// store touches fewer partitions, and is faster, than the same load of a
// temporally sorted one. Prints one line per cell and writes the
// trajectory to BENCH_loading.json (override the path with argv[1]).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "storage/graph_io.h"
#include "storage/predicate.h"
#include "storage/store_reader.h"

namespace {

using namespace tgraph;           // NOLINT
using namespace tgraph::bench;    // NOLINT
using namespace tgraph::storage;  // NOLINT

constexpr int kRepeats = 21;

std::string Dir(const std::string& dataset, SortOrder order) {
  return (std::filesystem::temp_directory_path() /
          ("tgz_bench_loading_" + dataset + "_" + SortOrderName(order)))
      .string();
}

/// Partitions of one table a load decodes, out of the table's total.
struct TablePartitions {
  int64_t decoded = 0;
  int64_t total = 0;
};

/// What a load of `store` over `range` decodes per table, read off the
/// zone maps the loader prunes by (the range lies inside the lifetime, so
/// the loader's clip is the range itself).
TablePartitions CountPartitions(const StoreReader& store,
                                const std::string& table,
                                const std::optional<Interval>& range) {
  const int t = store.FindTable(table);
  TG_CHECK(t >= 0) << "no table " << table;
  TablePartitions out;
  out.total = static_cast<int64_t>(store.table(t).partitions.size());
  for (size_t p = 0; p < store.table(t).partitions.size(); ++p) {
    if (!range.has_value() ||
        store.PartitionMaybeMatches(
            t, p, Predicate::IntervalOverlaps("start", "end", *range))) {
      ++out.decoded;
    }
  }
  return out;
}

struct Cell {
  Samples time;
  TablePartitions vertices;
  TablePartitions edges;
};

/// Times kRepeats loads of `dir`; `warm` shares one primed reader.
Cell Measure(const std::string& dir, bool warm,
             const std::optional<Interval>& range) {
  LoadOptions options;
  options.time_range = range;
  std::unique_ptr<StoreReader> shared;
  if (warm) {
    Result<std::unique_ptr<StoreReader>> reader =
        StoreReader::Open(StorePath(dir));
    TG_CHECK_OK(reader.status());
    shared = *std::move(reader);
    TG_CHECK_OK(LoadVeGraphFromStore(Ctx(), *shared, options).status());
  }
  Cell cell;
  {
    Result<std::unique_ptr<StoreReader>> reader =
        StoreReader::Open(StorePath(dir));
    TG_CHECK_OK(reader.status());
    cell.vertices = CountPartitions(**reader, "vertices", range);
    cell.edges = CountPartitions(**reader, "edges", range);
  }
  for (int r = 0; r < kRepeats; ++r) {
    obs::QueryCounterScope work;
    const auto start = std::chrono::steady_clock::now();
    Result<VeGraph> g = warm ? LoadVeGraphFromStore(Ctx(), *shared, options)
                             : LoadVeGraph(Ctx(), dir, options);
    TG_CHECK_OK(g.status());
    benchmark::DoNotOptimize(g->NumEdgeRecords());
    const auto end = std::chrono::steady_clock::now();
    cell.time.ms.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
    // The zone-map counts must be what the load actually decoded.
    TG_CHECK(work.Delta()[obs::QueryCounter::kStorePartitionsDecoded] ==
             cell.vertices.decoded + cell.edges.decoded);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_loading.json";
  struct DatasetCase {
    const char* name;
    VeGraph (*base)();
  };
  DatasetCase cases[] = {{"WikiTalk", &WikiTalkBase},
                         {"SNB", &SnbBase},
                         {"NGrams", &NGramsBase}};
  const SortOrder orders[] = {SortOrder::kTemporalLocality,
                              SortOrder::kStructuralLocality};

  std::vector<JsonObject> datasets;
  for (const DatasetCase& c : cases) {
    const VeGraph g = c.base();
    PrintDataset(c.name, g);
    for (SortOrder order : orders) {
      GraphWriteOptions write;
      write.row_group_size = 4096;
      write.sort_order = order;
      TG_CHECK_OK(WriteVeStore(g, Dir(c.name, order), write));
    }
    const Interval lifetime = g.lifetime();
    const TimePoint mid = (lifetime.start + lifetime.end) / 2;
    const Interval narrow(mid, mid + 6);

    std::vector<JsonObject> cells;
    // Ranged median per (reader, sort order), for the sort-order claim.
    double ranged_median[2][2] = {};
    for (SortOrder order : orders) {
      for (bool warm : {false, true}) {
        for (bool ranged : {false, true}) {
          const Cell cell =
              Measure(Dir(c.name, order), warm,
                      ranged ? std::optional<Interval>(narrow) : std::nullopt);
          if (ranged) {
            ranged_median[warm][order == SortOrder::kStructuralLocality] =
                cell.time.Median();
          }
          std::printf(
              "load/%s/%s/%s/%s  min %7.2f  median %7.2f ms  spread %.3f  "
              "partitions v %" PRId64 "/%" PRId64 " e %" PRId64 "/%" PRId64
              "\n",
              c.name, SortOrderName(order), warm ? "warm" : "cold",
              ranged ? "range" : "full", cell.time.Min(), cell.time.Median(),
              cell.time.Spread(), cell.vertices.decoded, cell.vertices.total,
              cell.edges.decoded, cell.edges.total);
          JsonObject json;
          json.Str("sort", SortOrderName(order))
              .Str("reader", warm ? "warm" : "cold")
              .Str("range", ranged ? "range" : "full")
              .Timing("load", cell.time)
              .Int("vertex_partitions_decoded", cell.vertices.decoded)
              .Int("vertex_partitions_total", cell.vertices.total)
              .Int("edge_partitions_decoded", cell.edges.decoded)
              .Int("edge_partitions_total", cell.edges.total);
          cells.push_back(std::move(json));
        }
      }
    }
    // Structural over temporal median ranged-load time; < 1 means the
    // structural sort loads the slice faster.
    JsonObject claim;
    claim.Num("cold", ranged_median[0][1] / ranged_median[0][0])
        .Num("warm", ranged_median[1][1] / ranged_median[1][0]);
    std::printf("%s ranged load, structural / temporal median: cold %.3f "
                "warm %.3f\n",
                c.name, ranged_median[0][1] / ranged_median[0][0],
                ranged_median[1][1] / ranged_median[1][0]);

    JsonObject dataset;
    dataset.Str("name", c.name)
        .Str("range", narrow.ToString())
        .Obj("ranged_structural_over_temporal", std::move(claim))
        .Arr("cells", std::move(cells));
    datasets.push_back(std::move(dataset));
    for (SortOrder order : orders) {
      std::filesystem::remove_all(Dir(c.name, order));
    }
  }

  JsonObject json;
  json.Str("benchmark", "ablation_loading")
      .Int("repetitions", kRepeats)
      .Int("partition_rows", 4096)
      .Arr("datasets", std::move(datasets));
  json.WriteFile(json_path);
  return 0;
}
