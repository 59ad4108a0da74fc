// Ablation (tgraph-store v3): what the per-segment encodings buy and
// cost. For each benchmark dataset the same graph is written twice — as
// the raw v2 layout (GraphWriteOptions::store_version = 2, the library's
// reference writer) and as v3 (measured per-segment encoding selection
// with raw fallback) — and both containers are measured on:
//   bytes      — file size on disk (the compression claim)
//   cold load  — open + full load, mmap and decode from scratch
//   selective  — open + narrow ranged load with zone-map pushdown (the
//                selective-decode claim: pruned partitions are never
//                decoded, so the decode tax shrinks with selectivity)
// plus the v3 footer's per-encoding segment histogram and the pruned vs
// decoded partition counters of the selective leg. Each timing is
// repeated kRepeats times and reported as min, median, quartiles and
// spread.
//
// Prints one human-readable block per dataset and writes the machine-
// readable trajectory to BENCH_compression.json (override the path with
// argv[1]). Acceptance gate tracked in EXPERIMENTS.md: the NGrams-like
// store must shrink >= 3x with a cold load no slower than the v2
// baseline.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "storage/graph_io.h"
#include "storage/store_format.h"
#include "storage/store_reader.h"

namespace {

using namespace tgraph;           // NOLINT
using namespace tgraph::bench;    // NOLINT
using namespace tgraph::storage;  // NOLINT

constexpr int kRepeats = 21;

std::string Dir(const std::string& dataset, const std::string& leg) {
  return (std::filesystem::temp_directory_path() /
          ("tgz_bench_compression_" + dataset + "_" + leg))
      .string();
}

/// One open-and-load pass, timed end to end (the cold path: header and
/// footer parse, mmap, checksum, decode, graph build).
double TimedLoadMillis(const std::string& dir,
                       const std::optional<Interval>& range) {
  LoadOptions options;
  options.time_range = range;
  auto start = std::chrono::steady_clock::now();
  Result<VeGraph> g = LoadVeGraph(Ctx(), dir, options);
  TG_CHECK_OK(g.status());
  benchmark::DoNotOptimize(g->NumEdgeRecords());
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct LegResult {
  uintmax_t bytes = 0;
  Samples cold;
  Samples selective;
  int64_t partitions_pruned = 0;    // selective leg
  int64_t partitions_decoded = 0;   // selective leg
  int64_t segments_decoded = 0;     // selective leg (0 for v2: raw is
                                    // served zero-copy, never decoded)
};

LegResult MeasureLeg(const std::string& dir, const Interval& narrow) {
  LegResult result;
  result.bytes = std::filesystem::file_size(StorePath(dir));
  for (int r = 0; r < kRepeats; ++r) {
    result.cold.ms.push_back(TimedLoadMillis(dir, std::nullopt));
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::MetricsSnapshot before = registry.Snapshot();
  for (int r = 0; r < kRepeats; ++r) {
    result.selective.ms.push_back(TimedLoadMillis(dir, narrow));
  }
  obs::MetricsSnapshot delta = registry.Snapshot().DeltaSince(before);
  auto counter = [&](const char* name) -> int64_t {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second / kRepeats;
  };
  result.partitions_pruned = counter(obs::metric_names::kStorePartitionsPruned);
  result.partitions_decoded =
      counter(obs::metric_names::kStorePartitionsDecoded);
  result.segments_decoded = counter(obs::metric_names::kStoreSegmentsDecoded);
  return result;
}

std::map<std::string, int> EncodingHistogram(const std::string& dir) {
  Result<std::unique_ptr<StoreReader>> reader =
      StoreReader::Open(StorePath(dir));
  TG_CHECK_OK(reader.status());
  std::map<std::string, int> histogram;
  for (const TableMeta& table : (*reader)->footer().tables) {
    for (const PartitionMeta& partition : table.partitions) {
      for (const SegmentMeta& segment : partition.segments) {
        ++histogram[SegmentEncodingName(segment.encoding)];
      }
    }
  }
  return histogram;
}

JsonObject LegJson(const LegResult& leg) {
  JsonObject json;
  json.Int("bytes", static_cast<int64_t>(leg.bytes))
      .Timing("cold_load", leg.cold)
      .Timing("selective_query", leg.selective)
      .Int("partitions_pruned", leg.partitions_pruned)
      .Int("partitions_decoded", leg.partitions_decoded)
      .Int("segments_decoded", leg.segments_decoded);
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = argc > 1 ? argv[1] : "BENCH_compression.json";
  struct DatasetCase {
    const char* name;
    VeGraph (*base)();
  };
  DatasetCase cases[] = {{"WikiTalk", &WikiTalkBase},
                         {"SNB", &SnbBase},
                         {"NGrams", &NGramsBase}};

  std::vector<JsonObject> datasets;
  for (const DatasetCase& c : cases) {
    VeGraph g = c.base();
    GraphWriteOptions options;
    options.row_group_size = 4096;
    // Structural locality clusters rows by interval start, which is what
    // gives the zone maps pruning power on the selective leg (temporal
    // locality would make every partition span the whole lifetime).
    options.sort_order = SortOrder::kStructuralLocality;
    options.store_version = 2;
    TG_CHECK_OK(WriteVeStore(g, Dir(c.name, "v2"), options));
    options.store_version = 3;
    TG_CHECK_OK(WriteVeStore(g, Dir(c.name, "v3"), options));

    Interval lifetime = g.lifetime();
    TimePoint mid = (lifetime.start + lifetime.end) / 2;
    Interval narrow(mid, mid + 6);

    const LegResult v2 = MeasureLeg(Dir(c.name, "v2"), narrow);
    const LegResult v3 = MeasureLeg(Dir(c.name, "v3"), narrow);
    const std::map<std::string, int> encodings =
        EncodingHistogram(Dir(c.name, "v3"));
    const double ratio =
        static_cast<double>(v2.bytes) / static_cast<double>(v3.bytes);

    std::printf("%s\n", c.name);
    std::printf("  bytes          v2 %9llu   v3 %9llu   (%.2fx smaller)\n",
                static_cast<unsigned long long>(v2.bytes),
                static_cast<unsigned long long>(v3.bytes), ratio);
    std::printf("  cold load      v2 %7.2f ms  v3 %7.2f ms  (median)\n",
                v2.cold.Median(), v3.cold.Median());
    std::printf("  selective      v2 %7.2f ms  v3 %7.2f ms  (median)\n",
                v2.selective.Median(), v3.selective.Median());
    std::printf(
        "  selective scan pruned %lld / decoded %lld partitions, "
        "%lld segments decoded\n",
        static_cast<long long>(v3.partitions_pruned),
        static_cast<long long>(v3.partitions_decoded),
        static_cast<long long>(v3.segments_decoded));
    std::printf("  v3 encodings   ");
    JsonObject histogram;
    for (const auto& [name, count] : encodings) {
      std::printf("%s=%d ", name.c_str(), count);
      histogram.Int(name, count);
    }
    std::printf("\n");

    JsonObject dataset;
    dataset.Str("name", c.name)
        .Obj("v2_raw", LegJson(v2))
        .Obj("v3_encoded", LegJson(v3))
        .Num("compression_ratio", ratio)
        .Obj("v3_segment_encodings", std::move(histogram));
    datasets.push_back(std::move(dataset));
    std::filesystem::remove_all(Dir(c.name, "v2"));
    std::filesystem::remove_all(Dir(c.name, "v3"));
  }

  JsonObject json;
  json.Str("benchmark", "ablation_compression")
      .Int("repetitions", kRepeats)
      .Arr("datasets", std::move(datasets));
  json.WriteFile(json_path);
  return 0;
}
