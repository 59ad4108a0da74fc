// tgraphd serving benchmark: loopback QPS and request-latency percentiles
// for the repeated-zoom workload, with and without the result cache. The
// cached rows show what the canonicalized-plan cache is worth once a zoom
// result is resident: the server answers from memory instead of
// re-executing the dataflow. items_per_second is the QPS; p50/p95/p99
// request latencies are reported as microsecond counters.
//
// The serve/ingest and serve/mixed groups measure the streaming write
// path: pure kIngest batch throughput (events/s, WAL-durable on ack),
// and a mixed workload where every client interleaves reads of the live
// graph with ~25% writes — read latencies are reported while the delta
// grows and background compactions rewrite the base generation
// underneath the readers.
//
// The serve/view group measures materialized views over the same live
// graph: a kView read (incrementally maintained on every ingest epoch)
// against the identical zoom recomputed uncached per request, and a
// mixed read/write/view workload whose counters include the view
// staleness lag (epoch publish -> snapshot republish) drawn from the
// server's view.staleness_micros histogram.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "ingest/event.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/graph_io.h"

namespace {

using namespace tgraph;         // NOLINT
using namespace tgraph::bench;  // NOLINT

std::string DatasetDir() {
  static std::string dir = [] {
    std::string path =
        (std::filesystem::temp_directory_path() / "tgz_bench_serve").string();
    TG_CHECK_OK(storage::WriteVeStore(SnbBase(), path,
                                      storage::GraphWriteOptions()));
    return path;
  }();
  return dir;
}

server::Server* ServerInstance() {
  static auto* instance = [] {
    server::ServerOptions options;
    options.port = 0;
    options.workers = 4;
    options.queue_depth = 64;
    // Low enough that the mixed workload crosses it repeatedly — the
    // read percentiles then include requests racing a live compaction.
    options.ingest_delta_events = 512;
    auto* created = new server::Server(Ctx(), options);
    TG_CHECK_OK(created->Start());
    return created;
  }();
  return instance;
}

std::string LiveDir() {
  static std::string dir =
      (std::filesystem::temp_directory_path() / "tgz_bench_serve_live")
          .string();
  return dir;
}

std::string ZoomScript() {
  return "LOAD '" + DatasetDir() +
         "' AS g;\n"
         "SET cohorts = AZOOM g BY firstName AGGREGATE COUNT() AS people;\n"
         "INFO cohorts;";
}

int64_t NowMicros() { return obs::Tracer::NowMicros(); }

double Percentile(std::vector<int64_t>& sorted_micros, double p) {
  if (sorted_micros.empty()) return 0.0;
  size_t index = static_cast<size_t>(p * (sorted_micros.size() - 1));
  return static_cast<double>(sorted_micros[index]);
}

void ServeBench(benchmark::State& state, bool cached) {
  server::Server* server = ServerInstance();
  server::Client client;
  TG_CHECK_OK(client.Connect("127.0.0.1", server->port()));
  if (cached) {
    // Prime the cache so every timed request is a hit.
    TG_CHECK_OK(client.Query(ZoomScript()).status());
  }

  std::vector<int64_t> latencies_us;
  {
    PhaseMetrics phase(cached ? "serve_cached" : "serve_uncached", &state);
    for (auto _ : state) {
      int64_t start = NowMicros();
      Result<server::Response> response =
          client.Query(ZoomScript(), /*no_cache=*/!cached);
      TG_CHECK_OK(response.status());
      latencies_us.push_back(NowMicros() - start);
      if (cached && !response->cache_hit()) {
        state.SkipWithError("expected a cache hit");
        return;
      }
    }
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  auto report = [&](const char* name, double p) {
    state.counters[name] = benchmark::Counter(
        Percentile(latencies_us, p), benchmark::Counter::kAvgThreads);
  };
  report("p50_us", 0.50);
  report("p95_us", 0.95);
  report("p99_us", 0.99);
  state.SetItemsProcessed(state.iterations());
}

// --- streaming write path --------------------------------------------------

// Cross-batch timestamps must strictly advance, so batch construction and
// the Ingest round-trip happen under one writer lock (the single-writer
// model every log-structured store assumes); readers never take it.
std::mutex g_writer_mu;
std::atomic<int64_t> g_next_ts{1};
std::atomic<int64_t> g_next_vid{1};

std::vector<ingest::Event> NextBatch(size_t count) {
  std::vector<ingest::Event> events;
  events.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ingest::Event event;
    event.kind = ingest::EventKind::kAddVertex;
    event.id = g_next_vid.fetch_add(1);
    event.at = g_next_ts.fetch_add(1);
    event.props = Properties{{"type", "person"}};
    events.push_back(std::move(event));
  }
  return events;
}

std::string LiveScript() {
  return "LOAD '" + LiveDir() + "' AS g;\nINFO g;";
}

constexpr size_t kIngestBatch = 8;

void IngestBench(benchmark::State& state) {
  server::Server* server = ServerInstance();
  server::Client client;
  TG_CHECK_OK(client.Connect("127.0.0.1", server->port()));
  {
    PhaseMetrics phase("serve_ingest", &state);
    for (auto _ : state) {
      std::lock_guard<std::mutex> lock(g_writer_mu);
      TG_CHECK_OK(client.Ingest(LiveDir(), NextBatch(kIngestBatch)).status());
    }
  }
  // items_per_second = WAL-durable events per second.
  state.SetItemsProcessed(state.iterations() * kIngestBatch);
}

void MixedBench(benchmark::State& state) {
  server::Server* server = ServerInstance();
  server::Client client;
  TG_CHECK_OK(client.Connect("127.0.0.1", server->port()));

  std::vector<int64_t> read_us;
  int64_t batches_written = 0;
  {
    PhaseMetrics phase("serve_mixed", &state);
    size_t iteration = 0;
    for (auto _ : state) {
      // Deterministic 1-in-4 writes, phase-shifted per thread so the
      // writers spread out instead of convoying on the writer lock.
      bool write =
          (iteration++ + static_cast<size_t>(state.thread_index())) % 4 == 0;
      if (write) {
        std::lock_guard<std::mutex> lock(g_writer_mu);
        TG_CHECK_OK(
            client.Ingest(LiveDir(), NextBatch(kIngestBatch)).status());
        ++batches_written;
      } else {
        int64_t start = NowMicros();
        TG_CHECK_OK(client.Query(LiveScript()).status());
        read_us.push_back(NowMicros() - start);
      }
    }
  }

  std::sort(read_us.begin(), read_us.end());
  auto report = [&](const char* name, double p) {
    state.counters[name] = benchmark::Counter(Percentile(read_us, p),
                                              benchmark::Counter::kAvgThreads);
  };
  report("read_p50_us", 0.50);
  report("read_p95_us", 0.95);
  report("read_p99_us", 0.99);
  state.counters["events_written"] =
      benchmark::Counter(static_cast<double>(batches_written * kIngestBatch));
  state.SetItemsProcessed(state.iterations());
}

// --- materialized views ----------------------------------------------------

// The view and the recompute script run the SAME zoom over the SAME live
// graph, so their percentiles are directly comparable: the view pays its
// maintenance cost on the write path (epoch listener), the recompute pays
// on every read.
constexpr char kViewName[] = "bench_live";

std::string RecomputeScript() {
  return "LOAD '" + LiveDir() +
         "' AS g;\n"
         "SET z = AZOOM g BY type AGGREGATE COUNT() AS n;\n"
         "INFO z;";
}

void EnsureBenchView(server::Client* client) {
  static bool registered = [client] {
    // The source live graph must exist before the view can materialize.
    std::lock_guard<std::mutex> lock(g_writer_mu);
    TG_CHECK_OK(client->Ingest(LiveDir(), NextBatch(kIngestBatch)).status());
    TG_CHECK_OK(client
                    ->Query("CREATE VIEW " + std::string(kViewName) +
                            " ON '" + LiveDir() +
                            "' AS AZOOM BY type AGGREGATE COUNT() AS n;")
                    .status());
    return true;
  }();
  (void)registered;
}

void ViewReadBench(benchmark::State& state, bool from_view) {
  server::Server* server = ServerInstance();
  server::Client client;
  TG_CHECK_OK(client.Connect("127.0.0.1", server->port()));
  EnsureBenchView(&client);

  std::vector<int64_t> latencies_us;
  {
    PhaseMetrics phase(from_view ? "serve_view" : "serve_view_recompute",
                       &state);
    for (auto _ : state) {
      int64_t start = NowMicros();
      if (from_view) {
        TG_CHECK_OK(client.View(kViewName).status());
      } else {
        TG_CHECK_OK(
            client.Query(RecomputeScript(), /*no_cache=*/true).status());
      }
      latencies_us.push_back(NowMicros() - start);
    }
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  auto report = [&](const char* name, double p) {
    state.counters[name] = benchmark::Counter(
        Percentile(latencies_us, p), benchmark::Counter::kAvgThreads);
  };
  report("p50_us", 0.50);
  report("p95_us", 0.95);
  report("p99_us", 0.99);
  state.SetItemsProcessed(state.iterations());
}

void MixedViewBench(benchmark::State& state) {
  server::Server* server = ServerInstance();
  server::Client client;
  TG_CHECK_OK(client.Connect("127.0.0.1", server->port()));
  EnsureBenchView(&client);

  obs::MetricsSnapshot before;
  if (state.thread_index() == 0) {
    before = obs::MetricsRegistry::Global().Snapshot();
  }

  std::vector<int64_t> view_us;
  std::vector<int64_t> recompute_us;
  {
    PhaseMetrics phase("serve_mixed_view", &state);
    size_t iteration = 0;
    for (auto _ : state) {
      size_t slot =
          (iteration++ + static_cast<size_t>(state.thread_index())) % 4;
      if (slot == 0) {
        // 25% writes; each ack also covers the synchronous view refresh
        // the epoch listener runs before publishing.
        std::lock_guard<std::mutex> lock(g_writer_mu);
        TG_CHECK_OK(
            client.Ingest(LiveDir(), NextBatch(kIngestBatch)).status());
      } else if (slot == 3) {
        int64_t start = NowMicros();
        TG_CHECK_OK(
            client.Query(RecomputeScript(), /*no_cache=*/true).status());
        recompute_us.push_back(NowMicros() - start);
      } else {
        int64_t start = NowMicros();
        TG_CHECK_OK(client.View(kViewName).status());
        view_us.push_back(NowMicros() - start);
      }
    }
  }

  std::sort(view_us.begin(), view_us.end());
  std::sort(recompute_us.begin(), recompute_us.end());
  auto report = [&](const char* name, std::vector<int64_t>& sorted,
                    double p) {
    state.counters[name] = benchmark::Counter(
        Percentile(sorted, p), benchmark::Counter::kAvgThreads);
  };
  report("view_p50_us", view_us, 0.50);
  report("view_p95_us", view_us, 0.95);
  report("view_p99_us", view_us, 0.99);
  report("recompute_p50_us", recompute_us, 0.50);
  report("recompute_p95_us", recompute_us, 0.95);
  report("recompute_p99_us", recompute_us, 0.99);

  if (state.thread_index() == 0) {
    // Staleness lag (epoch publish -> snapshot republish) for refreshes
    // triggered during this run, from the server's own histogram.
    obs::HistogramSnapshot staleness =
        obs::MetricsRegistry::Global()
            .Snapshot()
            .DeltaSince(before)
            .histograms[obs::metric_names::kViewStalenessMicros];
    state.counters["staleness_p50_us"] = benchmark::Counter(
        static_cast<double>(staleness.ApproxPercentile(0.50)));
    state.counters["staleness_p99_us"] = benchmark::Counter(
        static_cast<double>(staleness.ApproxPercentile(0.99)));
    state.counters["staleness_max_us"] =
        benchmark::Counter(static_cast<double>(staleness.max));
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

int main(int argc, char** argv) {
  DatasetDir();      // generate + write outside any timed region
  ServerInstance();  // bind before benchmarks spawn client threads

  for (bool cached : {false, true}) {
    std::string name =
        std::string("serve/azoom/") + (cached ? "cached" : "uncached");
    benchmark::RegisterBenchmark(
        name.c_str(),
        [cached](benchmark::State& state) { ServeBench(state, cached); })
        ->UseRealTime();
    benchmark::RegisterBenchmark(
        (name + "/clients:4").c_str(),
        [cached](benchmark::State& state) { ServeBench(state, cached); })
        ->Threads(4)
        ->UseRealTime();
  }

  benchmark::RegisterBenchmark("serve/ingest/append", IngestBench)
      ->UseRealTime();
  benchmark::RegisterBenchmark("serve/mixed/write_frac:25", MixedBench)
      ->UseRealTime();
  benchmark::RegisterBenchmark("serve/mixed/write_frac:25/clients:4",
                               MixedBench)
      ->Threads(4)
      ->UseRealTime();

  benchmark::RegisterBenchmark(
      "serve/view/read",
      [](benchmark::State& state) { ViewReadBench(state, true); })
      ->UseRealTime();
  benchmark::RegisterBenchmark(
      "serve/view/recompute",
      [](benchmark::State& state) { ViewReadBench(state, false); })
      ->UseRealTime();
  benchmark::RegisterBenchmark("serve/view/mixed/write_frac:25",
                               MixedViewBench)
      ->UseRealTime();
  benchmark::RegisterBenchmark("serve/view/mixed/write_frac:25/clients:4",
                               MixedViewBench)
      ->Threads(4)
      ->UseRealTime();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ServerInstance()->Drain();
  std::error_code ec;
  std::filesystem::remove_all(DatasetDir(), ec);
  std::filesystem::remove_all(LiveDir(), ec);
  return 0;
}
