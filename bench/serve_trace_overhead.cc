// Measures the serving-latency overhead of per-query tracing: interleaved
// A/B batches of the same uncached zoom query against an in-process
// tgraphd, where the A requests carry kFlagTrace (the query is sampled,
// every span records, and the Chrome trace rides back on the response)
// and the B requests do not. Interleaving keeps both populations exposed
// to the same machine noise, so the pooled p95 ratio isolates what
// sampling-on tracing costs.
//
// Exits nonzero when traced p95 exceeds untraced p95 by more than
// --threshold percent (default 5) — the regression gate CI runs.
//
//   serve_trace_overhead [--iters N] [--batch N] [--threshold PCT]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/graph_io.h"

namespace {

using namespace tgraph;         // NOLINT
using namespace tgraph::bench;  // NOLINT

double Percentile(std::vector<int64_t> micros, double p) {
  if (micros.empty()) return 0.0;
  std::sort(micros.begin(), micros.end());
  size_t index = static_cast<size_t>(p * (micros.size() - 1));
  return static_cast<double>(micros[index]);
}

}  // namespace

int main(int argc, char** argv) {
  int iters = 30;      // batches per arm
  int batch = 4;       // requests per batch
  double threshold = 5.0;
  for (int i = 1; i < argc; ++i) {
    auto int_arg = [&](const char* name, int* out) {
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
        *out = std::atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (int_arg("--iters", &iters) || int_arg("--batch", &batch)) continue;
    if (std::strcmp(argv[i], "--threshold") == 0 && i + 1 < argc) {
      threshold = std::atof(argv[++i]);
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    return 2;
  }

  std::string dir =
      (std::filesystem::temp_directory_path() / "tgz_bench_trace_overhead")
          .string();
  TG_CHECK_OK(
      storage::WriteVeStore(SnbBase(), dir, storage::GraphWriteOptions()));

  server::ServerOptions options;
  options.port = 0;
  options.workers = 4;
  server::Server server(Ctx(), options);
  TG_CHECK_OK(server.Start());
  server::Client client;
  TG_CHECK_OK(client.Connect("127.0.0.1", server.port()));

  const std::string script =
      "LOAD '" + dir +
      "' AS g;\n"
      "SET cohorts = AZOOM g BY firstName AGGREGATE COUNT() AS people;\n"
      "INFO cohorts;";

  auto run = [&](bool traced) {
    int64_t start = obs::Tracer::NowMicros();
    // no_cache so every request re-executes the zoom — tracing overhead
    // lives on the execute path, not the cache-hit path.
    Result<server::Response> response =
        client.Query(script, /*no_cache=*/true, /*want_trace=*/traced);
    TG_CHECK(response.ok()) << response.status();
    TG_CHECK(response->has_trace() == traced);
    return obs::Tracer::NowMicros() - start;
  };

  // Warm up both arms: first-touch catalog load, allocator, page cache.
  for (int i = 0; i < 3; ++i) {
    run(true);
    run(false);
  }

  std::vector<int64_t> traced_us, untraced_us;
  for (int i = 0; i < iters; ++i) {
    for (int j = 0; j < batch; ++j) traced_us.push_back(run(true));
    for (int j = 0; j < batch; ++j) untraced_us.push_back(run(false));
  }
  server.Drain();

  double traced_p95 = Percentile(traced_us, 0.95);
  double untraced_p95 = Percentile(untraced_us, 0.95);
  double traced_p50 = Percentile(traced_us, 0.50);
  double untraced_p50 = Percentile(untraced_us, 0.50);
  double overhead_pct =
      untraced_p95 > 0 ? (traced_p95 / untraced_p95 - 1.0) * 100.0 : 0.0;

  std::printf("samples_per_arm %zu\n", traced_us.size());
  std::printf("untraced_p50_us %.0f\n", untraced_p50);
  std::printf("traced_p50_us %.0f\n", traced_p50);
  std::printf("untraced_p95_us %.0f\n", untraced_p95);
  std::printf("traced_p95_us %.0f\n", traced_p95);
  std::printf("trace_overhead_p95_pct %.2f\n", overhead_pct);

  if (overhead_pct > threshold) {
    std::fprintf(stderr,
                 "FAIL: traced p95 %.0fus exceeds untraced p95 %.0fus by "
                 "%.2f%% (threshold %.2f%%)\n",
                 traced_p95, untraced_p95, overhead_pct, threshold);
    return 1;
  }
  std::printf("OK: trace overhead %.2f%% <= %.2f%%\n", overhead_pct,
              threshold);
  return 0;
}
