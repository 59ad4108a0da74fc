// tgzd — the resident TGraphZoom query server.
//
//   tgzd [--port N] [--workers N] [--queue-depth N]
//        [--cache-bytes N] [--deadline-ms N] [--idle-timeout-ms N]
//        [--stats-file FILE] [--trace-out FILE] [--metrics]
//        [--metrics-port N] [--slow-query-log FILE] [--slow-query-ms N]
//        [--wal-dir DIR] [--ingest-delta-events N] [--ingest-compact-ms N]
//        [--views-file FILE] [--view-max-suffix-fraction F]
//
// Listens on loopback for framed TQL requests (src/server/protocol.h),
// executes them on a bounded worker pool over one shared
// dataflow::ExecutionContext, and serves repeated zoom queries from a
// canonicalized-plan result cache. SIGTERM/SIGINT trigger a graceful
// drain: stop accepting, finish in-flight requests, flush the trace and
// metrics, exit 0.
//
// Talk to it with `tgz query --connect host:port --script FILE`,
// `tgz stats --connect host:port`, or any client of the wire protocol.

#include <errno.h>
#include <signal.h>
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "dataflow/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/server.h"

namespace {

using namespace tgraph;  // NOLINT — binary-local brevity

// Self-pipe: the signal handler only writes one byte; main blocks on the
// read end so all drain work happens on a normal thread, not in a
// handler.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int /*signum*/) {
  char byte = 1;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "tgzd: %s\n", message.c_str());
  std::exit(2);
}

/// Parses all of `text` as a number in [min, max]; otherwise dies naming
/// `flag`. The one numeric parse behind every flag.
template <typename T>
T ParseNumber(const std::string& flag, const std::string& text, T min,
              T max = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !(value >= min && value <= max)) {
    std::ostringstream want;
    want << "a number >= " << min;
    if (max != std::numeric_limits<T>::max()) want << " and <= " << max;
    Die("--" + flag + " wants " + want.str() + ", got '" + text + "'");
  }
  return value;
}

int Help(std::FILE* out) {
  std::fprintf(
      out,
      "usage: tgzd [--port N] [--workers N] [--queue-depth N]\n"
      "            [--cache-bytes N] [--deadline-ms N]\n"
      "            [--idle-timeout-ms N] [--stats-file FILE]\n"
      "            [--trace-out FILE] [--metrics] [--metrics-port N]\n"
      "            [--slow-query-log FILE] [--slow-query-ms N]\n"
      "            [--wal-dir DIR] [--ingest-delta-events N]\n"
      "            [--ingest-compact-ms N] [--views-file FILE]\n"
      "            [--view-max-suffix-fraction F]\n"
      "  --port N            TCP port, loopback only (0 = ephemeral; "
      "default 7464)\n"
      "  --workers N         concurrent request executors (default 4)\n"
      "  --queue-depth N     waiting connections before refusing "
      "(default 16)\n"
      "  --cache-bytes N     result-cache budget, 0 disables (default "
      "64MiB)\n"
      "  --deadline-ms N     per-query deadline, 0 = none (default "
      "60000)\n"
      "  --idle-timeout-ms N close idle connections after N ms (default "
      "60000)\n"
      "  --stats-file FILE   per-operator cost profile: loaded on start,\n"
      "                      written back on drain (warm-starts the cost "
      "model)\n"
      "  --trace-out FILE    write a Chrome trace on shutdown\n"
      "  --metrics           print the metrics registry on shutdown\n"
      "  --metrics-port N    serve GET /metrics (Prometheus text) over\n"
      "                      plain HTTP on loopback port N (0 = ephemeral;\n"
      "                      default off)\n"
      "  --slow-query-log FILE  append queries slower than --slow-query-ms\n"
      "                      as JSONL records with per-stage breakdowns\n"
      "  --slow-query-ms N   slow-query threshold (default 100; 0 logs\n"
      "                      every query)\n"
      "  --wal-dir DIR       collect live graphs' write-ahead logs in DIR\n"
      "                      (default: each graph keeps <dir>/wal)\n"
      "  --ingest-delta-events N  compact a live graph once its in-memory\n"
      "                      delta holds N events (default 4096)\n"
      "  --ingest-compact-ms N  also compact non-empty deltas every N ms\n"
      "                      (default 0 = size-triggered only)\n"
      "  --views-file FILE   persist CREATE VIEW definitions here and\n"
      "                      re-register them on start (default: in-memory\n"
      "                      views only)\n"
      "  --view-max-suffix-fraction F  fall back to a full view recompute\n"
      "                      when the incremental suffix would span more\n"
      "                      than this fraction of the source lifetime\n"
      "                      (default 0.75)\n"
      "  --help              print this help and exit\n"
      "Graph dirs named in TQL LOAD statements hold a tgraph-store\n"
      "container (graph.tgs, docs/FORMAT.md); the catalog serves each off\n"
      "one shared mmap — and one shared decoded-segment cache — per\n"
      "version of the file, so a rewrite is served from the next LOAD on,\n"
      "and cached results are keyed by the versions they read.\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  bool metrics = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Help(stdout);
    if (arg == "--metrics") {
      metrics = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) Die("unexpected argument: " + arg);
    std::string key = arg.substr(2);
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      flags[key.substr(0, eq)] = key.substr(eq + 1);
    } else {
      if (i + 1 >= argc) Die("flag --" + key + " needs a value");
      flags[key] = argv[++i];
    }
  }
  // Each flag is taken out of `flags` as it is read; what is left at the
  // end is a flag tgzd does not know.
  auto take = [&](const char* key) -> std::optional<std::string> {
    auto it = flags.find(key);
    if (it == flags.end()) return std::nullopt;
    std::string value = std::move(it->second);
    flags.erase(it);
    return value;
  };
  auto int_flag = [&](const char* key, int64_t fallback, int64_t min = 0,
                      int64_t max = std::numeric_limits<int64_t>::max()) {
    std::optional<std::string> value = take(key);
    return value ? ParseNumber<int64_t>(key, *value, min, max) : fallback;
  };

  server::ServerOptions options;
  options.port = static_cast<int>(int_flag("port", options.port, 0, 65535));
  options.workers =
      static_cast<int>(int_flag("workers", options.workers, 1, 1024));
  options.queue_depth = static_cast<int>(int_flag(
      "queue-depth", options.queue_depth, 0, std::numeric_limits<int>::max()));
  options.cache_bytes = static_cast<size_t>(
      int_flag("cache-bytes", static_cast<int64_t>(options.cache_bytes)));
  options.deadline_ms = int_flag("deadline-ms", options.deadline_ms);
  options.idle_timeout_ms =
      int_flag("idle-timeout-ms", options.idle_timeout_ms);
  if (auto value = take("stats-file")) options.stats_path = *value;
  options.metrics_port = static_cast<int>(
      int_flag("metrics-port", options.metrics_port, 0, 65535));
  if (auto value = take("slow-query-log")) options.slow_query_log = *value;
  options.slow_query_ms = int_flag("slow-query-ms", options.slow_query_ms);
  if (auto value = take("wal-dir")) options.ingest_wal_dir = *value;
  options.ingest_delta_events = static_cast<size_t>(int_flag(
      "ingest-delta-events", static_cast<int64_t>(options.ingest_delta_events)));
  options.ingest_compact_ms =
      int_flag("ingest-compact-ms", options.ingest_compact_ms);
  if (auto value = take("views-file")) options.views_path = *value;
  if (auto value = take("view-max-suffix-fraction")) {
    options.view_max_suffix_fraction =
        ParseNumber<double>("view-max-suffix-fraction", *value, 0.0);
  }
  const std::string trace_out = take("trace-out").value_or("");
  if (!flags.empty()) {
    Die("unknown flag --" + flags.begin()->first + " (see tgzd --help)");
  }

  if (::pipe(g_signal_pipe) != 0) Die("pipe: " + std::string(strerror(errno)));
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // failed response writes surface as EPIPE

  if (!trace_out.empty()) tgraph::obs::Tracer::Global().Enable();

  tgraph::dataflow::ExecutionContext ctx;
  server::Server server(&ctx, options);
  tgraph::Status status = server.Start();
  if (!status.ok()) Die(status.ToString());
  // Machine-readable startup line: scripts (and the CLI smoke test) parse
  // the bound port from here, which is how --port 0 is usable.
  std::printf("tgraphd listening on port %d\n", server.port());
  if (server.metrics_port() >= 0) {
    std::printf("tgraphd metrics on port %d\n", server.metrics_port());
  }
  std::fflush(stdout);

  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  server.Drain();

  if (!trace_out.empty()) {
    if (tgraph::obs::Tracer::Global().WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "tgzd: wrote trace to %s (%zu spans)\n",
                   trace_out.c_str(),
                   tgraph::obs::Tracer::Global().EventCount());
    } else {
      std::fprintf(stderr, "tgzd: cannot write trace to %s\n",
                   trace_out.c_str());
    }
  }
  if (metrics) {
    std::string report = tgraph::obs::MetricsRegistry::Global().ToString();
    std::fprintf(stderr, "%s", report.c_str());
  }
  std::printf("tgraphd drained, exiting\n");
  return 0;
}
