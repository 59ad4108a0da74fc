// zoombench: the end-to-end and per-layer benchmark of TGraphZoom.
//
//   zoombench --workload <zoom-resident|cold-slice|live-ingest>
//             --seed <n> --seconds <s> --trace <0|1> --data <dir>
//
// One process, closed loop, one client. Every workload builds its inputs
// from --seed, sets up (repeated three times; setup_s is the median),
// then runs its seeded operation sequence for --seconds and checks every
// result. --trace 0 prints the end-to-end metrics; --trace 1 first runs
// the same loop untraced for half the time, then replays the operations
// with every layer call wrapped in its own span, and prints the per-layer
// metrics. The last stdout line is one JSON object (see NOTES.md).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "common/hash.h"
#include "dataflow/context.h"
#include "gen/generators.h"
#include "gen/stats.h"
#include "ingest/event.h"
#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/graph_io.h"
#include "storage/store_reader.h"
#include "tgraph/pipeline.h"
#include "tgraph/stats.h"
#include "tgraph/tgraph.h"
#include "tql/canonical.h"
#include "tql/interpreter.h"
#include "tql/parser.h"
#include "tql/pipeline_build.h"
#include "views/registry.h"

namespace {

using namespace tgraph;  // NOLINT
namespace fs = std::filesystem;
namespace mn = obs::metric_names;

// --- small utilities -------------------------------------------------------

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between closest ranks (p in [0, 1]).
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Resets the kernel's peak-RSS watermark (VmHWM) of this process.
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// CPU time stolen by the hypervisor from this machine so far (all CPUs,
/// in clock ticks) — printed per run to explain outliers.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  in >> cpu;
  for (int64_t& f : fields) in >> f;
  return fields[7];
}

double DirMb(const std::string& dir) {
  uintmax_t bytes = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) bytes += it->file_size(ec);
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "zoombench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return *std::move(result);
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

/// Deterministic stream of operation choices for one (workload, seed).
class Choices {
 public:
  explicit Choices(uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ull + 7) {}
  uint64_t Next(uint64_t bound) { return rng_() % bound; }

 private:
  std::mt19937_64 rng_;
};

// --- metric recording ------------------------------------------------------

/// Latencies and outcome counts of the timed phase.
struct Recorder {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  int64_t ops = 0;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "zoombench: FAILED %s\n", what.c_str());
  }
};

/// Per-layer accumulators of the traced run: wall-clock sums per span
/// name, per-operation counts, and registry deltas.
struct Trace {
  std::map<std::string, std::vector<double>> spans;  // name -> ms samples
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  int64_t ops = 0;
  std::vector<double> op_ms;  // traced end-to-end read latency
  int64_t cost_plan_differs = 0;
  int64_t rules_fired = 0;
  /// Bytes of store generations written by compactions during the traced
  /// phase (compactor thread).
  std::atomic<int64_t> generation_bytes{0};
  /// Registry counter deltas caused by the traced operations themselves,
  /// not by the decomposition replays around them.
  std::map<std::string, int64_t> op_counters;

  /// Runs one traced operation, adding the counters it moved to
  /// op_counters.
  template <typename Fn>
  auto Measure(Fn&& fn) {
    const obs::MetricsSnapshot start = obs::MetricsRegistry::Global().Snapshot();
    auto result = fn();
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().DeltaSince(start);
    for (const auto& [name, value] : delta.counters) op_counters[name] += value;
    return result;
  }

  /// Times fn() into span `name` and returns its result.
  template <typename Fn>
  auto Span(const std::string& name, Fn&& fn) {
    const double start = NowMs();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans[name].push_back(NowMs() - start);
    } else {
      auto result = fn();
      spans[name].push_back(NowMs() - start);
      return result;
    }
  }
  void Add(const std::string& name, double ms) { spans[name].push_back(ms); }
  /// Mean duration of one span per operation (0 when never recorded).
  double PerOp(const std::string& name) const {
    auto it = spans.find(name);
    if (it == spans.end() || ops == 0) return 0.0;
    double sum = 0;
    for (double v : it->second) sum += v;
    return sum / static_cast<double>(ops);
  }
  double MeanOf(const std::string& name) const {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : Mean(it->second);
  }
  int64_t Counter(const std::string& name) const {
    auto a = after.counters.find(name);
    auto b = before.counters.find(name);
    return (a == after.counters.end() ? 0 : a->second) -
           (b == before.counters.end() ? 0 : b->second);
  }
  int64_t OpCounter(const std::string& name) const {
    auto it = op_counters.find(name);
    return it == op_counters.end() ? 0 : it->second;
  }
  double OpCounterPerOp(const std::string& name) const {
    return ops == 0 ? 0.0
                    : static_cast<double>(OpCounter(name)) /
                          static_cast<double>(ops);
  }
  obs::HistogramSnapshot Histogram(const std::string& name) const {
    obs::HistogramSnapshot out;
    auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return out;
    out = a->second;
    auto b = before.histograms.find(name);
    if (b != before.histograms.end()) {
      out.count -= b->second.count;
      out.sum -= b->second.sum;
    }
    return out;
  }
};

/// Store-write durations of every set-up (storage.write_ms).
std::vector<double> g_store_write_ms;

/// Writes `graph` as the v3 store at `dir`, timing the write.
void WriteStore(const VeGraph& graph, const std::string& dir,
                storage::SortOrder order) {
  storage::GraphWriteOptions options;
  options.sort_order = order;
  const double start = NowMs();
  Must(storage::WriteVeStore(graph, dir, options), "write store");
  g_store_write_ms.push_back(NowMs() - start);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --- workloads -------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data;
};

/// One workload: set-up, one closed-loop step, its traced replay, and a
/// final consistency check. A step may issue several operations.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(const std::string& dir) = 0;
  virtual void Step(Recorder* rec) = 0;
  virtual void TraceStep(Recorder* rec, Trace* trace) = 0;
  virtual void Finish(Recorder* rec) { (void)rec; }
  /// Called once before the first TraceStep and once after the last.
  virtual void BeginTrace(Trace* trace) { (void)trace; }
  virtual void EndTrace(Trace* trace) { (void)trace; }
  /// Layer shares of traced operation time, and whether the predicted
  /// dominant layer holds the largest share.
  virtual std::map<std::string, double> Shares(const Trace& trace) = 0;
  virtual std::string PredictedDominant() const = 0;
  virtual double DiskMb() { return DirMb(dir_); }
  virtual void Teardown() {}

 protected:
  std::string dir_;
};

dataflow::ExecutionContext* Ctx() {
  static auto* ctx = [] {
    dataflow::ContextOptions options;
    options.num_workers = 2;
    return new dataflow::ExecutionContext(options);
  }();
  return ctx;
}

/// An in-process tgzd on an ephemeral loopback port with one session
/// worker, plus one connected client.
struct Served {
  std::unique_ptr<server::Server> server;
  server::Client client;

  void Start(size_t ingest_delta_events,
             const std::function<void(server::Server*)>& before_start = {}) {
    server::ServerOptions options;
    options.port = 0;
    options.workers = 1;
    options.queue_depth = 4;
    options.ingest_delta_events = ingest_delta_events;
    server = std::make_unique<server::Server>(Ctx(), options);
    if (before_start) before_start(server.get());
    Must(server->Start(), "server start");
    Must(client.Connect("127.0.0.1", server->port()), "client connect");
  }
  void Stop() {
    client.Close();
    if (server != nullptr) server->Drain();
    server.reset();
  }
};

/// In-process execution of `script` against the server's catalog: the
/// work tgzd does for the request, minus the wire and session handling.
Result<std::string> ExecuteInProcess(server::Server* server,
                                     const std::string& script) {
  tql::Interpreter interpreter(Ctx());
  interpreter.set_loader([server](const tql::LoadStatement& load) {
    return server->catalog().GetOrLoad(load.path, load.range);
  });
  return interpreter.ExecuteScript(script);
}

/// One traced read through tgzd: the round trip (the traced operation)
/// and the same script run
/// in-process; server.overhead is the difference. With `alternate` the
/// two swap order every operation, so neither always runs on the other's
/// warm caches; without it the round trip goes first (on a live graph the
/// first reader of an epoch pays its catalog load).
Result<server::Response> TracedQuery(Served* served, const std::string& script,
                                     bool alternate, Recorder* rec,
                                     Trace* trace) {
  auto in_process = [&] {
    const bool ok = trace->Span("server.inproc", [&] {
      return ExecuteInProcess(served->server.get(), script).ok();
    });
    rec->Check(ok, "in-process execution");
  };
  const bool inproc_first = alternate && trace->ops % 2 == 1;
  if (inproc_first) in_process();
  const double start = NowMs();
  Result<server::Response> response = trace->Measure(
      [&] { return served->client.Query(script, /*no_cache=*/true); });
  const double rt_ms = NowMs() - start;
  if (!inproc_first) in_process();
  trace->op_ms.push_back(rt_ms);
  trace->Add("server.overhead", rt_ms - trace->spans["server.inproc"].back());
  if (response.ok()) trace->Add("server.response_bytes", response->body.size());
  return response;
}

/// Times StoreReader::Open of the store file at `path` (storage.open).
void TraceOpen(const std::string& path, Trace* trace) {
  trace->Span("storage.open", [&] {
    return Must(storage::StoreReader::Open(path), "store open") != nullptr;
  });
}

/// Times the rule and the cost-based planning of `chain` for input `g`
/// (opt.rules, opt.cost) and counts plans on which they disagree.
void TracePlanning(const Pipeline& chain, const opt::Stats& stats,
                   const TGraph& g, Trace* trace) {
  obs::Counter* fired = obs::MetricsRegistry::Global().GetCounter(
      mn::kOptimizerRulesFired);
  const int64_t fired_before = fired->value();
  Pipeline rules = trace->Span("opt.rules", [&] { return chain.Optimized(); });
  trace->rules_fired += fired->value() - fired_before;
  Pipeline cost = trace->Span("opt.cost", [&] {
    return chain.OptimizedWithCost(stats, Pipeline::Hints(),
                                   opt::PlanContext::FromGraph(g));
  });
  if (rules.Explain() != cost.Explain()) ++trace->cost_plan_differs;
}

/// Times parse + canonicalize of `script` into the tql spans.
void TraceTql(const std::string& script, Trace* trace) {
  std::vector<tql::Statement> statements = trace->Span("tql.parse", [&] {
    return Must(tql::Parse(script), "parse");
  });
  trace->Span("tql.canonical", [&] {
    size_t bytes = 0;
    for (const tql::Statement& s : statements) {
      bytes += tql::Canonicalize(s).size();
    }
    return bytes;
  });
}

// ---------------------------------------------------------------------------
// zoom-resident: uncached aZoom -> wZoom over one of 24 catalog-resident
// slices of an NGrams-like v3 store, served by tgzd.

class ZoomResident : public Workload {
 public:
  static constexpr int kSlices = 24;
  explicit ZoomResident(uint64_t seed) : seed_(seed), choices_(seed) {}

  void Setup(const std::string& dir) override {
    dir_ = dir;
    gen::NGramsConfig config;
    config.num_words = 4000;
    config.num_years = 96;
    config.appearances_per_year = 1000;
    config.seed = seed_;
    VeGraph graph = gen::GenerateNGrams(Ctx(), config);
    store_ = dir + "/ngrams";
    WriteStore(graph, store_, storage::SortOrder::kTemporalLocality);
    const Interval life = graph.lifetime();
    const int64_t width = (life.end - life.start) / kSlices;
    for (int s = 0; s < kSlices; ++s) {
      const int64_t from = life.start + s * width;
      scripts_[s] = "LOAD '" + store_ + "' FROM " + std::to_string(from) +
                    " TO " + std::to_string(from + width) +
                    " AS g;\n"
                    "SET z = AZOOM g BY freq AGGREGATE COUNT() AS words;\n"
                    "SET w = WZOOM z WINDOW 3 NODES ALL EDGES ALL;\n"
                    "INFO w;";
      // Reference: the plain local interpreter, reading the store itself.
      tql::Interpreter local(Ctx());
      expected_[s] = Must(local.ExecuteScript(scripts_[s]), "reference");
    }
    served_.Start(/*ingest_delta_events=*/0);
    // Warm-up: every slice lands in the catalog once.
    for (int s = 0; s < kSlices; ++s) {
      Must(served_.client.Query(scripts_[s], /*no_cache=*/true).status(),
           "warm-up");
    }
  }

  void Step(Recorder* rec) override {
    const int s = static_cast<int>(choices_.Next(kSlices));
    const double start = NowMs();
    Result<server::Response> response =
        served_.client.Query(scripts_[s], /*no_cache=*/true);
    rec->read_ms.push_back(NowMs() - start);
    ++rec->ops;
    rec->Check(response.ok() && response->body == expected_[s],
               "zoom-resident slice " + std::to_string(s));
  }

  void TraceStep(Recorder* rec, Trace* trace) override {
    const int s = static_cast<int>(choices_.Next(kSlices));
    const std::string& script = scripts_[s];
    server::Server* server = served_.server.get();
    trace->Span("server.ping", [&] { return served_.client.Ping().ok(); });

    Result<server::Response> response =
        TracedQuery(&served_, script, /*alternate=*/true, rec, trace);
    ++rec->ops;
    rec->Check(response.ok() && response->body == expected_[s],
               "zoom-resident traced slice " + std::to_string(s));

    // Decomposition, one public call per span.
    TraceTql(script, trace);
    std::vector<tql::Statement> statements = Must(tql::Parse(script), "parse");
    const auto& load = std::get<tql::LoadStatement>(statements[0]);
    const auto& azoom = std::get<tql::AZoomExpr>(
        std::get<tql::SetStatement>(statements[1]).expr);
    const auto& wzoom = std::get<tql::WZoomExpr>(
        std::get<tql::SetStatement>(statements[2]).expr);
    AZoomSpec aspec = tql::BuildAZoomSpec(azoom);
    WZoomSpec wspec = tql::BuildWZoomSpec(wzoom);

    TGraph g = trace->Span("storage.load", [&] {
      return Must(server->catalog().GetOrLoad(load.path, load.range),
                  "catalog load");
    });
    Pipeline chain;
    chain.AZoom(aspec).WZoom(wspec);
    TracePlanning(chain, server->stats(), g, trace);
    TraceOpen(storage::StorePath(store_), trace);

    TGraph z = trace->Span("tgraph.azoom", [&] {
      TGraph out = Must(g.AZoom(aspec), "azoom");
      out.Materialize();
      return out;
    });
    TGraph w = trace->Span("tgraph.wzoom", [&] {
      TGraph out = Must(z.WZoom(wspec), "wzoom");
      out.Materialize();
      return out;
    });
    trace->Span("tgraph.info", [&] {
      return gen::ComputeStats(Must(w.As(Representation::kVe), "as ve").ve())
          .num_vertices;
    });
  }

  std::map<std::string, double> Shares(const Trace& t) override {
    std::map<std::string, double> ms = {
        {"storage", t.PerOp("storage.load")},
        {"tgraph_dataflow", t.PerOp("tgraph.azoom") + t.PerOp("tgraph.wzoom") +
                                t.PerOp("tgraph.info")},
        {"tql", t.PerOp("tql.parse") + t.PerOp("tql.canonical")},
        {"server", std::max(0.0, t.PerOp("server.overhead"))},
    };
    return ms;
  }
  std::string PredictedDominant() const override { return "tgraph_dataflow"; }

  void Teardown() override { served_.Stop(); }

 private:
  uint64_t seed_;
  Choices choices_;
  std::string store_;
  std::string scripts_[kSlices];
  std::string expected_[kSlices];
  Served served_;
};

// ---------------------------------------------------------------------------
// cold-slice: `tgz query` local path — every operation a fresh interpreter
// that opens the v3 store, prunes by zone map, decodes the survivors and
// takes one snapshot.

class ColdSlice : public Workload {
 public:
  static constexpr int kDistinct = 40;
  explicit ColdSlice(uint64_t seed) : seed_(seed), choices_(seed) {}

  void Setup(const std::string& dir) override {
    dir_ = dir;
    gen::NGramsConfig config;
    config.num_words = 6000;
    config.num_years = 100;
    config.appearances_per_year = 4000;
    config.seed = seed_;
    VeGraph graph = gen::GenerateNGrams(Ctx(), config);
    store_ = dir + "/ngrams";
    // Structural order (by start time) keeps each time range in few
    // partitions, so zone maps prune the rest of a slice load.
    WriteStore(graph, store_, storage::SortOrder::kStructuralLocality);
    const Interval life = graph.lifetime();
    const int64_t width = 3;
    const int64_t span = life.end - life.start - width;
    for (int s = 0; s < kDistinct; ++s) {
      const int64_t from = life.start + (span * s) / kDistinct;
      const int64_t at = from + 1;
      scripts_[s] = "LOAD '" + store_ + "' FROM " + std::to_string(from) +
                    " TO " + std::to_string(from + width) + " AS g;\n" +
                    "SNAPSHOT g AT " + std::to_string(at) + " LIMIT 5;";
      ranges_[s] = Interval(from, from + width);
      at_[s] = at;
      // Reference 1: the snapshot counts straight from the generated
      // graph (no storage involved).
      sg::PropertyGraph state = graph.SnapshotAt(at);
      counts_[s] = "g at " + std::to_string(at) + ": " +
                   std::to_string(state.NumVertices()) + " vertices, " +
                   std::to_string(state.NumEdges()) + " edges\n";
      // Reference 2: the full rendering, from one load in set-up.
      tql::Interpreter local(Ctx());
      expected_[s] = Must(local.ExecuteScript(scripts_[s]), "reference");
      if (expected_[s].find(counts_[s]) == std::string::npos) {
        std::fprintf(stderr, "zoombench: cold-slice reference mismatch\n");
        std::exit(1);
      }
    }
  }

  bool RunOp(int s) {
    tql::Interpreter interpreter(Ctx());
    Result<std::string> out = interpreter.ExecuteScript(scripts_[s]);
    return out.ok() && *out == expected_[s];
  }

  void Step(Recorder* rec) override {
    const int s = static_cast<int>(choices_.Next(kDistinct));
    const double start = NowMs();
    const bool ok = RunOp(s);
    rec->read_ms.push_back(NowMs() - start);
    ++rec->ops;
    rec->Check(ok, "cold-slice slice " + std::to_string(s));
  }

  void TraceStep(Recorder* rec, Trace* trace) override {
    const int s = static_cast<int>(choices_.Next(kDistinct));
    const double start = NowMs();
    const bool ok = trace->Measure([&] { return RunOp(s); });
    trace->op_ms.push_back(NowMs() - start);
    ++rec->ops;
    rec->Check(ok, "cold-slice traced slice " + std::to_string(s));

    TraceTql(scripts_[s], trace);
    std::unique_ptr<storage::StoreReader> reader =
        trace->Span("storage.open", [&] {
          return Must(storage::StoreReader::Open(storage::StorePath(store_)),
                      "store open");
        });
    storage::LoadOptions options;
    options.time_range = ranges_[s];
    VeGraph graph = trace->Span("storage.load", [&] {
      return Must(storage::LoadVeGraphFromStore(Ctx(), *reader, options),
                  "store load");
    });
    const std::string line = trace->Span("tgraph.snapshot", [&] {
      sg::PropertyGraph state = graph.SnapshotAt(at_[s]);
      return "g at " + std::to_string(at_[s]) + ": " +
             std::to_string(state.NumVertices()) + " vertices, " +
             std::to_string(state.NumEdges()) + " edges\n";
    });
    rec->Check(line == counts_[s], "cold-slice decomposed snapshot");
  }

  std::map<std::string, double> Shares(const Trace& t) override {
    return {
        {"storage", t.PerOp("storage.open") + t.PerOp("storage.load")},
        {"tgraph_dataflow", t.PerOp("tgraph.snapshot")},
        {"tql", t.PerOp("tql.parse") + t.PerOp("tql.canonical")},
    };
  }
  std::string PredictedDominant() const override { return "storage"; }

 private:
  uint64_t seed_;
  Choices choices_;
  std::string store_;
  std::string scripts_[kDistinct];
  std::string expected_[kDistinct];
  std::string counts_[kDistinct];
  Interval ranges_[kDistinct];
  TimePoint at_[kDistinct] = {};
};

// ---------------------------------------------------------------------------
// live-ingest: fdatasync'd ingest batches, a materialized aZoom view
// refreshed on every epoch, and trailing-window live queries, over tgzd.

class LiveIngest : public Workload {
 public:
  static constexpr int kVertices = 3000;
  static constexpr int kGroups = 8;
  static constexpr int kEdgeAdds = 90;
  static constexpr int kEdgeSlots = 40;  // > kLifetime
  static constexpr int kVertexAdds = 10;
  static constexpr int kLifetime = 4;  // ticks an edge lives
  static constexpr int kBaseBatches = 500;
  static constexpr int kWindow = 12;
  // Window queries per step: kWindow ticks up to the last tick, then up to
  // each of the kReadsPerStep - 1 ticks before it. Each range is new to
  // the catalog, so every query slices the merged live graph and costs
  // about the same.
  static constexpr int kReadsPerStep = 4;
  // Size-triggered compaction about every 48 steps (200 events a step),
  // in the same steps in every run: a 30 s run takes about 125 steps.
  static constexpr size_t kCompactEvents = 9500;
  static constexpr char kView[] = "bench_groups";

  explicit LiveIngest(uint64_t seed, bool trace)
      : traced_(trace), rng_(seed * 0x9E3779B97F4A7C15ull + 17) {}

  void Setup(const std::string& dir) override {
    dir_ = dir;
    live_ = dir + "/live";
    // Base history: ingested and compacted by a standalone live graph
    // with no compactor thread, in large appends (the wire path is what
    // the timed phase exercises). Consecutive ticks share an append but
    // keep their own timestamps, so the graph equals per-tick appends.
    {
      ingest::LiveGraph::Options base;
      base.delta_events_threshold = 0;
      std::unique_ptr<ingest::LiveGraph> live =
          Must(ingest::LiveGraph::Open(Ctx(), live_, base), "open live");
      std::vector<ingest::Event> events;
      for (int b = 0; b < kBaseBatches; ++b) {
        std::vector<ingest::Event> batch = NextBatch();
        events.insert(events.end(), batch.begin(), batch.end());
        if (events.size() >= 10000 || b + 1 == kBaseBatches) {
          // Compacting each chunk keeps the delta small, which batch
          // validation scans.
          last_seq_ = Must(live->Append(events), "base append");
          const double compact_start = NowMs();
          Must(live->Compact(), "base compact");
          g_store_write_ms.push_back(NowMs() - compact_start);
          events.clear();
        }
      }
      Must(live->Close(), "close base");
    }
    served_.Start(kCompactEvents, [this](server::Server* server) {
      if (traced_) InstrumentListener(server);
    });
    Must(served_.client
             .Query("CREATE VIEW " + std::string(kView) + " ON '" + live_ +
                    "' AS AZOOM BY grp AGGREGATE COUNT() AS members;")
             .status(),
         "create view");
    // Warm-up: first refresh, first live load.
    Must(served_.client.View(kView).status(), "warm-up view");
    Must(served_.client.Query(WindowScript(), /*no_cache=*/true).status(),
         "warm-up query");
  }

  void Step(Recorder* rec) override {
    std::vector<ingest::Event> batch = NextBatch();
    double start = NowMs();
    Result<server::Response> ack = served_.client.Ingest(live_, batch);
    rec->write_ms.push_back(NowMs() - start);
    ++rec->ops;
    rec->Check(ack.ok() && AckSeq(ack->body) == last_seq_ + 1,
               "live-ingest ack seq");
    if (ack.ok()) last_seq_ = AckSeq(ack->body);

    Result<server::Response> view = served_.client.View(kView);
    ++rec->ops;
    rec->Check(view.ok() && ViewWatermark() == tick_, "live-ingest view");

    for (int r = 0; r < kReadsPerStep; ++r) {
      start = NowMs();
      Result<server::Response> query =
          served_.client.Query(WindowScript(r), /*no_cache=*/true);
      rec->read_ms.push_back(NowMs() - start);
      ++rec->ops;
      rec->Check(WindowOk(query, r), "live-ingest window query");
    }
  }

  void TraceStep(Recorder* rec, Trace* trace) override {
    server::Server* server = served_.server.get();
    trace->Span("server.ping", [&] { return served_.client.Ping().ok(); });

    // Write: LiveGraph::Append in-process; the instrumented epoch
    // listener splits out the snapshot merge and the view refresh.
    std::vector<ingest::Event> batch = NextBatch();
    ingest::LiveGraph* live = server->live_graphs().Find(live_);
    listener_ms_ = 0;
    const double start = NowMs();
    Result<uint64_t> seq = trace->Measure([&] { return live->Append(batch); });
    const double append_ms = NowMs() - start;
    trace->Add("ingest.append", append_ms - listener_ms_);
    ++rec->ops;
    rec->Check(seq.ok() && *seq == last_seq_ + 1, "live-ingest traced seq");
    if (seq.ok()) last_seq_ = *seq;

    Result<server::Response> view = trace->Span("views.read", [&] {
      return trace->Measure([&] { return served_.client.View(kView); });
    });
    ++rec->ops;
    rec->Check(view.ok() && ViewWatermark() == tick_,
               "live-ingest traced view");

    // The step's first window query, the one that covers the last tick.
    const std::string script = WindowScript();
    Result<server::Response> query =
        TracedQuery(&served_, script, /*alternate=*/false, rec, trace);
    ++rec->ops;
    rec->Check(WindowOk(query), "live-ingest traced query");
    TraceTql(script, trace);
    TGraph g = trace->Span("storage.load", [&] {
      return Must(server->catalog().GetOrLoad(live_, WindowRange()),
                  "live load");
    });
    const AZoomSpec spec = tql::BuildAZoomSpec(std::get<tql::AZoomExpr>(
        std::get<tql::SetStatement>(Must(tql::Parse(script), "parse")[1])
            .expr));
    Pipeline chain;
    chain.AZoom(spec);
    TracePlanning(chain, server->stats(), g, trace);
    {
      // The generation a restarted reader would open.
      std::ifstream current(live_ + "/" + ingest::kCurrentFileName);
      std::string gen;
      current >> gen;
      TraceOpen(live_ + "/" + gen, trace);
    }
    trace->Span("tgraph.azoom", [&] {
      TGraph out = Must(g.AZoom(spec), "azoom");
      return out.Materialize();
    });
    trace->Span("tgraph.snapshot", [&] {
      return Must(g.As(Representation::kVe), "as ve")
          .ve()
          .SnapshotAt(tick_)
          .NumVertices();
    });
  }

  void Finish(Recorder* rec) override {
    // The view must equal its zoom recomputed over the final live graph.
    Result<server::Response> view = served_.client.View(kView);
    ingest::LiveGraph* live = served_.server->live_graphs().Find(live_);
    std::shared_ptr<const ingest::LiveSnapshot> snap = live->snapshot();
    const VeGraph* graph = Must(snap->Graph(), "final merge");
    std::vector<tql::Statement> parsed = Must(
        tql::Parse("SET z = AZOOM g BY grp AGGREGATE COUNT() AS members;"),
        "parse view");
    Pipeline pipeline;
    pipeline.AZoom(tql::BuildAZoomSpec(std::get<tql::AZoomExpr>(
        std::get<tql::SetStatement>(parsed[0]).expr)));
    TGraph out = Must(pipeline.Run(TGraph::FromVe(*graph, true)), "recompute");
    VeGraph ve = Must(out.As(Representation::kVe), "as ve").Coalesce().ve();
    std::vector<std::string> lines;
    std::vector<VeVertex> vertices = ve.vertices().Collect();
    std::vector<VeEdge> edges = ve.edges().Collect();
    for (const VeVertex& v : vertices) lines.push_back("V " + v.ToString());
    for (const VeEdge& e : edges) lines.push_back("E " + e.ToString());
    std::sort(lines.begin(), lines.end());
    std::string joined;
    for (const std::string& line : lines) joined += line + "\n";
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(HashBytes(joined)));
    const std::string tail = std::to_string(vertices.size()) +
                             " vertex records, " +
                             std::to_string(edges.size()) +
                             " edge records\ncontent " + hex + "\n";
    rec->Check(view.ok() && view->body.size() >= tail.size() &&
                   view->body.compare(view->body.size() - tail.size(),
                                      tail.size(), tail) == 0,
               "live-ingest final view == recompute");
  }

  std::map<std::string, double> Shares(const Trace& t) override {
    // Write path only: the ack's in-process layers against the wire.
    return {
        {"ingest_views", t.PerOp("ingest.append") + t.PerOp("ingest.merge") +
                             t.PerOp("views.refresh")},
        {"server", t.PerOp("server.ping")},
    };
  }
  std::string PredictedDominant() const override { return "ingest_views"; }

  /// Measured after a final compaction, so the figure is the stored
  /// graph rather than a point in the WAL's fill-and-rotate cycle.
  double DiskMb() override {
    Must(served_.server->live_graphs().Find(live_)->Compact(),
         "final compact");
    return DirMb(dir_);
  }

  void Teardown() override { served_.Stop(); }

  void BeginTrace(Trace* trace) override { trace_ = trace; }

  /// Ends the traced phase with one explicit compaction, so compaction
  /// cost and write amplification are measured even when the traced
  /// steps cross no size threshold.
  void EndTrace(Trace* trace) override {
    trace_ = nullptr;  // the epoch listener runs on this thread
    Must(served_.server->live_graphs().Find(live_)->Compact(), "compact");
    AccountGeneration(live_, trace);
  }

 private:
  static uint64_t AckSeq(const std::string& body) {
    const size_t at = body.rfind("seq=");
    return at == std::string::npos ? 0 : std::strtoull(body.c_str() + at + 4,
                                                       nullptr, 10);
  }

  /// Watermark of the view's current snapshot (after a VIEW read it must
  /// be the last acknowledged tick).
  TimePoint ViewWatermark() {
    auto view = served_.server->views().Find(kView);
    if (view == nullptr || view->Current() == nullptr) return -1;
    return view->Current()->watermark;
  }

  /// The step's r-th window: kWindow ticks up to tick_ - r.
  Interval WindowRange(int r = 0) const {
    return Interval(tick_ - r - kWindow + 1, tick_ - r + 1);
  }
  std::string WindowScript(int r = 0) const {
    const Interval range = WindowRange(r);
    return "LOAD '" + live_ + "' FROM " + std::to_string(range.start) +
           " TO " + std::to_string(range.end) +
           " AS g;\n"
           "SET z = AZOOM g BY grp AGGREGATE COUNT() AS members;\n"
           "SNAPSHOT g AT " +
           std::to_string(range.end - 1) + " LIMIT 0;\nINFO z;";
  }

  /// The window query's output against the generator's own model: the
  /// snapshot line exactly, and the zoomed graph's entity counts (one
  /// vertex per group present, every edge id alive in the window).
  bool WindowOk(const Result<server::Response>& query, int r = 0) const {
    if (!query.ok()) return false;
    const Interval range = WindowRange(r);
    const std::string prefix = "loaded g from '" + live_ + "'\nset z\n" +
                               ExpectedSnapshot(range.end - 1);
    std::set<EdgeId> edges;
    for (auto it = added_at_.upper_bound(range.start - kLifetime);
         it != added_at_.upper_bound(range.end - 1); ++it) {
      edges.insert(it->second.begin(), it->second.end());
    }
    const std::string counts = " vertices=" + std::to_string(groups_.size()) +
                               " edges=" + std::to_string(edges.size()) + " ";
    return query->body.rfind(prefix, 0) == 0 &&
           query->body.find(counts, prefix.size()) != std::string::npos;
  }
  /// Alive at tick `at`: the first tick's vertices, and the vertices and
  /// edges added in the kLifetime ticks up to it.
  std::string ExpectedSnapshot(TimePoint at) const {
    const int64_t recent = std::min<int64_t>(at - 1, kLifetime);
    int64_t edges = 0;
    for (auto it = added_at_.upper_bound(at - kLifetime);
         it != added_at_.upper_bound(at); ++it) {
      edges += static_cast<int64_t>(it->second.size());
    }
    return "g at " + std::to_string(at) + ": " +
           std::to_string(kVertices + recent * kVertexAdds) + " vertices, " +
           std::to_string(edges) + " edges\n";
  }

  /// One tick: kVertexAdds new vertices, kEdgeAdds edge adds, and the
  /// removal of the vertices and edges kLifetime ticks old. The first
  /// tick's kVertices vertices are never removed and are the only edge
  /// endpoints. Edge ids cycle through kEdgeSlots ticks' worth of ids with
  /// fixed endpoints (a word pair that co-occurs again), so the entity
  /// count alive at any tick stays flat and only histories grow.
  std::vector<ingest::Event> NextBatch() {
    ++tick_;
    std::vector<ingest::Event> events;
    const int adds = tick_ == 1 ? kVertices : kVertexAdds;
    std::vector<VertexId>& born = vertices_at_[tick_];
    for (int i = 0; i < adds; ++i) {
      ingest::Event e;
      e.kind = ingest::EventKind::kAddVertex;
      e.id = next_vid_++;
      e.at = tick_;
      const int64_t group = static_cast<int64_t>(rng_() % kGroups);
      groups_.insert(group);
      e.props = Properties{{"type", "node"}, {"grp", group}};
      if (tick_ > 1) born.push_back(e.id);
      events.push_back(std::move(e));
    }
    if (auto it = vertices_at_.find(tick_ - kLifetime);
        it != vertices_at_.end()) {
      for (VertexId vid : it->second) {
        ingest::Event e;
        e.kind = ingest::EventKind::kRemoveVertex;
        e.id = vid;
        e.at = tick_;
        events.push_back(std::move(e));
      }
      vertices_at_.erase(it);
    }
    if (auto it = edges_at_.find(tick_ - kLifetime); it != edges_at_.end()) {
      for (EdgeId eid : it->second) {
        ingest::Event e;
        e.kind = ingest::EventKind::kRemoveEdge;
        e.id = eid;
        e.at = tick_;
        events.push_back(std::move(e));
      }
      edges_at_.erase(it);
    }
    std::vector<EdgeId>& added = edges_at_[tick_];
    added_at_.erase(added_at_.begin(),
                    added_at_.lower_bound(tick_ - kReadsPerStep - kWindow -
                                          kLifetime));
    const uint64_t vertices = kVertices;
    for (int i = 0; i < kEdgeAdds; ++i) {
      ingest::Event e;
      e.kind = ingest::EventKind::kAddEdge;
      e.id = (tick_ % kEdgeSlots) * kEdgeAdds + i + 1;
      e.at = tick_;
      auto [it, created] = endpoints_.try_emplace(e.id);
      if (created) {
        it->second.first = static_cast<VertexId>(1 + rng_() % vertices);
        it->second.second = static_cast<VertexId>(1 + rng_() % vertices);
        if (it->second.second == it->second.first) {
          it->second.second =
              it->second.first % static_cast<VertexId>(vertices) + 1;
        }
      }
      e.src = it->second.first;
      e.dst = it->second.second;
      e.props = Properties{{"type", "link"}};
      added.push_back(e.id);
      added_at_[tick_].push_back(e.id);
      events.push_back(std::move(e));
    }
    return events;
  }

  /// Replaces the server's epoch listener by one making the same three
  /// calls (catalog prune, view refresh, cache eviction) with the
  /// snapshot merge and the refresh timed separately.
  void InstrumentListener(server::Server* server) {
    ingest::LiveGraph::Options live;
    live.delta_events_threshold = kCompactEvents;
    live.epoch_listener = [this, server](const std::string& dir,
                                         uint64_t epoch) {
      ingest::LiveGraph* graph = server->live_graphs().Find(dir);
      const double start = NowMs();
      double merge = 0, refresh = 0;
      if (graph != nullptr) {
        (void)graph->snapshot()->Graph();
        merge = NowMs() - start;
      }
      server->catalog().PruneLiveEpochs(dir, epoch);
      const double refresh_start = NowMs();
      server->views().OnEpoch(dir, epoch);
      refresh = NowMs() - refresh_start;
      server->cache().EvictTag(dir);
      Trace* trace = trace_.load();
      if (std::this_thread::get_id() == main_thread_) {
        // A traced in-process Append.
        listener_ms_ = NowMs() - start;
        if (trace != nullptr) {
          trace->Add("ingest.merge", merge);
          trace->Add("views.refresh", refresh);
        }
      } else {
        // A publish from the compactor or a tgzd worker.
        AccountGeneration(dir, trace);
      }
    };
    server->live_graphs().set_options(std::move(live));
  }

  /// When CURRENT names a new generation, adds its bytes to the trace's
  /// write amplification (a null trace only records the generation).
  void AccountGeneration(const std::string& dir, Trace* trace) {
    std::ifstream current(dir + "/" + ingest::kCurrentFileName);
    std::string gen;
    current >> gen;
    std::error_code ec;
    const auto size = fs::file_size(dir + "/" + gen, ec);
    std::lock_guard<std::mutex> lock(gen_mu_);
    if (!ec && gen != last_gen_ && trace != nullptr) {
      trace->generation_bytes += static_cast<int64_t>(size);
    }
    last_gen_ = gen;
  }

  bool traced_;
  std::mt19937_64 rng_;
  std::string live_;
  Served served_;
  TimePoint tick_ = 0;
  VertexId next_vid_ = 1;
  std::map<EdgeId, std::pair<VertexId, VertexId>> endpoints_;
  uint64_t last_seq_ = 0;
  std::map<TimePoint, std::vector<EdgeId>> edges_at_;  // alive, by add tick
  std::map<TimePoint, std::vector<VertexId>> vertices_at_;  // short-lived
  std::map<TimePoint, std::vector<EdgeId>> added_at_;  // recent adds
  std::set<int64_t> groups_;
  const std::thread::id main_thread_ = std::this_thread::get_id();
  std::atomic<Trace*> trace_{nullptr};
  double listener_ms_ = 0;  // main thread only
  std::mutex gen_mu_;
  std::string last_gen_;  // guarded by gen_mu_
};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "zoom-resident") {
    return std::make_unique<ZoomResident>(options.seed);
  }
  if (options.workload == "cold-slice") {
    return std::make_unique<ColdSlice>(options.seed);
  }
  if (options.workload == "live-ingest") {
    return std::make_unique<LiveIngest>(options.seed, options.trace);
  }
  return nullptr;
}

// --- output ----------------------------------------------------------------

std::string Json(bool correct, const Recorder& rec,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rec.attempted) +
                    ", \"failed\": " + std::to_string(rec.failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void PrintHuman(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--data") {
      options.data = value;
    } else {
      std::fprintf(stderr, "zoombench: unknown flag %s\n", key.c_str());
      std::exit(2);
    }
  }
  if (options.workload.empty() || options.data.empty() ||
      options.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: zoombench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --data <dir>\n");
    std::exit(2);
  }
  return options;
}

constexpr int kSetupRepeats = 3;
/// Latency windows hold at least kWindowReads reads (so a window's p90 has
/// 10 samples above it) and at least 1 / kWindowShare of the run's steps.
constexpr size_t kWindowReads = 100;
constexpr size_t kWindowShare = 5;
constexpr int kRssBlocks = 5;

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  // A fixed mmap threshold (glibc otherwise raises it after large frees)
  // sends large blocks straight back to the kernel on free, so peak RSS
  // follows live bytes instead of allocator retention that varies from
  // run to run.
  mallopt(M_MMAP_THRESHOLD, 2 * 1024 * 1024);
  if (MakeWorkload(options) == nullptr) {
    std::fprintf(stderr, "zoombench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  Ctx();

  // Set-up, repeated; the last one stays up for the timed phase.
  std::vector<double> setup_ms;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::string dir = options.data + "/setup-" + std::to_string(rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const double start = NowMs();
    workload = MakeWorkload(options);
    workload->Setup(dir);
    setup_ms.push_back(NowMs() - start);
    if (rep + 1 < kSetupRepeats) {
      workload->Teardown();
      workload.reset();
      fs::remove_all(dir);
    }
  }

  Recorder rec;
  std::vector<Metric> metrics;
  bool correct = true;
  const double budget_ms = options.seconds * 1000.0;

  if (!options.trace) {
    // Every step issues the same number of reads; step_end[i] /
    // step_ops[i] are the time and the operation count after step i. Peak
    // RSS is sampled per fifth of the run, the watermark reset in between.
    std::vector<double> step_end;
    std::vector<int64_t> step_ops;
    std::vector<double> rss_blocks;
    // Give back what the discarded set-ups freed, so the timed phase
    // starts from the same heap footprint in every run.
    malloc_trim(0);
    ResetPeakRss();
    const int64_t steal_start = StealTicks();
    const double start = NowMs();
    double rss_block_end = start + budget_ms / kRssBlocks;
    while (NowMs() - start < budget_ms) {
      workload->Step(&rec);
      step_end.push_back(NowMs());
      step_ops.push_back(rec.ops);
      if (step_end.back() >= rss_block_end) {
        rss_blocks.push_back(PeakRssMb());
        ResetPeakRss();
        rss_block_end += budget_ms / kRssBlocks;
      }
    }
    if (rss_blocks.empty()) rss_blocks.push_back(PeakRssMb());
    workload->Finish(&rec);
    const size_t steps = step_end.size();
    if (steps == 0 || rec.read_ms.size() % steps != 0) {
      std::fprintf(stderr, "zoombench: expected as many reads in every step\n");
      return 1;
    }
    const size_t reads_per_step = rec.read_ms.size() / steps;

    // Latency and throughput come from the least-disturbed stretches of
    // the timed phase. Over every window of consecutive steps (sliding by
    // one step), query_p50_ms and query_p90_ms are the lowest window
    // percentiles and ops_per_s the highest window rate. Interference from
    // other tenants of a shared machine mostly slows reads down and comes
    // in bursts of seconds, so a run is off only if no window in it was
    // quiet. A window spans a fifth of the run or more, so that a
    // sub-second lull does not set the figures either.
    const size_t window = std::min(
        steps, std::max((kWindowReads + reads_per_step - 1) / reads_per_step,
                        steps / kWindowShare));
    double p50 = 0, p90 = 0, rate = 0;
    size_t p50_at = 0, p90_at = 0, rate_at = 0;
    for (size_t lo = 0; lo + window <= steps; ++lo) {
      const size_t hi = lo + window;
      const std::vector<double> reads(
          rec.read_ms.begin() + lo * reads_per_step,
          rec.read_ms.begin() + hi * reads_per_step);
      const double w50 = Percentile(reads, 0.5);
      const double w90 = Percentile(reads, 0.9);
      const double t0 = lo == 0 ? start : step_end[lo - 1];
      const int64_t ops0 = lo == 0 ? 0 : step_ops[lo - 1];
      const double wrate =
          (step_ops[hi - 1] - ops0) * 1000.0 / (step_end[hi - 1] - t0);
      if (lo == 0 || w50 < p50) p50 = w50, p50_at = lo;
      if (lo == 0 || w90 < p90) p90 = w90, p90_at = lo;
      if (lo == 0 || wrate > rate) rate = wrate, rate_at = lo;
    }

    metrics.push_back({"setup_s", Percentile(setup_ms, 0.5) / 1000.0, "s"});
    metrics.push_back({"ops_per_s", rate, "1/s"});
    metrics.push_back({"query_p50_ms", p50, "ms"});
    metrics.push_back({"query_p90_ms", p90, "ms"});
    metrics.push_back({"peak_rss_mb", Percentile(rss_blocks, 0.5), "MB"});
    metrics.push_back({"disk_mb", workload->DiskMb(), "MB"});
    std::printf("# setup_ms=[%.1f %.1f %.1f] steal_ticks=%lld\n", setup_ms[0],
                setup_ms[1], setup_ms[2],
                static_cast<long long>(StealTicks() - steal_start));
    std::printf("# whole run: p50 %.4f p90 %.4f ops/s %.4f\n",
                Percentile(rec.read_ms, 0.5), Percentile(rec.read_ms, 0.9),
                rec.ops * 1000.0 / (step_end.back() - start));
    std::printf("# best %zu-step windows start at step: p50 %zu, p90 %zu, "
                "ops/s %zu\n",
                window, p50_at, p90_at, rate_at);
    if (reads_per_step > 1) {
      std::printf("# read p50 by position in the step:");
      for (size_t r = 0; r < reads_per_step; ++r) {
        std::vector<double> at;
        for (size_t i = r; i < rec.read_ms.size(); i += reads_per_step) {
          at.push_back(rec.read_ms[i]);
        }
        std::printf(" %.4f", Percentile(at, 0.5));
      }
      std::printf("\n");
    }
    std::printf("# %s seed=%llu reads=%zu writes=%zu ops=%lld failed=%lld\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                rec.read_ms.size(), rec.write_ms.size(),
                static_cast<long long>(rec.ops),
                static_cast<long long>(rec.failed));
    if (!rec.write_ms.empty()) {
      std::printf("# write_p50_ms %.4f write_p90_ms %.4f\n",
                  Percentile(rec.write_ms, 0.5), Percentile(rec.write_ms, 0.9));
    }
    std::printf("# failed_frac %.6f\n",
                rec.attempted ? static_cast<double>(rec.failed) / rec.attempted
                              : 1.0);
    if (rec.read_ms.size() < 100) {
      std::printf("# warning: %zu reads (< 100): p90 has < 10 samples above it\n",
                  rec.read_ms.size());
    }
  } else {
    // Untraced half, then the traced replay of the same operation stream.
    const double start = NowMs();
    while (NowMs() - start < budget_ms / 2) workload->Step(&rec);
    const std::vector<double> untraced = rec.read_ms;

    Trace trace;
    workload->BeginTrace(&trace);
    trace.before = obs::MetricsRegistry::Global().Snapshot();
    const double traced_start = NowMs();
    while (NowMs() - traced_start < budget_ms / 2) {
      workload->TraceStep(&rec, &trace);
      ++trace.ops;
    }
    workload->EndTrace(&trace);
    trace.after = obs::MetricsRegistry::Global().Snapshot();
    workload->Finish(&rec);

    auto per_op = [&](const char* name) { return trace.OpCounterPerOp(name); };
    const double mb = 1024.0 * 1024.0;
    const double pruned = per_op(mn::kStorePartitionsPruned);
    const double decoded = per_op(mn::kStorePartitionsDecoded);
    const obs::HistogramSnapshot compact =
        trace.Histogram(mn::kIngestCompactionMicros);
    const int64_t wal_bytes = trace.OpCounter(mn::kIngestWalBytes);
    const int64_t wal_appends = trace.OpCounter(mn::kIngestWalAppends);
    const int64_t refreshes = trace.OpCounter(mn::kViewRefreshes);
    const int64_t gen_bytes = trace.generation_bytes.load();
    const int64_t catalog_hits = trace.OpCounter(mn::kCatalogHits);
    const int64_t catalog_loads = trace.OpCounter(mn::kCatalogLoads);

    metrics = {
        {"storage.open_ms", trace.PerOp("storage.open"), "ms"},
        {"storage.load_ms", trace.PerOp("storage.load"), "ms"},
        {"storage.write_ms", Percentile(g_store_write_ms, 0.5), "ms"},
        {"storage.partitions_pruned", pruned, "count"},
        {"storage.partitions_decoded", decoded, "count"},
        {"storage.prune_ratio",
         pruned + decoded > 0 ? pruned / (pruned + decoded) : 0.0, "ratio"},
        {"storage.segments_decoded", per_op(mn::kStoreSegmentsDecoded),
         "count"},
        {"storage.decoded_mb", per_op(mn::kStoreDecodedBytes) / mb, "MB"},
        {"storage.verified_mb", per_op(mn::kStoreVerifiedBytes) / mb, "MB"},
        {"storage.decode_cache_hits", per_op(mn::kStoreDecodeCacheHits),
         "count"},
        {"dataflow.stages", per_op(mn::kStages), "count"},
        {"dataflow.tasks", per_op(mn::kTasks), "count"},
        {"dataflow.shuffle_records", per_op(mn::kShuffleRecords), "count"},
        {"dataflow.shuffle_mb", per_op(mn::kShuffleBytes) / mb, "MB"},
        {"dataflow.shuffle_rebalanced", per_op(mn::kShuffleRebalanced),
         "count"},
        {"tgraph.azoom_ms", trace.PerOp("tgraph.azoom"), "ms"},
        {"tgraph.wzoom_ms", trace.PerOp("tgraph.wzoom"), "ms"},
        {"tgraph.snapshot_ms", trace.PerOp("tgraph.snapshot"), "ms"},
        {"tgraph.coalesce_merged", per_op(mn::kCoalesceMergedItems), "count"},
        {"opt.rules_ms", trace.PerOp("opt.rules"), "ms"},
        {"opt.cost_ms", trace.PerOp("opt.cost"), "ms"},
        {"opt.rules_fired",
         trace.ops > 0 ? static_cast<double>(trace.rules_fired) /
                             static_cast<double>(trace.ops)
                       : 0.0,
         "count"},
        {"opt.cost_plan_differs",
         trace.ops > 0 ? static_cast<double>(trace.cost_plan_differs) /
                             static_cast<double>(trace.ops)
                       : 0.0,
         "count"},
        {"tql.parse_ms", trace.PerOp("tql.parse"), "ms"},
        {"tql.canonical_ms", trace.PerOp("tql.canonical"), "ms"},
        {"server.ping_ms", trace.MeanOf("server.ping"), "ms"},
        {"server.overhead_ms", trace.MeanOf("server.overhead"), "ms"},
        {"server.catalog_hit_ratio",
         catalog_hits + catalog_loads > 0
             ? static_cast<double>(catalog_hits) /
                   static_cast<double>(catalog_hits + catalog_loads)
             : 0.0,
         "ratio"},
        {"server.response_kb", trace.MeanOf("server.response_bytes") / 1024.0,
         "KB"},
        {"ingest.append_ms", trace.MeanOf("ingest.append"), "ms"},
        {"ingest.snapshot_merge_ms", trace.MeanOf("ingest.merge"), "ms"},
        {"ingest.wal_kb_per_batch",
         wal_appends > 0 ? wal_bytes / 1024.0 / wal_appends : 0.0, "KB"},
        {"ingest.compactions", static_cast<double>(
                                   trace.Counter(mn::kIngestCompactions)),
         "count"},
        {"ingest.compact_ms",
         compact.count > 0 ? compact.Mean() / 1000.0 : 0.0, "ms"},
        {"ingest.write_amp",
         wal_bytes > 0
             ? static_cast<double>(wal_bytes + gen_bytes) / wal_bytes
             : 0.0,
         "ratio"},
        {"views.refresh_ms", trace.MeanOf("views.refresh"), "ms"},
        {"views.delta_ratio",
         refreshes > 0 ? static_cast<double>(trace.OpCounter(mn::kViewAppliedDeltas)) /
                             refreshes
                       : 0.0,
         "ratio"},
        {"views.full_rebuilds",
         static_cast<double>(trace.OpCounter(mn::kViewFullRebuilds)), "count"},
        {"views.read_ms", trace.MeanOf("views.read"), "ms"},
    };

    // Tracing overhead: the traced replay's read latency against the
    // untraced half of the same run.
    const double traced_p50 = Percentile(trace.op_ms, 0.5);
    const double untraced_p50 = Percentile(untraced, 0.5);
    metrics.push_back({"trace.query_p50_ms", traced_p50, "ms"});
    metrics.push_back({"trace.overhead_ms", traced_p50 - untraced_p50, "ms"});

    // Layer shares of traced operation time; the predicted dominant layer
    // must hold the largest one.
    std::map<std::string, double> shares = workload->Shares(trace);
    double total = 0;
    for (const auto& [layer, ms] : shares) total += ms;
    std::string top;
    for (const auto& [layer, ms] : shares) {
      if (top.empty() || ms > shares[top]) top = layer;
      std::printf("# share %-16s %7.4f ms/op %6.1f%%\n", layer.c_str(), ms,
                  total > 0 ? 100.0 * ms / total : 0.0);
    }
    const std::string predicted = workload->PredictedDominant();
    metrics.push_back({"trace.dominant_share",
                       total > 0 ? shares[predicted] / total : 0.0, "ratio"});
    if (top != predicted) {
      std::printf("# dominant layer is %s, predicted %s\n", top.c_str(),
                  predicted.c_str());
      correct = false;
    }
  }

  workload->Teardown();
  workload.reset();
  fs::remove_all(options.data);
  correct = correct && rec.failed == 0 && rec.attempted > 0;
  PrintHuman(metrics);
  std::printf("%s\n", Json(correct, rec, metrics).c_str());
  std::fflush(stdout);
  return 0;
}
