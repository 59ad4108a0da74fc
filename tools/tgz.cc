// tgz — command-line front end for TGraphZoom.
//
//   tgz generate --dataset wikitalk|snb|ngrams --out DIR [--seed N]
//                [--scale F] [--sort temporal|structural]
//   tgz info --in DIR
//   tgz slice --in DIR --out DIR --from T --to T
//   tgz azoom --in DIR --out DIR --group-by PROP [--type NAME]
//             [--count PROP] [--rep ve|og|rg]
//   tgz wzoom --in DIR --out DIR --window N [--vq all|most|exists]
//             [--eq all|most|exists] [--rep ve|og|ogc|rg]
//   tgz snapshot --in DIR --at T
//   tgz query --script FILE [--trace FILE]  (run a TQL script)
//   tgz query --script FILE --connect host:port [--no-cache v] [--trace FILE]
//                                (run it on a tgraphd server)
//   tgz ingest --graph DIR [--events FILE|-] [--connect host:port]
//              [--horizon T] [--compact v]  (stream events into a live graph)
//   tgz stats --connect host:port [--json v]
//
//   tgz view --connect host:port [--name NAME] (fetch the named
//   materialized view, refreshed through the source's current epoch;
//   without --name, lists the server's view catalog)
//                                (fetch server metrics / cache stats)
//   tgz metrics --connect host:port (Prometheus text exposition)
//   tgz save-store --in DIR --out DIR [--rep ve|og|ogc]
//                                (rewrite as another representation)
//   tgz repl                     (interactive TQL, statements end with ;)
//
// A graph directory holds one tgraph-store v3 container (graph.tgs,
// docs/FORMAT.md); every command reads and writes it, so every command
// composes with every other.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "gen/stats.h"
#include "ingest/event.h"
#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "storage/graph_io.h"
#include "tgraph/convert.h"
#include "tgraph/tgraph.h"
#include "tql/interpreter.h"

namespace {

using namespace tgraph;  // NOLINT — binary-local brevity

// --- tiny flag parser ------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        Die("unexpected argument: " + arg);
      }
      std::string key = arg.substr(2);
      size_t eq = key.find('=');
      if (eq != std::string::npos) {  // --flag=value form
        values_[key.substr(0, eq)] = key.substr(eq + 1);
        continue;
      }
      if (i + 1 >= argc) Die("flag --" + key + " needs a value");
      values_[key] = argv[++i];
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  std::string Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing required flag --" + key);
    return it->second;
  }

  std::string GetOr(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key,
                 int64_t min = std::numeric_limits<int64_t>::lowest()) const {
    return ParseNumber<int64_t>("--" + key, Get(key), min);
  }
  int64_t GetIntOr(const std::string& key, int64_t fallback,
                   int64_t min = std::numeric_limits<int64_t>::lowest()) const {
    return Has(key) ? GetInt(key, min) : fallback;
  }
  double GetDoubleOr(const std::string& key, double fallback,
                     double min) const {
    return Has(key) ? ParseNumber<double>("--" + key, Get(key), min)
                    : fallback;
  }

  [[noreturn]] static void Die(const std::string& message) {
    std::fprintf(stderr, "tgz: %s\n", message.c_str());
    std::exit(2);
  }

  /// Parses all of `text` as a number in [min, max]; otherwise dies naming
  /// `what`. The one numeric parse behind every flag and flag part.
  template <typename T>
  static T ParseNumber(const std::string& what, const std::string& text,
                       T min, T max = std::numeric_limits<T>::max()) {
    T value{};
    const char* end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end ||
        !(value >= min && value <= max)) {
      std::ostringstream want;
      want << "a number";
      if (min != std::numeric_limits<T>::lowest()) want << " >= " << min;
      if (max != std::numeric_limits<T>::max()) want << " and <= " << max;
      Die(what + " wants " + want.str() + ", got '" + text + "'");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

void DieOnError(const Status& status) {
  if (!status.ok()) Flags::Die(status.ToString());
}

dataflow::ExecutionContext* Ctx() {
  static auto* ctx = new dataflow::ExecutionContext();
  return ctx;
}

VeGraph LoadInput(const Flags& flags) {
  storage::LoadOptions options;
  Result<VeGraph> graph = storage::LoadVeGraph(Ctx(), flags.Get("in"), options);
  DieOnError(graph.status());
  return *graph;
}

void StoreOutput(const VeGraph& graph, const Flags& flags) {
  storage::GraphWriteOptions options;
  if (flags.GetOr("sort", "temporal") == "structural") {
    options.sort_order = storage::SortOrder::kStructuralLocality;
  }
  DieOnError(storage::WriteVeStore(graph, flags.Get("out"), options));
  gen::DatasetStats stats = gen::ComputeStats(graph);
  std::printf("wrote %s: %s\n", flags.Get("out").c_str(),
              stats.ToString().c_str());
}

Quantifier ParseQuantifier(const Flags& flags, const std::string& key) {
  const std::string name = flags.GetOr(key, "all");
  if (name == "all") return Quantifier::All();
  if (name == "most") return Quantifier::Most();
  if (name == "exists") return Quantifier::Exists();
  if (name.rfind("atleast:", 0) == 0) {
    return Quantifier::AtLeast(
        Flags::ParseNumber("--" + key + " atleast:", name.substr(8), 0.0, 1.0));
  }
  Flags::Die("unknown quantifier '" + name +
             "' (use all|most|exists|atleast:<fraction>)");
}

Representation ParseRepresentation(const std::string& name) {
  if (name == "ve") return Representation::kVe;
  if (name == "og") return Representation::kOg;
  if (name == "ogc") return Representation::kOgc;
  if (name == "rg") return Representation::kRg;
  Flags::Die("unknown representation '" + name + "' (use ve|og|ogc|rg)");
}

// --- subcommands -----------------------------------------------------------

int Generate(const Flags& flags) {
  std::string dataset = flags.Get("dataset");
  uint64_t seed = static_cast<uint64_t>(flags.GetIntOr("seed", 42, 0));
  double scale = flags.GetDoubleOr("scale", 1.0, 0.0);
  VeGraph graph;
  if (dataset == "wikitalk") {
    gen::WikiTalkConfig config;
    config.num_users = static_cast<int64_t>(config.num_users * scale);
    config.seed = seed;
    graph = gen::GenerateWikiTalk(Ctx(), config);
  } else if (dataset == "snb") {
    gen::SnbConfig config;
    config.num_persons = static_cast<int64_t>(config.num_persons * scale);
    config.seed = seed;
    graph = gen::GenerateSnb(Ctx(), config);
  } else if (dataset == "ngrams") {
    gen::NGramsConfig config;
    config.num_words = static_cast<int64_t>(config.num_words * scale);
    config.appearances_per_year *= scale;
    config.seed = seed;
    graph = gen::GenerateNGrams(Ctx(), config);
  } else {
    Flags::Die("unknown dataset '" + dataset + "' (use wikitalk|snb|ngrams)");
  }
  StoreOutput(graph, flags);
  return 0;
}

int Info(const Flags& flags) {
  VeGraph graph = LoadInput(flags);
  gen::DatasetStats stats = gen::ComputeStats(graph);
  std::printf("lifetime       %s\n", graph.lifetime().ToString().c_str());
  std::printf("vertices       %lld\n",
              static_cast<long long>(stats.num_vertices));
  std::printf("edges          %lld\n", static_cast<long long>(stats.num_edges));
  std::printf("vertex states  %lld\n",
              static_cast<long long>(stats.num_vertex_records));
  std::printf("edge states    %lld\n",
              static_cast<long long>(stats.num_edge_records));
  std::printf("snapshots      %lld\n",
              static_cast<long long>(stats.num_snapshots));
  std::printf("evolution rate %.1f\n", stats.evolution_rate);
  return 0;
}

int Slice(const Flags& flags) {
  VeGraph graph = LoadInput(flags);
  TGraph sliced = TGraph::FromVe(graph, true).Slice(
      Interval(flags.GetInt("from"), flags.GetInt("to")));
  StoreOutput(sliced.ve(), flags);
  return 0;
}

int AZoomCommand(const Flags& flags) {
  VeGraph graph = LoadInput(flags);
  std::string group_by = flags.Get("group-by");
  AZoomSpec spec;
  spec.group_of = GroupByProperty(group_by);
  std::vector<AggregateSpec> aggregates;
  if (flags.GetOr("count", "") != "") {
    aggregates.push_back({flags.Get("count"), AggKind::kCount, ""});
  }
  spec.aggregator = MakeAggregator(flags.GetOr("type", "group"), group_by,
                                   std::move(aggregates));
  Representation rep = ParseRepresentation(flags.GetOr("rep", "og"));
  Result<TGraph> as_rep = TGraph::FromVe(graph, true).As(rep);
  DieOnError(as_rep.status());
  Result<TGraph> zoomed = as_rep->AZoom(spec);
  DieOnError(zoomed.status());
  Result<TGraph> back = zoomed->Coalesce().As(Representation::kVe);
  DieOnError(back.status());
  StoreOutput(back->ve(), flags);
  return 0;
}

int WZoomCommand(const Flags& flags) {
  VeGraph graph = LoadInput(flags);
  WZoomSpec spec{WindowSpec::TimePoints(flags.GetInt("window", 1)),
                 ParseQuantifier(flags, "vq"),
                 ParseQuantifier(flags, "eq"),
                 {},
                 {}};
  Representation rep = ParseRepresentation(flags.GetOr("rep", "og"));
  Result<TGraph> as_rep = TGraph::FromVe(graph, true).As(rep);
  DieOnError(as_rep.status());
  Result<TGraph> zoomed = as_rep->WZoom(spec);
  DieOnError(zoomed.status());
  Result<TGraph> back = zoomed->As(Representation::kVe);
  DieOnError(back.status());
  StoreOutput(back->Coalesce().ve(), flags);
  return 0;
}

int Snapshot(const Flags& flags) {
  VeGraph graph = LoadInput(flags);
  TimePoint at = flags.GetInt("at");
  sg::PropertyGraph snapshot = graph.SnapshotAt(at);
  std::printf("snapshot at %lld: %lld vertices, %lld edges\n",
              static_cast<long long>(at),
              static_cast<long long>(snapshot.NumVertices()),
              static_cast<long long>(snapshot.NumEdges()));
  int64_t limit = flags.GetIntOr("limit", 10, 0);
  for (const sg::Vertex& v : snapshot.vertices().Take(limit)) {
    std::printf("  v%lld %s\n", static_cast<long long>(v.vid),
                v.properties.ToString().c_str());
  }
  for (const sg::Edge& e : snapshot.edges().Take(limit)) {
    std::printf("  e%lld %lld->%lld %s\n", static_cast<long long>(e.eid),
                static_cast<long long>(e.src), static_cast<long long>(e.dst),
                e.properties.ToString().c_str());
  }
  return 0;
}

/// Splits "host:port" (the value of --connect); dies on a bad spec.
std::pair<std::string, int> ParseHostPort(const std::string& spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 >= spec.size()) {
    Flags::Die("--connect wants host:port, got '" + spec + "'");
  }
  return {spec.substr(0, colon),
          static_cast<int>(Flags::ParseNumber<int64_t>(
              "--connect port", spec.substr(colon + 1), 1, 65535))};
}

server::Client ConnectedClient(const Flags& flags) {
  auto [host, port] = ParseHostPort(flags.Get("connect"));
  server::Client client;
  DieOnError(client.Connect(host, port));
  return client;
}

void WriteTraceFile(const std::string& path, const std::string& json) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) Flags::Die("cannot write trace to " + path);
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::fprintf(stderr, "tgz: wrote query trace to %s\n", path.c_str());
}

/// Local-mode loader that understands live (streaming-ingest) directories:
/// a dir with a WAL or CURRENT pointer is opened briefly, its merged
/// snapshot copied out, and its WAL closed again — so `tgz query` and the
/// repl can read what `tgz ingest` wrote without a server. Static dirs
/// fall through to the storage loaders.
Result<TGraph> LoadLocal(const tql::LoadStatement& load) {
  if (ingest::IsLiveDir(load.path)) {
    ingest::LiveGraph::Options options;
    options.delta_events_threshold = 0;  // read-only visit: no compactor
    TG_ASSIGN_OR_RETURN(std::unique_ptr<ingest::LiveGraph> live,
                        ingest::LiveGraph::Open(Ctx(), load.path, options));
    std::shared_ptr<const ingest::LiveSnapshot> snap = live->snapshot();
    TG_RETURN_IF_ERROR(live->Close());
    TG_ASSIGN_OR_RETURN(const VeGraph* merged, snap->Graph());
    TGraph graph = TGraph::FromVe(*merged, /*coalesced=*/true);
    if (load.range.has_value()) graph = graph.Slice(*load.range);
    return graph;
  }
  storage::LoadOptions options;
  options.time_range = load.range;
  TG_ASSIGN_OR_RETURN(VeGraph graph,
                      storage::LoadVeGraph(Ctx(), load.path, options));
  return TGraph::FromVe(std::move(graph), /*coalesced=*/true);
}

int Query(const Flags& flags) {
  std::string path = flags.Get("script");
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) Flags::Die("cannot open script " + path);
  std::string script;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    script.append(buffer, n);
  }
  std::fclose(file);
  const std::string trace_path = flags.GetOr("trace", "");
  if (flags.Has("connect")) {
    // Client mode: ship the script to a tgraphd and print its answer.
    // --trace asks the server to trace this query and return its spans.
    server::Client client = ConnectedClient(flags);
    Result<server::Response> response =
        client.Query(script, /*no_cache=*/flags.Has("no-cache"),
                     /*want_trace=*/!trace_path.empty());
    DieOnError(response.status());
    std::fputs(response->body.c_str(), stdout);
    if (response->cache_hit()) {
      std::fprintf(stderr, "tgz: served from cache (request %llu)\n",
                   static_cast<unsigned long long>(response->request_id));
    }
    if (!trace_path.empty()) {
      if (!response->has_trace()) {
        Flags::Die("server returned no trace (older tgraphd?)");
      }
      WriteTraceFile(trace_path, response->trace);
    }
    return 0;
  }
  // Local mode --trace: run the script under its own sampled query
  // context, so exactly this query's spans are exported — the same
  // per-query collection path tgraphd uses, not the global tracer.
  std::unique_ptr<obs::QueryTrace> query_trace;
  std::optional<obs::ScopedQueryContext> query_scope;
  if (!trace_path.empty()) {
    query_trace = std::make_unique<obs::QueryTrace>(obs::NextQueryId());
    query_scope.emplace(obs::QueryContext{query_trace->query_id(),
                                          query_trace.get(),
                                          /*parent_span=*/0});
  }
  tql::Interpreter interpreter(Ctx());
  interpreter.set_loader(LoadLocal);
  Result<std::string> output = interpreter.ExecuteScript(script);
  query_scope.reset();
  DieOnError(output.status());
  std::fputs(output->c_str(), stdout);
  if (query_trace != nullptr) {
    WriteTraceFile(trace_path, query_trace->ToChromeTraceJson());
  }
  return 0;
}

/// Reads the whole of `path` ("-" = stdin) into a string; dies on error.
std::string ReadEventsInput(const std::string& path) {
  std::FILE* file = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (file == nullptr) Flags::Die("cannot open events file " + path);
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  if (file != stdin) std::fclose(file);
  return text;
}

int Ingest(const Flags& flags) {
  std::string dir = flags.Get("graph");
  std::string text = ReadEventsInput(flags.GetOr("events", "-"));
  Result<std::vector<ingest::Event>> events = ingest::ParseEventText(text);
  DieOnError(events.status());
  TimePoint horizon = flags.GetIntOr("horizon", 0);
  if (flags.Has("connect")) {
    // Remote mode: the server owns the WAL and the live graph; the ack
    // means the batch is fsynced there.
    server::Client client = ConnectedClient(flags);
    Result<server::Response> response = client.Ingest(dir, *events, horizon);
    DieOnError(response.status());
    std::printf("%s\n", response->body.c_str());
    return 0;
  }
  // Local mode: open (or create) the live directory in-process. Do not
  // point this at a directory a running tgraphd is serving — two WAL
  // writers do not compose.
  ingest::LiveGraph::Options options;
  if (horizon != 0) options.horizon = horizon;
  options.delta_events_threshold = 0;  // no background compactor
  Result<std::unique_ptr<ingest::LiveGraph>> graph =
      ingest::LiveGraph::Open(Ctx(), dir, std::move(options));
  DieOnError(graph.status());
  if (!events->empty()) {
    Result<uint64_t> seq = (*graph)->Append(*events);
    if (!seq.ok()) {
      (void)(*graph)->Close();
      DieOnError(seq.status());
    }
    std::printf("ingested %zu events graph=%s epoch=%llu seq=%llu\n",
                events->size(), dir.c_str(),
                static_cast<unsigned long long>((*graph)->epoch()),
                static_cast<unsigned long long>(*seq));
  }
  if (flags.Has("compact")) {
    DieOnError((*graph)->Compact());
    std::printf("compacted graph=%s epoch=%llu\n", dir.c_str(),
                static_cast<unsigned long long>((*graph)->epoch()));
  }
  DieOnError((*graph)->Close());
  return 0;
}

int Stats(const Flags& flags) {
  server::Client client = ConnectedClient(flags);
  Result<server::Response> response = client.Stats(flags.Has("json"));
  DieOnError(response.status());
  std::fputs(response->body.c_str(), stdout);
  return 0;
}

int Metrics(const Flags& flags) {
  server::Client client = ConnectedClient(flags);
  Result<server::Response> response = client.Metrics();
  DieOnError(response.status());
  std::fputs(response->body.c_str(), stdout);
  return 0;
}

// Views live in tgraphd (they track its ingest epochs), so this
// subcommand is remote-only: --connect is required, like stats/metrics.
int View(const Flags& flags) {
  server::Client client = ConnectedClient(flags);
  Result<server::Response> response = client.View(flags.GetOr("name", ""));
  DieOnError(response.status());
  std::fputs(response->body.c_str(), stdout);
  return 0;
}

int SaveStore(const Flags& flags) {
  VeGraph graph = LoadInput(flags);
  storage::GraphWriteOptions options;
  if (flags.GetOr("sort", "temporal") == "structural") {
    options.sort_order = storage::SortOrder::kStructuralLocality;
  }
  options.row_group_size =
      flags.GetIntOr("partition-rows", options.row_group_size, 1);
  std::string rep = flags.GetOr("rep", "ve");
  std::string out = flags.Get("out");
  if (rep == "ve") {
    DieOnError(storage::WriteVeStore(graph, out, options));
  } else if (rep == "og") {
    DieOnError(storage::WriteOgStore(VeToOg(graph), out, options));
  } else if (rep == "ogc") {
    DieOnError(storage::WriteOgcStore(VeToOgc(graph), out, options));
  } else {
    Flags::Die("unknown representation '" + rep + "' (use ve|og|ogc)");
  }
  std::printf("wrote %s (tgraph-store v3, %s)\n",
              storage::StorePath(out).c_str(), rep.c_str());
  return 0;
}

int Repl() {
  tql::Interpreter interpreter(Ctx());
  interpreter.set_loader(LoadLocal);
  std::string pending;
  std::printf("tgz TQL repl — statements end with ';', ctrl-d exits\n");
  std::printf("> ");
  std::fflush(stdout);
  int c;
  while ((c = std::fgetc(stdin)) != EOF) {
    pending.push_back(static_cast<char>(c));
    if (c != ';') continue;
    Result<std::string> output = interpreter.ExecuteScript(pending);
    if (output.ok()) {
      std::fputs(output->c_str(), stdout);
    } else {
      std::fprintf(stderr, "error: %s\n", output.status().ToString().c_str());
    }
    pending.clear();
    std::printf("> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}

int Help(std::FILE* out) {
  std::fprintf(
      out,
      "usage: tgz [--trace-out FILE] [--metrics] <command> [--flag value ...]\n"
      "\n"
      "global flags (any command, --flag value or --flag=value):\n"
      "  --trace-out FILE   write a Chrome trace_event JSON\n"
      "                     (chrome://tracing, Perfetto)\n"
      "  --metrics          print metric deltas for the run to stderr\n"
      "  --help             print this help and exit\n"
      "\n"
      "commands:\n"
      "  generate    --dataset wikitalk|snb|ngrams --out DIR [--seed N]\n"
      "              [--scale F] [--sort temporal|structural]\n"
      "  info        --in DIR\n"
      "  slice       --in DIR --out DIR --from T --to T [--sort ...]\n"
      "  azoom       --in DIR --out DIR --group-by PROP [--type NAME]\n"
      "              [--count PROP] [--rep ve|og|rg] [--sort ...]\n"
      "  wzoom       --in DIR --out DIR --window N [--vq all|most|exists]\n"
      "              [--eq all|most|exists] [--rep ve|og|ogc|rg] [--sort ...]\n"
      "  snapshot    --in DIR --at T [--limit N]\n"
      "  query       --script FILE [--connect host:port] [--no-cache v]\n"
      "              [--trace FILE]  (write this query's spans as Chrome\n"
      "              trace JSON; with --connect the server traces it)\n"
      "  ingest      --graph DIR [--events FILE|-] [--connect host:port]\n"
      "              [--horizon T] [--compact v]  (append events from the\n"
      "              text grammar in docs/FORMAT.md; default reads stdin.\n"
      "              Without --connect, opens DIR's WAL in-process)\n"
      "  stats       --connect host:port [--json v]\n"
      "  view        --connect host:port [--name NAME]  (fetch the named\n"
      "              materialized view; without --name, list the view\n"
      "              catalog. Register with: tgz query and CREATE VIEW)\n"
      "  metrics     --connect host:port  (Prometheus text exposition)\n"
      "  save-store  --in DIR --out DIR [--rep ve|og|ogc]\n"
      "              [--partition-rows N] [--sort temporal|structural]\n"
      "              (rewrite the store as another representation)\n"
      "  repl        (interactive TQL; statements end with ';')\n"
      "\n"
      "A graph dir holds one tgraph-store v3 container (graph.tgs). See\n"
      "docs/FORMAT.md for the on-disk format and README.md for the full\n"
      "flag and environment-variable reference.\n");
  return out == stdout ? 0 : 2;
}

int Usage() { return Help(stderr); }

/// Observability flags: recognized anywhere on the command line, in both
/// "--flag value" and "--flag=value" forms, and stripped before subcommand
/// flag parsing.
struct ObsFlags {
  std::string trace_out;
  bool metrics = false;
};

ObsFlags ExtractObsFlags(std::vector<std::string>* args) {
  ObsFlags obs_flags;
  std::vector<std::string> kept;
  for (size_t i = 0; i < args->size(); ++i) {
    const std::string& arg = (*args)[i];
    if (arg == "--metrics") {
      obs_flags.metrics = true;
    } else if (arg == "--trace-out") {
      if (i + 1 >= args->size()) Flags::Die("flag --trace-out needs a value");
      obs_flags.trace_out = (*args)[++i];
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      obs_flags.trace_out = arg.substr(std::string("--trace-out=").size());
    } else {
      kept.push_back(arg);
    }
  }
  *args = std::move(kept);
  return obs_flags;
}

int Dispatch(const std::string& command, const Flags& flags) {
  if (command == "generate") return Generate(flags);
  if (command == "info") return Info(flags);
  if (command == "slice") return Slice(flags);
  if (command == "azoom") return AZoomCommand(flags);
  if (command == "wzoom") return WZoomCommand(flags);
  if (command == "snapshot") return Snapshot(flags);
  if (command == "query") return Query(flags);
  if (command == "ingest") return Ingest(flags);
  if (command == "stats") return Stats(flags);
  if (command == "metrics") return Metrics(flags);
  if (command == "view") return View(flags);
  if (command == "save-store") return SaveStore(flags);
  if (command == "repl") return Repl();
  if (command == "help" || command == "--help" || command == "-h") {
    return Help(stdout);
  }
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  ObsFlags obs_flags = ExtractObsFlags(&args);
  if (args.empty()) return Usage();

  if (!obs_flags.trace_out.empty()) obs::Tracer::Global().Enable();
  obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();

  std::string command = args[0];
  std::vector<char*> cargs;
  cargs.push_back(argv[0]);
  for (std::string& arg : args) cargs.push_back(arg.data());
  Flags flags(static_cast<int>(cargs.size()), cargs.data(), 2);

  int code;
  {
    obs::Span command_span("tgz." + command, "cli");
    code = Dispatch(command, flags);
  }

  if (!obs_flags.trace_out.empty()) {
    if (obs::Tracer::Global().WriteChromeTrace(obs_flags.trace_out)) {
      std::fprintf(stderr, "tgz: wrote trace to %s (%zu spans)\n",
                   obs_flags.trace_out.c_str(),
                   obs::Tracer::Global().EventCount());
      std::fprintf(stderr, "%s", obs::Tracer::Global().Summary().c_str());
    } else {
      std::fprintf(stderr, "tgz: cannot write trace to %s\n",
                   obs_flags.trace_out.c_str());
      return 2;
    }
  }
  if (obs_flags.metrics) {
    std::string report = obs::MetricsRegistry::Global()
                             .Snapshot()
                             .DeltaSince(before)
                             .ToString();
    std::fprintf(stderr, "%s", report.c_str());
  }
  return code;
}
