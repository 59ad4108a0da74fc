#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "common/logging.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/protocol.h"
#include "tql/canonical.h"
#include "tql/interpreter.h"
#include "tql/parser.h"

namespace tgraph::server {

namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetRecvTimeout(int fd, int64_t timeout_ms) {
  if (timeout_ms <= 0) return;
  struct timeval tv;
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

obs::Counter* ServerCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

int64_t UnixNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Binds a loopback TCP listener; returns the fd and stores the bound
/// port. Shared by the protocol listener setup and the metrics endpoint.
Result<int> ListenLoopback(int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) < 0) {
    Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &addr_len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

/// Routes a finished request's wall time into the per-verb histogram and,
/// for queries, the per-cache-state one ("hit" | "miss" | anything else =
/// ran without the cache in play).
void RecordVerbLatency(Verb verb, const std::string& cache, int64_t wall_us) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Histogram* query_micros =
      registry.GetHistogram(obs::metric_names::kVerbQueryMicros);
  static obs::Histogram* stats_micros =
      registry.GetHistogram(obs::metric_names::kVerbStatsMicros);
  static obs::Histogram* ping_micros =
      registry.GetHistogram(obs::metric_names::kVerbPingMicros);
  static obs::Histogram* metrics_micros =
      registry.GetHistogram(obs::metric_names::kVerbMetricsMicros);
  static obs::Histogram* ingest_micros =
      registry.GetHistogram(obs::metric_names::kVerbIngestMicros);
  static obs::Histogram* view_micros =
      registry.GetHistogram(obs::metric_names::kVerbViewMicros);
  static obs::Histogram* hit_micros =
      registry.GetHistogram(obs::metric_names::kQueryCacheHitMicros);
  static obs::Histogram* miss_micros =
      registry.GetHistogram(obs::metric_names::kQueryCacheMissMicros);
  static obs::Histogram* uncached_micros =
      registry.GetHistogram(obs::metric_names::kQueryUncachedMicros);
  switch (verb) {
    case Verb::kQuery:
      query_micros->Record(wall_us);
      (cache == "hit"    ? hit_micros
       : cache == "miss" ? miss_micros
                         : uncached_micros)
          ->Record(wall_us);
      break;
    case Verb::kStats:
      stats_micros->Record(wall_us);
      break;
    case Verb::kPing:
      ping_micros->Record(wall_us);
      break;
    case Verb::kMetrics:
      metrics_micros->Record(wall_us);
      break;
    case Verb::kIngest:
      ingest_micros->Record(wall_us);
      break;
    case Verb::kView:
      view_micros->Record(wall_us);
      break;
  }
}

/// Per-request ViewCatalog adapter: forwards to the server's registry and
/// records, per view name, the snapshot version VIEW statements actually
/// served — the analogue of the loader's served-epoch recording, feeding
/// the result-cache store key.
class RecordingViews : public tql::ViewCatalog {
 public:
  RecordingViews(views::ViewRegistry* registry,
                 std::map<std::string, uint64_t>* served_versions,
                 bool* mixed)
      : registry_(registry), served_versions_(served_versions),
        mixed_(mixed) {}

  Result<std::string> CreateView(
      const tql::CreateViewStatement& create) override {
    return registry_->CreateView(create);
  }
  Result<std::string> DropView(const std::string& name) override {
    return registry_->DropView(name);
  }
  Result<std::string> ShowViews() override { return registry_->ShowViews(); }
  Result<std::string> QueryView(const std::string& name) override {
    uint64_t version = 0;
    Result<std::string> rendered = registry_->QueryView(name, &version);
    if (rendered.ok()) {
      auto [it, inserted] = served_versions_->emplace(name, version);
      if (!inserted && it->second != version) *mixed_ = true;
    }
    return rendered;
  }

 private:
  views::ViewRegistry* registry_;
  std::map<std::string, uint64_t>* served_versions_;
  bool* mixed_;
};

}  // namespace

/// Per-connection state. The protocol is stateless by design — every
/// request runs in a fresh interpreter over the shared catalog — so a
/// session only carries the request deadline plumbing. Statelessness is
/// what makes the result cache sound: a script's canonical text fully
/// determines its result, with no hidden session environment feeding in.
struct Server::Session {
  int fd = -1;
  int64_t deadline_at_ms = 0;  ///< 0 = no deadline for this request.
};

Server::Server(dataflow::ExecutionContext* ctx, ServerOptions options)
    : ctx_(ctx),
      options_(options),
      catalog_(ctx),
      cache_(ResultCacheOptions{options.cache_bytes, options.cache_ttl_ms,
                                nullptr}),
      views_(ctx, &live_graphs_,
             views::ViewRegistry::Options{
                 options.views_path, options.view_max_suffix_fraction,
                 // DROP VIEW and fallback recomputes evict exactly this
                 // view's cached results — the tag other views' entries
                 // never carry.
                 [this](const std::string& name) {
                   cache_.EvictTag("view:" + name);
                 }}),
      live_graphs_(ctx) {
  ingest::LiveGraph::Options live;
  live.wal_path = options_.ingest_wal_dir;  // directory; see set_options
  live.delta_events_threshold = options_.ingest_delta_events;
  live.compact_interval_ms = options_.ingest_compact_ms;
  // Each publication retires the previous epoch: superseded catalog
  // materializations are pruned, registered views apply the delta (so
  // view staleness is bounded by one synchronous refresh), and the
  // graph's cached results are evicted. (Correctness never depends on
  // this — epochs and view versions live in the cache keys.)
  live.epoch_listener = [this](const std::string& dir, uint64_t epoch) {
    catalog_.PruneLiveEpochs(dir, epoch);
    views_.OnEpoch(dir, epoch);
    cache_.EvictTag(dir);
  };
  live_graphs_.set_options(std::move(live));
  catalog_.set_live_graphs(&live_graphs_);
}

Server::~Server() { Drain(); }

Status Server::Start() {
  if (running_.load()) return Status::Internal("server already started");

  if (!options_.stats_path.empty()) {
    Result<opt::Stats> loaded = opt::Stats::LoadFromFile(options_.stats_path);
    if (loaded.ok()) {
      stats_.MergeFrom(*loaded);
      TG_LOG(INFO) << "tgraphd warm-started stats from '"
                   << options_.stats_path << "' ("
                   << stats_.TotalObservations() << " observations)";
    } else if (!loaded.status().IsNotFound()) {
      // A corrupt profile is worth a warning but never blocks serving:
      // the store just starts cold.
      TG_LOG(WARN) << "ignoring stats profile: "
                   << loaded.status().ToString();
    }
  }

  if (!options_.slow_query_log.empty()) {
    TG_ASSIGN_OR_RETURN(slow_log_, SlowQueryLog::Open(options_.slow_query_log));
  }

  // Re-register persisted view definitions before accepting traffic;
  // unlike a corrupt stats profile, silently dropping views a client
  // registered would serve wrong answers, so failure blocks startup.
  TG_RETURN_IF_ERROR(views_.LoadFromDisk());
  if (views_.size() > 0) {
    TG_LOG(INFO) << "tgraphd re-registered " << views_.size()
                 << " view(s) from '" << options_.views_path << "'";
  }

  TG_ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(options_.port, &port_));

  if (options_.metrics_port >= 0) {
    Result<int> metrics_fd =
        ListenLoopback(options_.metrics_port, &metrics_port_);
    if (!metrics_fd.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      return metrics_fd.status();
    }
    metrics_fd_ = *metrics_fd;
  }

  running_.store(true, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  if (metrics_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
    TG_LOG(INFO) << "tgraphd metrics endpoint on port " << metrics_port_;
  }
  int workers = options_.workers > 0 ? options_.workers : 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  TG_LOG(INFO) << "tgraphd listening on port " << port_ << " ("
               << workers << " workers, queue depth " << options_.queue_depth
               << ")";
  return Status::OK();
}

void Server::AcceptLoop() {
  static obs::Counter* connections =
      ServerCounter(obs::metric_names::kServerConnections);
  static obs::Counter* rejected =
      ServerCounter(obs::metric_names::kServerRejected);
  static obs::Gauge* queue_depth =
      obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kServerQueueDepth);

  while (!draining_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() on the listen socket wakes accept with an error; any
      // other failure while not draining is transient — keep accepting.
      if (draining_.load(std::memory_order_acquire)) break;
      continue;
    }
    connections->Increment();
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(pending_.size()) < options_.queue_depth) {
        pending_.push_back(fd);
        queue_depth->Set(static_cast<int64_t>(pending_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
      continue;
    }
    // Admission control: the queue is full, so refuse rather than let the
    // connection wait unboundedly. The refusal is a well-formed response
    // frame, so clients fail fast with a retriable status.
    rejected->Increment();
    Response busy;
    busy.code = static_cast<uint8_t>(StatusCode::kResourceExhausted);
    busy.body = "server saturated (queue depth " +
                std::to_string(options_.queue_depth) + "); retry later";
    (void)WriteFrame(fd, EncodeResponse(busy));
    ::close(fd);
  }
}

void Server::WorkerLoop() {
  static obs::Gauge* queue_depth =
      obs::MetricsRegistry::Global().GetGauge(
          obs::metric_names::kServerQueueDepth);
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // draining and nothing left to serve
      fd = pending_.front();
      pending_.pop_front();
      queue_depth->Set(static_cast<int64_t>(pending_.size()));
      active_.insert(fd);
    }
    ServeConnection(fd);
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(fd);
    }
    ::close(fd);
  }
}

void Server::ServeConnection(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  Session session;
  session.fd = fd;
  bool first_request = true;
  while (true) {
    bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !first_request) break;
    // While draining, a queued connection still gets its (presumably
    // already-sent) request served, but an idle one is closed quickly
    // instead of holding up the drain for the full idle timeout.
    SetRecvTimeout(fd, draining ? 100 : options_.idle_timeout_ms);
    Result<std::string> payload = ReadFrame(fd);
    if (!payload.ok()) {
      // Clean close, idle timeout, or garbage: drop the connection. A
      // malformed frame gets a best-effort error response first.
      if (payload.status().IsIoError()) {
        Response err;
        err.code = static_cast<uint8_t>(payload.status().code());
        err.body = payload.status().message();
        (void)WriteFrame(fd, EncodeResponse(err));
      }
      break;
    }
    first_request = false;
    std::string response_payload;
    HandleRequest(&session, *payload, &response_payload);
    if (!WriteFrame(fd, response_payload).ok()) break;
  }
}

void Server::HandleRequest(Session* session, const std::string& payload,
                           std::string* response_payload) {
  static obs::Counter* requests =
      ServerCounter(obs::metric_names::kServerRequests);
  static obs::Counter* errors = ServerCounter(obs::metric_names::kServerErrors);
  static obs::Counter* query_count =
      ServerCounter(obs::metric_names::kQueryCount);
  static obs::Counter* query_sampled =
      ServerCounter(obs::metric_names::kQuerySampled);
  static obs::Counter* query_slow = ServerCounter(obs::metric_names::kQuerySlow);
  static obs::Histogram* request_micros =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kServerRequestMicros);

  uint64_t request_id = ++next_request_id_;
  requests->Increment();
  int64_t started_us = obs::Tracer::NowMicros();

  Response response;
  response.request_id = request_id;

  Result<Request> request = DecodeRequest(payload);
  if (!request.ok()) {
    errors->Increment();
    response.code = static_cast<uint8_t>(request.status().code());
    response.body = request.status().ToString();
    *response_payload = EncodeResponse(response);
    return;
  }

  // Per-query trace identity. Installing the context before the verb span
  // opens makes that span the query's single root: every span recorded
  // below — cache lookup, catalog load, dataflow stages on pool threads —
  // nests under it and carries the query id. kFlagTrace forces sampling
  // (the client asked for this query's spans); otherwise
  // TGRAPH_TRACE_SAMPLE decides, which both bounds per-query trace
  // buffers at traffic and downsamples the global tracer.
  const bool is_query = request->verb == Verb::kQuery;
  const bool want_trace = is_query && (request->flags & kFlagTrace) != 0;
  std::unique_ptr<obs::QueryTrace> query_trace;
  // The query's counter block: every attributed increment the query
  // causes, on this thread or a pool thread, lands here as well as in the
  // process registry; EXPLAIN ANALYZE and the slow-query log read it.
  obs::QueryCounters query_counters;
  std::optional<obs::ScopedQueryContext> query_scope;
  SlowQueryEntry slow;
  if (is_query) {
    const uint64_t query_id = obs::NextQueryId();
    const bool sampled =
        want_trace || obs::SampleQuery(query_id, obs::TraceSampleRate());
    if (sampled) query_trace = std::make_unique<obs::QueryTrace>(query_id);
    query_scope.emplace(obs::QueryContext{query_id, query_trace.get(),
                                          /*parent_span=*/0,
                                          &query_counters});
    query_count->Increment();
    if (sampled) query_sampled->Increment();
    slow.query_id = query_id;
    slow.request_id = request_id;
    slow.sampled = sampled;
  }

  {
    const char* verb_name = request->verb == Verb::kQuery     ? "query"
                            : request->verb == Verb::kStats   ? "stats"
                            : request->verb == Verb::kMetrics ? "metrics"
                            : request->verb == Verb::kIngest  ? "ingest"
                            : request->verb == Verb::kView    ? "view"
                                                              : "ping";
    obs::Span verb_span(std::string("tgraphd.") + verb_name, "server");
    // The request-id span nests under the verb span, so a trace can be
    // searched for the id a client reported (responses echo it).
    std::optional<obs::Span> rid_span;
    if (obs::Tracer::enabled() || query_trace != nullptr) {
      rid_span.emplace("rid=" + std::to_string(request_id), "server");
    }

    switch (request->verb) {
      case Verb::kPing:
        response.body = "pong";
        break;
      case Verb::kStats:
        response.body =
            (request->flags & kFlagJson) != 0 ? StatsJson() : StatsReport();
        break;
      case Verb::kMetrics:
        response.body =
            obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
        break;
      case Verb::kQuery:
        HandleQuery(session, *request, &response, &slow);
        break;
      case Verb::kIngest:
        HandleIngest(*request, &response);
        break;
      case Verb::kView:
        HandleView(*request, &response);
        break;
    }
  }
  // All request spans are closed; drop the context before exporting so
  // the export itself is not traced into the query.
  query_scope.reset();

  const int64_t wall_us = obs::Tracer::NowMicros() - started_us;
  request_micros->Record(wall_us);
  RecordVerbLatency(request->verb, slow.cache, wall_us);

  if (is_query) {
    if (want_trace && query_trace != nullptr) {
      response.flags |= kFlagHasTrace;
      response.trace = query_trace->ToChromeTraceJson();
    }
    if (slow_log_ != nullptr && wall_us >= options_.slow_query_ms * 1000) {
      query_slow->Increment();
      slow.unix_ms = UnixNowMs();
      slow.wall_us = wall_us;
      if (!response.ok()) {
        slow.status = StatusCodeToString(static_cast<StatusCode>(response.code));
      }
      slow_log_->Append(slow);
    }
  }

  *response_payload = EncodeResponse(response);
}

void Server::HandleQuery(Session* session, const Request& request,
                         Response* response, SlowQueryEntry* slow) {
  static obs::Counter* errors = ServerCounter(obs::metric_names::kServerErrors);
  static obs::Counter* deadline_exceeded =
      ServerCounter(obs::metric_names::kServerDeadlineExceeded);

  const bool no_cache = (request.flags & kFlagNoCache) != 0;
  // One parse serves the cache key, the STORE/cacheability scan and the
  // execution.
  Result<std::vector<tql::Statement>> statements = tql::Parse(request.body);
  if (!statements.ok()) {
    errors->Increment();
    response->code = static_cast<uint8_t>(statements.status().code());
    response->body = statements.status().ToString();
    return;
  }
  const std::string canonical = tql::CanonicalizeScript(*statements);
  slow->canonical = canonical;
  bool cacheable = false;
  std::string cache_key = canonical;
  std::vector<std::string> cache_tags;
  std::vector<std::string> live_paths;  // live LOAD paths, statement order
  std::vector<std::string> view_names;  // VIEW statements, statement order
  std::vector<std::string> store_paths;  // STORE targets, statement order
  {
    // Derive cacheability from the parsed script (STORE has disk side
    // effects, EXPLAIN ANALYZE must re-execute to measure).
    for (size_t i = 0; i < statements->size(); ++i) {
      const tql::Statement* statement = &(*statements)[i];
      if (const auto* explain = std::get_if<tql::ExplainStatement>(statement)) {
        statement = explain->inner.get();  // EXPLAIN ANALYZE STORE also writes
      }
      if (const auto* store = std::get_if<tql::StoreStatement>(statement)) {
        store_paths.push_back(store->path);
      }
    }
    bool script_cacheable = tql::IsCacheableScript(*statements);
    cacheable = script_cacheable && options_.cache_bytes > 0 && !no_cache;
    slow->cache = !script_cacheable      ? "uncacheable"
                  : no_cache             ? "bypass"
                  : options_.cache_bytes == 0 ? "uncacheable"
                                         : "miss";
    if (cacheable) {
      // Tag the entry with every LOADed directory (scoped invalidation)
      // and fold live (ingest) directories' snapshot epochs into the key.
      // Lookups probe the epoch current at admission; a computed result
      // is stored under the epoch(s) its loads actually read (below), so
      // a cached entry is only ever served for the exact snapshot it was
      // computed from — even when an append publishes a new epoch between
      // a query's admission and its loads.
      for (const tql::Statement& statement : *statements) {
        // VIEW results change only when the view republishes, so the
        // view's monotone snapshot version plays the role the snapshot
        // epoch plays for live LOADs: folded into the key at admission,
        // re-derived from what execution served at store time, and the
        // "view:<name>" tag scopes DROP/fallback eviction to one view.
        if (const auto* view = std::get_if<tql::ViewStatement>(&statement)) {
          cache_tags.push_back("view:" + view->name);
          view_names.push_back(view->name);
          cache_key += "|view:" + view->name + "@v" +
                       std::to_string(views_.CurrentVersion(view->name));
          continue;
        }
        const auto* load = std::get_if<tql::LoadStatement>(&statement);
        if (load == nullptr) continue;
        cache_tags.push_back(load->path);
        if (live_graphs_.Find(load->path) != nullptr ||
            ingest::IsLiveDir(load->path)) {
          Result<ingest::LiveGraph*> live = live_graphs_.GetOrOpen(load->path);
          if (live.ok()) {
            live_paths.push_back(load->path);
            cache_key += "|" + load->path + "@" +
                         std::to_string((*live)->epoch());
          } else {
            cacheable = false;  // the query's own load will report why
          }
        }
      }
    }
  }
  if (cacheable) {
    obs::Span lookup_span("tgraphd.cache.lookup", "server");
    std::optional<std::string> hit = cache_.Get(cache_key);
    if (hit.has_value()) {
      slow->cache = "hit";
      response->flags |= kFlagCacheHit;
      response->body = *std::move(hit);
      return;
    }
  }

  session->deadline_at_ms =
      options_.deadline_ms > 0 ? SteadyNowMs() + options_.deadline_ms : 0;
  tql::Interpreter interpreter(ctx_);
  // Record, per live path, the snapshot epoch the catalog actually served:
  // the stored cache key is built from these, not the admission epochs.
  std::map<std::string, uint64_t> served_epochs;
  bool mixed_epochs = false;
  interpreter.set_loader(
      [this, &served_epochs, &mixed_epochs](const tql::LoadStatement& load) {
        uint64_t live_epoch = 0;
        Result<TGraph> graph =
            catalog_.GetOrLoad(load.path, load.range, &live_epoch);
        if (graph.ok() && live_epoch != 0) {
          auto [it, inserted] = served_epochs.emplace(load.path, live_epoch);
          if (!inserted && it->second != live_epoch) mixed_epochs = true;
        }
        return graph;
      });
  // View statements route to the server's registry; the adapter records
  // the versions actually served for the store key below.
  std::map<std::string, uint64_t> served_view_versions;
  bool mixed_view_versions = false;
  RecordingViews recording_views(&views_, &served_view_versions,
                                 &mixed_view_versions);
  interpreter.set_views(&recording_views);
  // Observation-only: the interpreter records per-operator costs but
  // executes exactly as it would without the store, so cached and
  // fresh results stay byte-identical.
  interpreter.set_stats(&stats_);
  // Stage collection for the slow-query log; EXPLAIN ANALYZE statements
  // bring their own collector either way.
  obs::ExplainCollector stages;
  if (slow_log_ != nullptr) interpreter.set_explain(&stages);
  interpreter.set_interrupt_check([this, session]() -> Status {
    if (session->deadline_at_ms != 0 &&
        SteadyNowMs() > session->deadline_at_ms) {
      return Status::Cancelled("deadline of " +
                               std::to_string(options_.deadline_ms) +
                               " ms exceeded");
    }
    return Status::OK();
  });
  const uint64_t evictions_before = catalog_.evictions();
  Result<std::string> output = interpreter.ExecuteScript(*statements);
  // A STORE replaced its directory's file (even if a later statement
  // failed): drop the catalog's reader and graphs for it and every cached
  // result that LOADed it, so the next LOAD reads the new graph.
  for (const std::string& path : store_paths) {
    catalog_.Evict(path);
    cache_.EvictTag(path);
  }
  if (!stages.empty()) slow->stages_json = stages.StagesJson();
  if (!output.ok()) {
    errors->Increment();
    if (output.status().IsCancelled()) deadline_exceeded->Increment();
    response->code = static_cast<uint8_t>(output.status().code());
    response->body = output.status().ToString();
    return;
  }
  response->body = *output;
  if (cacheable) {
    // Store under the epochs the execution actually read. Caching under
    // the admission key would, after a mid-query append, file an epoch
    // N+1 result where epoch-N probes find it. Skip caching entirely when
    // the loads disagree (two loads of one path straddled a publication,
    // or a path turned live mid-query): such a result belongs to no
    // single snapshot.
    std::set<std::string> unique_live(live_paths.begin(), live_paths.end());
    std::set<std::string> unique_views(view_names.begin(), view_names.end());
    // A STORE from another session evicted a graph while this query ran:
    // the result may come from the replaced graph, so do not cache it.
    bool storable = catalog_.evictions() == evictions_before &&
                    !mixed_epochs && !mixed_view_versions &&
                    served_epochs.size() == unique_live.size() &&
                    served_view_versions.size() == unique_views.size();
    std::string store_key = canonical;
    for (const std::string& path : live_paths) {
      auto it = served_epochs.find(path);
      if (it == served_epochs.end()) {
        storable = false;
        break;
      }
      store_key += "|" + path + "@" + std::to_string(it->second);
    }
    for (const std::string& name : view_names) {
      auto it = served_view_versions.find(name);
      if (it == served_view_versions.end()) {
        storable = false;
        break;
      }
      store_key += "|view:" + name + "@v" + std::to_string(it->second);
    }
    if (storable) {
      cache_.Put(store_key, response->body, std::move(cache_tags));
    }
  }
}

void Server::HandleIngest(const Request& request, Response* response) {
  static obs::Counter* errors = ServerCounter(obs::metric_names::kServerErrors);
  Result<IngestRequest> body = DecodeIngestBody(request.body);
  if (!body.ok()) {
    errors->Increment();
    response->code = static_cast<uint8_t>(body.status().code());
    response->body = body.status().ToString();
    return;
  }
  Result<ingest::LiveGraph*> graph =
      live_graphs_.GetOrOpen(body->dir, body->horizon);
  if (!graph.ok()) {
    errors->Increment();
    response->code = static_cast<uint8_t>(graph.status().code());
    response->body = graph.status().ToString();
    return;
  }
  // Append() returning is the durability point: the batch is fsynced in
  // the WAL and visible to queries admitted from now on.
  Result<uint64_t> seq = (*graph)->Append(body->events);
  if (!seq.ok()) {
    errors->Increment();
    response->code = static_cast<uint8_t>(seq.status().code());
    response->body = seq.status().ToString();
    return;
  }
  response->body = "ingested " + std::to_string(body->events.size()) +
                   " events graph=" + body->dir +
                   " epoch=" + std::to_string((*graph)->epoch()) +
                   " seq=" + std::to_string(*seq);
}

void Server::HandleView(const Request& request, Response* response) {
  static obs::Counter* errors = ServerCounter(obs::metric_names::kServerErrors);
  Result<std::string> rendered = request.body.empty()
                                     ? views_.ShowViews()
                                     : views_.QueryView(request.body);
  if (!rendered.ok()) {
    errors->Increment();
    response->code = static_cast<uint8_t>(rendered.status().code());
    response->body = rendered.status().ToString();
    return;
  }
  response->body = *rendered;
}

std::string Server::StatsReport() {
  std::string report = "tgraphd port=" + std::to_string(port_) +
                       " workers=" + std::to_string(options_.workers) +
                       " queue_depth=" + std::to_string(options_.queue_depth) +
                       " cache_bytes=" + std::to_string(options_.cache_bytes) +
                       " deadline_ms=" + std::to_string(options_.deadline_ms) +
                       "\n";
  report += "cache entries=" + std::to_string(cache_.entries()) +
            " bytes=" + std::to_string(cache_.bytes()) +
            " catalog graphs=" + std::to_string(catalog_.size()) +
            " views=" + std::to_string(views_.size()) + "\n";
  report += "opt.stats observations=" +
            std::to_string(stats_.TotalObservations()) + "\n";
  report += stats_.ToString();
  report += obs::MetricsRegistry::Global().ToString();
  return report;
}

std::string Server::StatsJson() {
  std::string json = "{\"server\":{\"port\":" + std::to_string(port_) +
                     ",\"workers\":" + std::to_string(options_.workers) +
                     ",\"queue_depth\":" + std::to_string(options_.queue_depth) +
                     ",\"cache_bytes\":" + std::to_string(options_.cache_bytes) +
                     ",\"deadline_ms\":" + std::to_string(options_.deadline_ms) +
                     ",\"metrics_port\":" + std::to_string(metrics_port_) + "}";
  json += ",\"cache\":{\"entries\":" + std::to_string(cache_.entries()) +
          ",\"bytes\":" + std::to_string(cache_.bytes()) + "}";
  json += ",\"catalog\":{\"graphs\":" + std::to_string(catalog_.size()) + "}";
  json += ",\"views\":{\"count\":" + std::to_string(views_.size()) + "}";
  json += ",\"opt_stats\":{\"observations\":" +
          std::to_string(stats_.TotalObservations()) + ",\"cells\":[";
  bool first = true;
  for (const auto& [key, cell] : stats_.Cells()) {
    if (!first) json += ",";
    first = false;
    json += std::string("{\"op\":\"") + opt::OpKindName(key.first) +
            "\",\"rep\":\"" + RepresentationName(key.second) +
            "\",\"observations\":" + std::to_string(cell.observations) +
            ",\"wall_us\":" + std::to_string(cell.wall_us) +
            ",\"shuffle_bytes\":" + std::to_string(cell.shuffle_bytes) +
            ",\"rows_in\":" + std::to_string(cell.rows_in) +
            ",\"rows_out\":" + std::to_string(cell.rows_out) + "}";
  }
  json += "]}";
  json += ",\"metrics\":" +
          obs::MetricsJson(obs::MetricsRegistry::Global().Snapshot());
  json += "}";
  return json;
}

void Server::MetricsLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (draining_.load(std::memory_order_acquire)) break;
      continue;
    }
    // One request per connection (HTTP/1.0 semantics) keeps the loop
    // single-threaded and scrape-rate bound; Prometheus reconnects per
    // scrape by default anyway.
    SetRecvTimeout(fd, 2000);
    std::string head;
    char buf[1024];
    while (head.find("\r\n") == std::string::npos && head.size() < 8192) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      head.append(buf, static_cast<size_t>(n));
    }
    std::string method, path;
    const size_t line_end = head.find("\r\n");
    const std::string line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    if (sp1 != std::string::npos) {
      const size_t sp2 = line.find(' ', sp1 + 1);
      method = line.substr(0, sp1);
      path = line.substr(sp1 + 1,
                         (sp2 == std::string::npos ? line.size() : sp2) -
                             sp1 - 1);
    }
    std::string status_line, content_type, body;
    if (method == "GET" && path == "/metrics") {
      status_line = "HTTP/1.0 200 OK";
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = obs::ToPrometheusText(obs::MetricsRegistry::Global().Snapshot());
    } else {
      status_line = "HTTP/1.0 404 Not Found";
      content_type = "text/plain; charset=utf-8";
      body = "not found; try GET /metrics\n";
    }
    std::string http = status_line + "\r\nContent-Type: " + content_type +
                       "\r\nContent-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n" + body;
    size_t off = 0;
    while (off < http.size()) {
      ssize_t n =
          ::send(fd, http.data() + off, http.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::close(fd);
  }
}

void Server::Drain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    // A concurrent or earlier drain owns shutdown; wait for the threads it
    // joins by serializing on the same logic via running_.
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    return;
  }
  if (!running_.load(std::memory_order_acquire)) {
    draining_.store(true);
    return;
  }
  TG_LOG(INFO) << "tgraphd draining: stop accepting, finishing in-flight";
  // Wake the acceptor out of accept(2), then stop listening entirely.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (metrics_fd_ >= 0) ::shutdown(metrics_fd_, SHUT_RDWR);
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (metrics_fd_ >= 0) {
    ::close(metrics_fd_);
    metrics_fd_ = -1;
  }
  {
    // Close the read side of idle in-service connections: a worker blocked
    // in ReadFrame wakes with EOF, while one mid-execution finishes its
    // request and delivers the response (writes stay open).
    std::lock_guard<std::mutex> lock(mu_);
    for (int fd : active_) ::shutdown(fd, SHUT_RD);
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // No worker can append anymore; stop compactors and close the WALs so a
  // restart replays a clean (possibly non-empty) log.
  live_graphs_.CloseAll();
  if (!options_.stats_path.empty() && !stats_.empty()) {
    Status saved = stats_.SaveToFile(options_.stats_path);
    if (saved.ok()) {
      TG_LOG(INFO) << "tgraphd saved stats profile to '"
                   << options_.stats_path << "' ("
                   << stats_.TotalObservations() << " observations)";
    } else {
      TG_LOG(WARN) << "failed to save stats profile: " << saved.ToString();
    }
  }
  running_.store(false, std::memory_order_release);
  TG_LOG(INFO) << "tgraphd drained";
}

}  // namespace tgraph::server
