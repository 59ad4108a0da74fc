#ifndef TGRAPH_SERVER_SERVER_H_
#define TGRAPH_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "dataflow/context.h"
#include "ingest/live_graph.h"
#include "server/catalog.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/slow_query_log.h"
#include "tgraph/stats.h"
#include "views/registry.h"

namespace tgraph::server {

struct ServerOptions {
  /// TCP port to listen on (loopback only). 0 picks an ephemeral port;
  /// read it back from Server::port().
  int port = 7464;

  /// Session worker threads — the concurrency bound on in-flight
  /// requests. Dataflow parallelism inside one query is separate (the
  /// shared ExecutionContext pool).
  int workers = 4;

  /// Accepted connections allowed to wait for a free worker. A connection
  /// arriving when the queue is full is refused with a ResourceExhausted
  /// response ("429") and closed — saturation rejects, never hangs.
  int queue_depth = 16;

  /// Result-cache byte budget (0 disables caching).
  size_t cache_bytes = 64u << 20;

  /// Per-query deadline. Execution checks it cooperatively between TQL
  /// statements; an exceeded deadline answers Cancelled. 0 = no deadline.
  int64_t deadline_ms = 60'000;

  /// How long a worker blocks waiting for the next request on an idle
  /// connection before closing it.
  int64_t idle_timeout_ms = 60'000;

  /// Path of the per-operator statistics profile. When non-empty, Start()
  /// loads the stats store from it (a missing file is a cold start, not
  /// an error) and Drain() writes the accumulated store back, so the
  /// profile `tgz stats` reports spans restarts. No query plan reads it.
  /// Empty disables persistence; observations still accumulate in
  /// memory.
  std::string stats_path;

  /// Plain-HTTP Prometheus exposition port (loopback only): GET /metrics
  /// returns the registry in text format. 0 picks an ephemeral port (read
  /// it back from Server::metrics_port()); -1 (default) disables the
  /// endpoint.
  int metrics_port = -1;

  /// Path of the JSONL slow-query log. Empty (default) disables it.
  std::string slow_query_log;

  /// Queries slower than this land in the slow-query log (with their
  /// per-stage breakdown). Only meaningful with slow_query_log set; 0
  /// logs every query.
  int64_t slow_query_ms = 100;

  /// Directory that holds the write-ahead logs of live graphs. Empty
  /// (default) keeps each graph's WAL inside its own directory
  /// (`<dir>/wal`); set it to collect WALs on a separate (faster/safer)
  /// device.
  std::string ingest_wal_dir;

  /// Delta events per live graph beyond which the background compactor
  /// folds the delta into a new on-disk generation.
  size_t ingest_delta_events = 4096;

  /// Time-based compaction cadence in milliseconds (0 = size-triggered
  /// only): every interval, a non-empty delta is compacted.
  int64_t ingest_compact_ms = 0;

  /// Where materialized-view definitions persist (a TQL script of
  /// canonicalized CREATE VIEW statements, rewritten atomically on every
  /// DDL). Start() re-registers the definitions found there, so views
  /// survive restarts; their state rebuilds from the compacted store +
  /// WAL tail on first use. Empty (default) keeps views in memory only.
  std::string views_path;

  /// Incremental view maintenance gives up and recomputes fully when the
  /// recomputed suffix would span more than this fraction of the source
  /// lifetime (see incremental::PlanDelta).
  double view_max_suffix_fraction = 0.75;
};

/// \brief tgraphd — the resident TQL query server. Accepts framed
/// requests (see protocol.h), executes scripts over a shared
/// dataflow::ExecutionContext with a per-session interpreter, shares
/// loaded datasets through a GraphCatalog, and serves repeated zoom
/// queries from a canonicalized-plan ResultCache.
///
/// Lifecycle: construct, Start(), serve, Drain(). Drain stops accepting,
/// lets in-flight requests finish (idle connections are closed), then
/// joins all threads; it is what the SIGTERM handler of tools/tgzd.cc
/// calls. The destructor drains if the caller did not.
///
/// The protocol is stateless: every QUERY runs in a fresh interpreter,
/// so a script's canonical text fully determines its result — the
/// property that makes result caching sound. Pipelines are composed
/// within one script (LOAD ... SET ... INFO). Only the catalog and
/// result cache are shared across requests.
class Server {
 public:
  Server(dataflow::ExecutionContext* ctx, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor and worker threads.
  Status Start();

  /// The bound port (differs from options.port when that was 0).
  int port() const { return port_; }

  /// The bound metrics port, or -1 when the endpoint is disabled.
  int metrics_port() const { return metrics_port_; }

  /// Graceful shutdown: stop accepting, serve what is queued and
  /// in-flight, close idle connections, join threads. Idempotent.
  void Drain();

  /// True between Start() and Drain().
  bool running() const { return running_.load(std::memory_order_acquire); }

  const ServerOptions& options() const { return options_; }
  ResultCache& cache() { return cache_; }
  GraphCatalog& catalog() { return catalog_; }
  ingest::LiveGraphRegistry& live_graphs() { return live_graphs_; }
  views::ViewRegistry& views() { return views_; }

  /// Per-operator statistics observed across every query this server has
  /// executed (plus the warm-start profile). Recording is
  /// observation-only: query *execution* is unchanged by the store, which
  /// keeps the result cache sound — a cached and a fresh execution of the
  /// same canonical script still produce the same bytes.
  opt::Stats& stats() { return stats_; }

  /// Connections waiting for a worker right now (tests poll this to set
  /// up saturation deterministically).
  int pending_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(pending_.size());
  }

  /// Connections currently owned by workers.
  int active_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(active_.size());
  }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  /// Handles one decoded request; returns the response to send.
  struct Session;
  void HandleRequest(Session* session, const std::string& payload,
                     std::string* response_payload);
  void HandleQuery(Session* session, const Request& request,
                   Response* response, SlowQueryEntry* slow);
  void HandleIngest(const Request& request, Response* response);
  void HandleView(const Request& request, Response* response);
  std::string StatsReport();
  std::string StatsJson();
  /// Serves GET /metrics over plain HTTP until drain (its own thread).
  void MetricsLoop();

  dataflow::ExecutionContext* ctx_;
  const ServerOptions options_;
  GraphCatalog catalog_;
  ResultCache cache_;
  // Declared before live_graphs_ on purpose: members destruct in reverse
  // order, so the live registry (whose compactor threads invoke the epoch
  // listener, which refreshes views) shuts down while the view registry
  // is still alive.
  views::ViewRegistry views_;
  ingest::LiveGraphRegistry live_graphs_;
  opt::Stats stats_;

  int listen_fd_ = -1;
  int port_ = 0;
  int metrics_fd_ = -1;
  int metrics_port_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> next_request_id_{0};

  std::thread acceptor_;
  std::thread metrics_thread_;
  std::vector<std::thread> workers_;
  std::unique_ptr<SlowQueryLog> slow_log_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< Accepted fds waiting for a worker.
  std::unordered_set<int> active_;  ///< Fds currently owned by workers.
};

}  // namespace tgraph::server

#endif  // TGRAPH_SERVER_SERVER_H_
