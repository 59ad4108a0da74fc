#ifndef TGRAPH_SERVER_CATALOG_H_
#define TGRAPH_SERVER_CATALOG_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/interval.h"
#include "common/result.h"
#include "tgraph/tgraph.h"

namespace tgraph::storage {
class StoreReader;
}  // namespace tgraph::storage

namespace tgraph::ingest {
class LiveGraph;
class LiveGraphRegistry;
class LiveSnapshot;
}  // namespace tgraph::ingest

namespace tgraph::server {

/// \brief Shared, read-only graph catalog: each (graph directory, time
/// range) pair is loaded from disk at most once and then shared by every
/// session — the resident-server counterpart of Khurana & Deshpande's
/// observation that reuse of loaded/derived graphs dominates repeated
/// temporal workloads.
///
/// Loads are coordinated, not merely memoized: when two requests race on
/// a cold dataset the second blocks until the first finishes rather than
/// duplicating the read. Loaded graphs are materialized eagerly, so the
/// handles returned are safe for any number of concurrent readers
/// (dataflow plan nodes built on top of them are per-request).
///
/// Failed loads are not negatively cached — a dataset that appears on
/// disk later loads on the next request.
///
/// Every stored directory is served off a single memory-mapped
/// StoreReader (`graph.tgs`) shared by every ranged load of that
/// directory: N concurrent time slices fault in (and share) one set of
/// page-cache pages instead of parsing N heap copies of the file. A
/// rewrite of the store renames a new file into place, so the shared
/// mapping keeps the old bytes intact. A TQL STORE run by this server
/// calls Evict(dir) afterwards, so later loads open the new file. A
/// rewrite from outside the process is not seen: the catalog goes on
/// serving the old graph for that directory until the process restarts.
class GraphCatalog {
 public:
  explicit GraphCatalog(dataflow::ExecutionContext* ctx) : ctx_(ctx) {}

  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Returns the shared graph for `dir` (optionally range-restricted via
  /// pushdown), loading it on first use. TGraph is a cheap shared handle,
  /// so the returned copy aliases the catalog's data.
  ///
  /// A *live* directory (streaming ingest; ingest::IsLiveDir) is served
  /// from its LiveGraph's current snapshot instead of the disk loaders,
  /// with the snapshot epoch folded into the slot key: the snapshot is
  /// resolved once per call, so everything this call returns comes from
  /// that one epoch even while ingestion publishes newer ones, and
  /// superseded materializations stay addressable until pruned. When
  /// `live_epoch` is non-null it receives the epoch this call actually
  /// served (0 for a non-live directory) — the server keys cached query
  /// results by it, since the current epoch may advance between a query's
  /// admission and its loads.
  Result<TGraph> GetOrLoad(const std::string& dir,
                           const std::optional<Interval>& range,
                           uint64_t* live_epoch = nullptr);

  /// Routes live directories through `registry` (not owned; may be null
  /// to disable live serving). Set once before serving starts.
  void set_live_graphs(ingest::LiveGraphRegistry* registry) {
    live_graphs_ = registry;
  }

  /// Drops cached materializations of `dir` at live epochs other than
  /// `current_epoch` — the server's epoch listener calls this after each
  /// ingest publication so superseded snapshots release their memory as
  /// soon as in-flight readers finish.
  void PruneLiveEpochs(const std::string& dir, uint64_t current_epoch);

  /// Forgets `dir`: its shared reader and every cached graph loaded from
  /// it. In-flight loads finish on what they opened but are not cached.
  /// The server calls this after a STORE into `dir`.
  void Evict(const std::string& dir);

  /// Number of Evict calls so far. The server compares it before and
  /// after a query to avoid caching a result computed from an evicted
  /// graph.
  uint64_t evictions() const;

  /// Drops every cached graph (tests; not exposed over the protocol).
  void Clear();

  size_t size() const;

 private:
  struct Slot {
    bool loading = true;
    Status error;        ///< Set when loading finished unsuccessfully.
    std::optional<TGraph> graph;
  };

  dataflow::ExecutionContext* ctx_;
  ingest::LiveGraphRegistry* live_graphs_ = nullptr;

  /// The shared mmap reader for `dir`, opened on first use. Never opened
  /// twice: racing openers reconcile through the map.
  Result<std::shared_ptr<storage::StoreReader>> GetOrOpenStore(
      const std::string& dir);

  /// The snapshot's graph, range-clipped the same way the static loaders
  /// clip (rows intersected with range ∩ lifetime, empties dropped). A
  /// ranged load clips the folded state without merging it.
  Result<VeGraph> LoadLiveSnapshot(
      const std::shared_ptr<const ingest::LiveSnapshot>& snap,
      const std::optional<Interval>& range);

  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  std::map<std::string, std::shared_ptr<Slot>> slots_;
  std::map<std::string, std::shared_ptr<storage::StoreReader>> stores_;
  uint64_t evictions_ = 0;
};

}  // namespace tgraph::server

#endif  // TGRAPH_SERVER_CATALOG_H_
