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
/// Every cached graph is keyed by the version of its directory that it
/// read, and every lookup compares that with the directory's current
/// version, so a rewrite by this process or any other is served from the
/// next LOAD on. The catalog keeps one version per directory: seeing a
/// new one drops the old one's graphs and reader. Each version of a
/// stored directory is served off a single memory-mapped StoreReader
/// shared by every ranged load of it: N concurrent time slices fault in
/// (and share) one set of page-cache pages instead of parsing N heap
/// copies of the file. Directories are keyed by NormalPath.
class GraphCatalog {
 public:
  explicit GraphCatalog(dataflow::ExecutionContext* ctx) : ctx_(ctx) {}

  GraphCatalog(const GraphCatalog&) = delete;
  GraphCatalog& operator=(const GraphCatalog&) = delete;

  /// Returns the shared graph for `dir` (optionally range-restricted via
  /// pushdown), loading it on first use of its current version. TGraph is
  /// a cheap shared handle, so the returned copy aliases the catalog's
  /// data.
  ///
  /// A *live* directory (streaming ingest; ingest::IsLiveDir) is served
  /// from its LiveGraph's current snapshot instead of the disk loaders.
  /// The snapshot is resolved once per call, so everything this call
  /// returns comes from that one epoch even while ingestion publishes
  /// newer ones. When `version` is non-null it receives the version this
  /// call actually served (see CurrentVersion) — the server keys cached
  /// query results by it, since a directory may change between a query's
  /// admission and its loads.
  Result<TGraph> GetOrLoad(const std::string& dir,
                           const std::optional<Interval>& range,
                           std::string* version = nullptr);

  /// The version a load of `dir` started now would read: "e<epoch>" of a
  /// live directory's snapshot, the FileIdentity of a stored directory's
  /// `graph.tgs` (one stat). Seeing a new version drops the cached graphs
  /// and reader of the old one.
  Result<std::string> CurrentVersion(const std::string& dir);

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

  size_t size() const;

 private:
  struct Slot {
    bool loading = true;
    std::optional<TGraph> graph;  ///< Unset when the load failed.
  };

  /// What the catalog holds of one directory: its graphs of one version.
  struct Dir {
    std::string version;
    /// A stored directory's reader, which maps the file of `version`.
    std::shared_ptr<storage::StoreReader> store;
    std::map<std::string, std::shared_ptr<Slot>> slots;  ///< "" = unranged
  };

  /// The snapshot to serve a live `dir` from; null for a stored one.
  Result<std::shared_ptr<const ingest::LiveSnapshot>> LiveSnapshotOf(
      const std::string& dir);

  /// The shared reader of `dir`'s current `graph.tgs`, opened when the one
  /// held maps another version. `version` receives the identity of the
  /// file the reader maps, so a rewrite racing the open never files one
  /// file's graphs under another's version.
  Result<std::shared_ptr<storage::StoreReader>> OpenStore(
      const std::string& dir, std::string* version);

  /// `dir`'s entry at `version`. An entry of another version is replaced:
  /// its graphs and reader are dropped, and in-flight loads of it finish
  /// on what they hold. Caller holds mu_.
  Dir& AtVersionLocked(const std::string& dir, const std::string& version);
  void PublishGaugesLocked() const;

  /// The snapshot's graph, range-clipped the same way the static loaders
  /// clip (rows intersected with range ∩ lifetime, empties dropped). A
  /// ranged load clips the folded state without merging it.
  Result<VeGraph> LoadLiveSnapshot(
      const std::shared_ptr<const ingest::LiveSnapshot>& snap,
      const std::optional<Interval>& range);

  dataflow::ExecutionContext* ctx_;
  ingest::LiveGraphRegistry* live_graphs_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable loaded_cv_;
  std::map<std::string, Dir> dirs_;
};

}  // namespace tgraph::server

#endif  // TGRAPH_SERVER_CATALOG_H_
