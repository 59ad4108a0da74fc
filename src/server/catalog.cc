#include "server/catalog.h"

#include "common/file_io.h"
#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/graph_io.h"
#include "storage/store_reader.h"

namespace tgraph::server {

namespace {

std::string LiveVersion(uint64_t epoch) {
  std::string version = "e";
  return version += std::to_string(epoch);
}

}  // namespace

Result<std::shared_ptr<const ingest::LiveSnapshot>>
GraphCatalog::LiveSnapshotOf(const std::string& dir) {
  if (live_graphs_ == nullptr ||
      (live_graphs_->Find(dir) == nullptr && !ingest::IsLiveDir(dir))) {
    return std::shared_ptr<const ingest::LiveSnapshot>();
  }
  TG_ASSIGN_OR_RETURN(ingest::LiveGraph * live, live_graphs_->GetOrOpen(dir));
  return live->snapshot();
}

GraphCatalog::Dir& GraphCatalog::AtVersionLocked(const std::string& dir,
                                                 const std::string& version) {
  Dir& entry = dirs_[dir];
  if (entry.version != version) {
    // Waiters and loaders of the old version keep their shared_ptr<Slot>,
    // so replacing the entry never strands them.
    entry = Dir{version, nullptr, {}};
    PublishGaugesLocked();
  }
  return entry;
}

void GraphCatalog::PublishGaugesLocked() const {
  static obs::Gauge* graphs = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kCatalogGraphs);
  static obs::Gauge* mmap_stores = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kCatalogMmapStores);
  int64_t slots = 0;
  int64_t stores = 0;
  for (const auto& [dir, entry] : dirs_) {
    slots += static_cast<int64_t>(entry.slots.size());
    stores += entry.store != nullptr ? 1 : 0;
  }
  graphs->Set(slots);
  mmap_stores->Set(stores);
}

Result<std::string> GraphCatalog::CurrentVersion(const std::string& path) {
  const std::string dir = NormalPath(path);
  TG_ASSIGN_OR_RETURN(std::shared_ptr<const ingest::LiveSnapshot> snap,
                      LiveSnapshotOf(dir));
  std::string version;
  if (snap != nullptr) {
    version = LiveVersion(snap->epoch());
  } else {
    TG_ASSIGN_OR_RETURN(version, StatIdentity(storage::StorePath(dir)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) != 0) AtVersionLocked(dir, version);
  return version;
}

Result<std::shared_ptr<storage::StoreReader>> GraphCatalog::OpenStore(
    const std::string& dir, std::string* version) {
  TG_ASSIGN_OR_RETURN(std::string current,
                      StatIdentity(storage::StorePath(dir)));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dirs_.find(dir);
    if (it != dirs_.end() && it->second.store != nullptr &&
        it->second.store->identity() == current) {
      *version = current;
      return it->second.store;
    }
  }
  TG_ASSIGN_OR_RETURN(std::unique_ptr<storage::StoreReader> opened,
                      storage::StoreReader::Open(storage::StorePath(dir)));
  *version = opened->identity();
  std::lock_guard<std::mutex> lock(mu_);
  Dir& entry = AtVersionLocked(dir, *version);
  if (entry.store == nullptr) {
    entry.store = std::move(opened);
    PublishGaugesLocked();
  }
  return entry.store;  // a racing opener's reader wins; ours is dropped
}

Result<TGraph> GraphCatalog::GetOrLoad(const std::string& path,
                                       const std::optional<Interval>& range,
                                       std::string* version) {
  const std::string dir = NormalPath(path);
  // The version is resolved exactly once per call: for a live directory
  // the snapshot pins this load to one epoch even as later appends publish
  // new ones, and for a stored one the reader maps one file.
  TG_ASSIGN_OR_RETURN(std::shared_ptr<const ingest::LiveSnapshot> snap,
                      LiveSnapshotOf(dir));
  std::shared_ptr<storage::StoreReader> store;
  std::string served;
  if (snap != nullptr) {
    served = LiveVersion(snap->epoch());
  } else {
    TG_ASSIGN_OR_RETURN(store, OpenStore(dir, &served));
  }
  if (version != nullptr) *version = served;
  const std::string range_key = range.has_value() ? range->ToString() : "";

  // Claim the load or wait for whoever holds it. A failed load erases its
  // slot before waking waiters, so looping re-examines a fresh map state:
  // either this thread claims the retry or it waits on someone else's.
  std::shared_ptr<Slot> slot;
  while (true) {
    std::unique_lock<std::mutex> lock(mu_);
    Dir& entry = AtVersionLocked(dir, served);
    auto it = entry.slots.find(range_key);
    if (it == entry.slots.end()) {
      slot = std::make_shared<Slot>();
      entry.slots[range_key] = slot;
      break;  // this thread owns the load
    }
    std::shared_ptr<Slot> existing = it->second;
    loaded_cv_.wait(lock, [&] { return !existing->loading; });
    if (existing->graph.has_value()) {
      obs::AddQueryCounter(obs::QueryCounter::kCatalogHits, 1);
      return *existing->graph;
    }
  }

  obs::Span span("tgraphd.catalog.load", "server");
  obs::AddQueryCounter(obs::QueryCounter::kCatalogLoads, 1);
  storage::LoadOptions options;
  options.time_range = range;
  // Serve off the version's shared mmap reader. Sharing the reader also
  // shares its decoded-segment cache, so a v3 segment is decoded at most
  // once per file no matter how many queries touch it.
  Result<VeGraph> loaded =
      snap != nullptr ? LoadLiveSnapshot(snap, range)
                      : storage::LoadVeGraphFromStore(ctx_, *store, options);
  std::optional<TGraph> graph;
  if (loaded.ok()) {
    graph = TGraph::FromVe(*std::move(loaded), /*coalesced=*/true);
    // Materialize before publishing, so concurrent readers of the shared
    // handle start from computed partitions and the cost is attributed to
    // this load's span rather than the first unlucky query.
    graph->Materialize();
  }

  std::lock_guard<std::mutex> lock(mu_);
  slot->loading = false;
  if (!graph.has_value()) {
    // No negative caching: the next request retries. Erase by identity —
    // a newer version may have replaced the entry already.
    auto it = dirs_.find(dir);
    if (it != dirs_.end()) {
      auto found = it->second.slots.find(range_key);
      if (found != it->second.slots.end() && found->second == slot) {
        it->second.slots.erase(found);
      }
    }
    loaded_cv_.notify_all();
    return loaded.status();
  }
  slot->graph = std::move(graph);
  PublishGaugesLocked();
  loaded_cv_.notify_all();
  return *slot->graph;
}

Result<VeGraph> GraphCatalog::LoadLiveSnapshot(
    const std::shared_ptr<const ingest::LiveSnapshot>& snap,
    const std::optional<Interval>& range) {
  // Mirror the static loaders' pushdown semantics: clip every state to
  // range ∩ lifetime and drop the ones that vanish. The clip reads the
  // folded state chunk by chunk and copies only the surviving rows, so a
  // ranged read neither merges the whole snapshot nor copies the whole
  // history. Only unranged loads (and compaction) materialize the graph.
  if (range.has_value()) return snap->Slice(*range);
  TG_ASSIGN_OR_RETURN(const VeGraph* merged, snap->Graph());
  return *merged;
}

void GraphCatalog::PruneLiveEpochs(const std::string& path,
                                   uint64_t current_epoch) {
  const std::string dir = NormalPath(path);
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) != 0) AtVersionLocked(dir, LiveVersion(current_epoch));
}

size_t GraphCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t slots = 0;
  for (const auto& [dir, entry] : dirs_) slots += entry.slots.size();
  return slots;
}

}  // namespace tgraph::server
