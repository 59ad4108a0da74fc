#include "server/catalog.h"

#include "ingest/live_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/graph_io.h"
#include "storage/store_reader.h"
#include "tgraph/slice.h"

namespace tgraph::server {

Result<std::shared_ptr<storage::StoreReader>> GraphCatalog::GetOrOpenStore(
    const std::string& dir) {
  static obs::Gauge* mmap_stores = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kCatalogMmapStores);
  uint64_t evictions_seen = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = stores_.find(dir);
    if (it != stores_.end()) return it->second;
    evictions_seen = evictions_;
  }
  TG_ASSIGN_OR_RETURN(std::unique_ptr<storage::StoreReader> opened,
                      storage::StoreReader::Open(storage::StorePath(dir)));
  std::shared_ptr<storage::StoreReader> store = std::move(opened);
  std::lock_guard<std::mutex> lock(mu_);
  // An Evict during the open may have replaced the file under us: serve
  // this load from what it opened, but do not share the reader.
  if (evictions_ != evictions_seen) return store;
  auto [it, inserted] = stores_.emplace(dir, store);
  mmap_stores->Set(static_cast<int64_t>(stores_.size()));
  return it->second;  // a racing opener's reader wins; ours is dropped
}

Result<TGraph> GraphCatalog::GetOrLoad(const std::string& dir,
                                       const std::optional<Interval>& range,
                                       uint64_t* live_epoch) {
  static obs::Gauge* graphs = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kCatalogGraphs);

  // Live directories are served from the current ingest snapshot,
  // resolved exactly once per call: the epoch in the slot key pins this
  // load to that snapshot even as later appends publish new ones.
  std::shared_ptr<const ingest::LiveSnapshot> snap;
  if (live_graphs_ != nullptr &&
      (live_graphs_->Find(dir) != nullptr || ingest::IsLiveDir(dir))) {
    TG_ASSIGN_OR_RETURN(ingest::LiveGraph * live, live_graphs_->GetOrOpen(dir));
    snap = live->snapshot();
  }
  if (live_epoch != nullptr) {
    *live_epoch = snap == nullptr ? 0 : snap->epoch();
  }

  std::string key = dir;
  if (snap != nullptr) key += "|live@" + std::to_string(snap->epoch());
  if (range.has_value()) key += "|" + range->ToString();

  // Claim the load or wait for whoever holds it. A failed load erases its
  // slot before waking waiters, so looping re-examines a fresh map state:
  // either this thread claims the retry or it waits on someone else's.
  std::shared_ptr<Slot> slot;
  while (true) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      slot = std::make_shared<Slot>();
      slots_[key] = slot;
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
  // Serve off the directory's shared mmap reader. Sharing the reader
  // also shares its decoded-segment cache, so a v3 segment is decoded at
  // most once per directory no matter how many queries touch it.
  Result<VeGraph> loaded = [&]() -> Result<VeGraph> {
    if (snap != nullptr) return LoadLiveSnapshot(snap, range);
    TG_ASSIGN_OR_RETURN(std::shared_ptr<storage::StoreReader> store,
                        GetOrOpenStore(dir));
    return storage::LoadVeGraphFromStore(ctx_, *store, options);
  }();
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
    slot->error = loaded.status();
    // No negative caching: the next request retries. Erase by identity —
    // an epoch prune may have dropped this slot already and the key could
    // name a newer load.
    auto it = slots_.find(key);
    if (it != slots_.end() && it->second == slot) slots_.erase(it);
    loaded_cv_.notify_all();
    return loaded.status();
  }
  slot->graph = std::move(graph);
  graphs->Set(static_cast<int64_t>(slots_.size()));
  loaded_cv_.notify_all();
  return *slot->graph;
}

Result<VeGraph> GraphCatalog::LoadLiveSnapshot(
    const std::shared_ptr<const ingest::LiveSnapshot>& snap,
    const std::optional<Interval>& range) {
  TG_ASSIGN_OR_RETURN(const VeGraph* merged, snap->Graph());
  if (!range.has_value()) return *merged;
  // Mirror the static loaders' pushdown semantics: clip every state to
  // range ∩ lifetime and drop the ones that vanish. The clip runs per
  // partition and copies only the surviving rows, so a narrow window
  // never copies the whole history; collecting them detaches the result
  // from the snapshot's graph.
  VeGraph sliced = SliceVe(*merged, *range);
  return VeGraph::Create(ctx_, sliced.vertices().Collect(),
                         sliced.edges().Collect(), sliced.lifetime());
}

void GraphCatalog::PruneLiveEpochs(const std::string& dir,
                                   uint64_t current_epoch) {
  static obs::Gauge* graphs = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kCatalogGraphs);
  const std::string prefix = dir + "|live@";
  const std::string keep = prefix + std::to_string(current_epoch);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    const std::string& key = it->first;
    const bool of_dir = key.compare(0, prefix.size(), prefix) == 0;
    const bool of_current =
        key.compare(0, keep.size(), keep) == 0 &&
        (key.size() == keep.size() || key[keep.size()] == '|');
    if (of_dir && !of_current) {
      it = slots_.erase(it);  // in-flight readers keep their shared_ptr
    } else {
      ++it;
    }
  }
  graphs->Set(static_cast<int64_t>(slots_.size()));
}

void GraphCatalog::Evict(const std::string& dir) {
  static obs::Gauge* graphs = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kCatalogGraphs);
  static obs::Gauge* mmap_stores = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kCatalogMmapStores);
  std::lock_guard<std::mutex> lock(mu_);
  ++evictions_;
  stores_.erase(dir);
  // Slot keys are "<dir>" or "<dir>|<suffix>"; in-flight loaders keep
  // their shared_ptr<Slot>, so erasing never strands a waiter.
  for (auto it = slots_.begin(); it != slots_.end();) {
    const std::string& key = it->first;
    const bool of_dir = key.compare(0, dir.size(), dir) == 0 &&
                        (key.size() == dir.size() || key[dir.size()] == '|');
    it = of_dir ? slots_.erase(it) : std::next(it);
  }
  graphs->Set(static_cast<int64_t>(slots_.size()));
  mmap_stores->Set(static_cast<int64_t>(stores_.size()));
}

uint64_t GraphCatalog::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

void GraphCatalog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  stores_.clear();
}

size_t GraphCatalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace tgraph::server
