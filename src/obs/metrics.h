#ifndef TGRAPH_OBS_METRICS_H_
#define TGRAPH_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace tgraph::obs {

/// \brief A monotonically increasing counter (atomic, relaxed ordering —
/// counters are statistics, not synchronization).
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief A last-value-wins instantaneous measurement. Add supports
/// gauges maintained as running deltas by many writers (e.g. bytes held
/// by every open decoded-segment cache) where no single site knows the
/// absolute value to Set.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Point-in-time copy of a Histogram (see below).
struct HistogramSnapshot {
  static constexpr int kNumBuckets = 40;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  std::array<int64_t, kNumBuckets> buckets{};

  /// Upper bound (exclusive) of values recorded into bucket `index`.
  static int64_t BucketUpperBound(int index);

  /// Upper bound of the bucket containing the p-th percentile observation
  /// (p in [0, 1]); 0 when empty. Approximate by construction: resolution
  /// is one power-of-two bucket.
  int64_t ApproxPercentile(double p) const;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// e.g. "count=12 sum=480 min=1 max=128 mean=40.0 p50<=32 p99<=128".
  std::string ToString() const;
};

/// \brief A histogram with power-of-two buckets: bucket 0 holds values
/// <= 0, bucket i (i >= 1) holds values in [2^(i-1), 2^i). Suited to
/// partition sizes and record counts, whose skew spans orders of
/// magnitude. All operations are thread-safe and lock-free.
class Histogram {
 public:
  static constexpr int kNumBuckets = HistogramSnapshot::kNumBuckets;

  void Record(int64_t value);

  /// Index of the bucket `value` falls into.
  static int BucketIndex(int64_t value);

  HistogramSnapshot Snapshot() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// \brief Point-in-time copy of a whole registry, with per-run delta
/// support: `after.DeltaSince(before)` attributes metric movement to the
/// work executed in between, which is how benchmarks and the CLI report
/// per-phase (not per-process) numbers. A query's own work is read from
/// its QueryCounters block instead, which concurrent queries cannot
/// disturb.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;  ///< Kept as-is by DeltaSince.
  std::map<std::string, HistogramSnapshot> histograms;

  MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;

  /// One "name value" line per metric, sorted by name; histograms render
  /// via HistogramSnapshot::ToString. Zero-valued counters are omitted.
  std::string ToString() const;
};

/// \brief Process-global registry of named counters, gauges, and
/// histograms. Lookup takes a mutex; instrumentation sites cache the returned
/// pointer (which is stable for the process lifetime) in a function-local
/// static so the hot path is a single relaxed atomic add.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (names stay registered).
  void ResetAll();

  std::string ToString() const { return Snapshot().ToString(); }

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Canonical metric names, so producers and consumers agree.
namespace metric_names {
inline constexpr char kStages[] = "dataflow.stages";
inline constexpr char kTasks[] = "dataflow.tasks";
inline constexpr char kShuffles[] = "dataflow.shuffle.count";
inline constexpr char kShuffleRecords[] = "dataflow.shuffle.records";
inline constexpr char kShuffleBytes[] = "dataflow.shuffle.bytes";
/// Pre-rebalance partition sizes: what a plain hash shuffle produces (or
/// would have produced when the rebalancer fired) — the input skew.
inline constexpr char kShufflePartitionSize[] =
    "dataflow.shuffle.partition_size";
/// Post-rebalance partition sizes, recorded only when a shuffle actually
/// rebalanced; compare against kShufflePartitionSize for before/after.
inline constexpr char kShufflePartitionSizeRebalanced[] =
    "dataflow.shuffle.partition_size_rebalanced";
/// Shuffles in which skew rebalancing fired.
inline constexpr char kShuffleRebalanced[] = "dataflow.shuffle.rebalanced";
/// Hot keys detected across all rebalanced shuffles.
inline constexpr char kShuffleHotKeys[] = "dataflow.shuffle.hot_keys";
/// Dedicated sub-partitions created for hot keys.
inline constexpr char kShuffleSplits[] = "dataflow.shuffle.splits";
inline constexpr char kCoalesceOps[] = "tgraph.coalesce.ops";
inline constexpr char kCoalesceMergedItems[] = "tgraph.coalesce.merged_items";
inline constexpr char kPregelSupersteps[] = "pregel.supersteps";
inline constexpr char kPregelMessages[] = "pregel.messages";
inline constexpr char kOptimizerRulesFired[] = "pipeline.optimizer.rules_fired";
/// Per-operator executions recorded into an opt::Stats store.
inline constexpr char kOptimizerObservations[] =
    "pipeline.optimizer.observations";
/// Candidate plans priced by the cost-based enumerator.
inline constexpr char kOptimizerCandidates[] =
    "pipeline.optimizer.cost.candidates";
/// OptimizedWithCost calls that picked a priced plan.
inline constexpr char kOptimizerCostPlans[] = "pipeline.optimizer.cost.plans";
/// OptimizedWithCost calls that fell back to the rule rewrites (no
/// observed statistics to price with).
inline constexpr char kOptimizerCostFallbacks[] =
    "pipeline.optimizer.cost.fallbacks";

// tgraph-store v2/v3 mmap readers: lazy-verification, selective decode,
// and pushdown surface. Exposed to Prometheus as tgraph_store_* (dots
// become underscores).
/// Segments checksum-verified on first touch (each counts once per open
/// reader; re-reads of a verified segment are free).
inline constexpr char kStoreSegmentVerifies[] = "store.segment_verifies";
/// Bytes of on-disk segment payload covered by those first-touch
/// verifies — a proxy for distinct mmap bytes actually faulted in.
inline constexpr char kStoreVerifiedBytes[] = "store.verified_bytes";
/// Store-table partitions skipped via zone-map pushdown vs decoded: the
/// observable form of the selective-decode claim (pruned partitions are
/// never decoded).
inline constexpr char kStorePartitionsPruned[] = "store.partitions_pruned";
inline constexpr char kStorePartitionsDecoded[] = "store.partitions_decoded";
/// v3 encoded segments decoded on first touch, and the plain bytes those
/// decodes produced.
inline constexpr char kStoreSegmentsDecoded[] = "store.segments_decoded";
inline constexpr char kStoreDecodedBytes[] = "store.decoded_bytes";
/// Decoded-segment cache: bytes currently pinned across all open readers
/// (gauge) and reads served from an already-decoded buffer. Decoded
/// segments live as long as their reader (no eviction).
inline constexpr char kStoreDecodeCacheBytes[] =
    "store.decode_cache.bytes";  // gauge
inline constexpr char kStoreDecodeCacheHits[] = "store.decode_cache.hits";

// tgraphd serving surface.
inline constexpr char kServerRequests[] = "server.requests";
inline constexpr char kServerErrors[] = "server.errors";
inline constexpr char kServerRejected[] = "server.rejected";
inline constexpr char kServerDeadlineExceeded[] = "server.deadline_exceeded";
inline constexpr char kServerConnections[] = "server.connections";
inline constexpr char kServerQueueDepth[] = "server.queue.depth";  // gauge
inline constexpr char kServerRequestMicros[] =
    "server.request_micros";  // histogram
// Per-verb request latency histograms (tgraphd).
inline constexpr char kVerbQueryMicros[] = "server.verb.query_micros";
inline constexpr char kVerbStatsMicros[] = "server.verb.stats_micros";
inline constexpr char kVerbPingMicros[] = "server.verb.ping_micros";
inline constexpr char kVerbMetricsMicros[] = "server.verb.metrics_micros";
inline constexpr char kVerbIngestMicros[] = "server.verb.ingest_micros";
// Per-cache-state kQuery latency histograms: served from the result
// cache, executed after a cache miss, or executed with caching out of
// the picture (uncacheable script, cache disabled, or kFlagNoCache).
inline constexpr char kQueryCacheHitMicros[] =
    "server.query.cache_hit_micros";
inline constexpr char kQueryCacheMissMicros[] =
    "server.query.cache_miss_micros";
inline constexpr char kQueryUncachedMicros[] = "server.query.uncached_micros";
/// kQuery requests, trace-sampled kQuery requests, and slow-logged ones.
inline constexpr char kQueryCount[] = "server.query.count";
inline constexpr char kQuerySampled[] = "server.query.sampled";
inline constexpr char kQuerySlow[] = "server.query.slow";
inline constexpr char kCacheHits[] = "server.cache.hits";
inline constexpr char kCacheMisses[] = "server.cache.misses";
inline constexpr char kCacheEvictions[] = "server.cache.evictions";
inline constexpr char kCacheBytes[] = "server.cache.bytes";      // gauge
inline constexpr char kCacheEntries[] = "server.cache.entries";  // gauge
inline constexpr char kCatalogLoads[] = "server.catalog.loads";
inline constexpr char kCatalogHits[] = "server.catalog.hits";
inline constexpr char kCatalogGraphs[] = "server.catalog.graphs";  // gauge
/// Directories served off a shared mmap'd tgraph-store v2 reader.
inline constexpr char kCatalogMmapStores[] =
    "server.catalog.mmap_stores";  // gauge

// Streaming ingest (src/ingest): WAL, delta partition, compaction.
/// Events accepted into a live graph (acknowledged, i.e. WAL-durable).
inline constexpr char kIngestEvents[] = "ingest.events";
/// Batches rejected by validation before touching the WAL or delta.
inline constexpr char kIngestRejectedBatches[] = "ingest.rejected_batches";
/// WAL record appends and payload+frame bytes written.
inline constexpr char kIngestWalAppends[] = "ingest.wal.appends";
inline constexpr char kIngestWalBytes[] = "ingest.wal.bytes";
/// Acknowledged records replayed from an existing WAL at open.
inline constexpr char kIngestWalReplayedRecords[] =
    "ingest.wal.replayed_records";
/// Events currently buffered in the mutable delta partition.
inline constexpr char kIngestDeltaEvents[] = "ingest.delta.events";  // gauge
/// Snapshot epoch of the most recently published live-graph snapshot.
inline constexpr char kIngestEpoch[] = "ingest.epoch";  // gauge
/// Completed delta-into-base compactions and their duration.
inline constexpr char kIngestCompactions[] = "ingest.compactions";
inline constexpr char kIngestCompactionMicros[] =
    "ingest.compaction_micros";  // histogram

// Materialized zoom views (src/views).
/// Registered views right now.
inline constexpr char kViewCount[] = "view.count";  // gauge
/// View snapshots published (incremental applies + full rebuilds +
/// unchanged-value republishes).
inline constexpr char kViewRefreshes[] = "view.refreshes";
/// Deltas applied incrementally (by counting or by cut-and-splice, no
/// recompute of the whole view).
inline constexpr char kViewAppliedDeltas[] = "view.applied_deltas";
/// The applied deltas of view.applied_deltas that counting applied
/// (per-group totals; no pipeline run over the suffix).
inline constexpr char kViewCountedDeltas[] = "view.counted_deltas";
/// Full recomputes: first builds plus fallbacks (PlanDelta rejections
/// and incremental-apply errors).
inline constexpr char kViewFullRebuilds[] = "view.full_rebuilds";
/// Wall time of one view refresh (either path).
inline constexpr char kViewApplyMicros[] = "view.apply_micros";  // histogram
/// Lag between an ingest epoch publication and the refreshed view
/// snapshot that reflects it becoming visible to readers.
inline constexpr char kViewStalenessMicros[] =
    "view.staleness_micros";  // histogram
/// VIEW statements and kView requests served.
inline constexpr char kViewQueries[] = "view.queries";
/// Per-verb request latency for the kView protocol verb (tgraphd).
inline constexpr char kVerbViewMicros[] = "server.verb.view_micros";
}  // namespace metric_names

/// \brief The counters attributed to the query that caused them — the
/// work EXPLAIN ANALYZE reports per stage. Each has a process-global twin
/// in the registry (QueryCounterName); AddQueryCounter (obs/trace.h)
/// bumps both with one call.
enum class QueryCounter {  // indexes kQueryCounterNames
  kShuffles,
  kShuffleRecords,
  kShuffleBytes,
  kShufflesRebalanced,
  kShuffleHotKeys,
  kStorePartitionsPruned,
  kStorePartitionsDecoded,
  kStoreSegmentVerifies,
  kStoreVerifiedBytes,
  kCatalogHits,
  kCatalogLoads,
};

/// Registry names of the process-global twins, in enum order.
inline constexpr const char* kQueryCounterNames[] = {
    metric_names::kShuffles,
    metric_names::kShuffleRecords,
    metric_names::kShuffleBytes,
    metric_names::kShuffleRebalanced,
    metric_names::kShuffleHotKeys,
    metric_names::kStorePartitionsPruned,
    metric_names::kStorePartitionsDecoded,
    metric_names::kStoreSegmentVerifies,
    metric_names::kStoreVerifiedBytes,
    metric_names::kCatalogHits,
    metric_names::kCatalogLoads,
};
inline constexpr size_t kNumQueryCounters = std::size(kQueryCounterNames);

inline const char* QueryCounterName(QueryCounter counter) {
  return kQueryCounterNames[static_cast<size_t>(counter)];
}

/// \brief Plain values of a query counter block: a snapshot, or the
/// difference of two.
struct QueryCounterValues {
  std::array<int64_t, kNumQueryCounters> values{};

  int64_t operator[](QueryCounter counter) const {
    return values[static_cast<size_t>(counter)];
  }
  QueryCounterValues operator-(const QueryCounterValues& base) const;
};

/// \brief One query's counter block. Installed through the thread's
/// QueryContext (obs/trace.h), which ParallelFor carries into pool
/// threads, so every task of a query adds to the same block. Thread-safe.
class QueryCounters {
 public:
  void Add(QueryCounter counter, int64_t delta) {
    values_[static_cast<size_t>(counter)].fetch_add(delta,
                                                    std::memory_order_relaxed);
  }
  QueryCounterValues Snapshot() const;

 private:
  std::array<std::atomic<int64_t>, kNumQueryCounters> values_{};
};

}  // namespace tgraph::obs

#endif  // TGRAPH_OBS_METRICS_H_
