#ifndef TGRAPH_INGEST_LIVE_GRAPH_H_
#define TGRAPH_INGEST_LIVE_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "common/cow_map.h"
#include "common/result.h"
#include "ingest/delta.h"
#include "ingest/event.h"
#include "ingest/wal.h"
#include "tgraph/builder.h"
#include "tgraph/ve.h"

namespace tgraph::ingest {

/// Default end-of-time for live graphs: every ingested event must be
/// strictly before the horizon, and still-alive entities are closed at it
/// when a snapshot materializes. 10^12 leaves room for microsecond
/// timestamps while staying printable.
inline constexpr TimePoint kDefaultHorizon = 1'000'000'000'000;

/// Name of the pointer file inside a live graph directory. It holds the
/// current base generation's filename (e.g. "gen-000003.tgs"), or the
/// literal "none" before the first compaction. Updated via write-to-temp +
/// rename, so it is always either the old or the new generation — never
/// half of each.
inline constexpr char kCurrentFileName[] = "CURRENT";

/// Default WAL filename inside a live graph directory ("wal", no
/// extension, mirroring the CURRENT pointer's bare name).
inline constexpr char kWalFileName[] = "wal";

// Footer metadata keys a compacted generation carries beyond the standard
// store keys, tying the generation back to the WAL (docs/FORMAT.md):
/// Last WAL sequence number folded into this generation.
inline constexpr char kMetaIngestLastSeq[] = "ingest_last_seq";
/// Largest event timestamp folded into this generation.
inline constexpr char kMetaIngestWatermark[] = "ingest_watermark";
/// The live graph's end of time.
inline constexpr char kMetaIngestHorizon[] = "ingest_horizon";
/// This generation's number (also in the filename, authoritative here).
inline constexpr char kMetaIngestGeneration[] = "ingest_generation";

/// Whether `dir` is a live (streaming-ingest) graph directory: it has a
/// CURRENT pointer or a WAL. The server catalog uses this to route loads
/// through the LiveGraphRegistry instead of the static store loaders.
bool IsLiveDir(const std::string& dir);

/// The WAL path for live graph `dir`: `dir/wal` by default, or — when
/// `wal_dir` is non-empty (tgraphd --wal-dir, e.g. a faster device) —
/// `wal_dir/<basename>-<hash>.wal` of NormalPath(dir), the hash
/// disambiguating graphs whose directories share a basename.
std::string WalPathFor(const std::string& dir, const std::string& wal_dir);

/// \brief The newest compacted generation of a live graph: which prefix
/// of the WAL it holds.
struct BaseState {
  /// Last WAL sequence number folded into this generation (0 = none).
  uint64_t last_seq = 0;
  /// Largest event timestamp folded into this generation. Every later
  /// event must be strictly greater — the monotonicity that makes seeded
  /// replay equivalent to an offline rebuild.
  TimePoint watermark = std::numeric_limits<TimePoint>::min();
  uint64_t generation = 0;  ///< 0 before the first compaction.
};

/// \brief Every entity's coalesced history after the last acknowledged
/// batch: the output of one TGraphBuilder replay of the whole log, kept
/// per entity and shared copy-on-write between snapshots.
///
/// Apply() folds one batch by replaying only the entities it touches,
/// seeded from their folded histories. The builder guarantees that a
/// seeded replay judges and folds a log exactly as an unseeded one does,
/// so folding after every batch equals compacting after every batch,
/// which equals an offline rebuild of the full log.
class FoldedState {
 public:
  using EdgeHistory = TGraphBuilder::EdgeHistory;

  /// Seed form of a materialized graph (a loaded generation): each
  /// entity's rows become its history. `horizon` is the graph's end of
  /// time, at which alive entities' last states end.
  static FoldedState FromGraph(const VeGraph& graph, TimePoint horizon);

  /// The state after `events`, or the builder's InvalidArgument when the
  /// batch is inconsistent with the log so far (double add, remove of an
  /// absent entity, edge with an absent endpoint, ...). Replays the
  /// batch's entities, the endpoints of its edges, and every alive edge
  /// incident to a vertex it removes (the builder ends those
  /// implicitly); every other entity is shared with this state.
  Result<FoldedState> Apply(dataflow::ExecutionContext* ctx,
                            const std::vector<Event>& events,
                            TimePoint horizon) const;

  /// All states as a graph: vertices then edges, each in id order — the
  /// rows an offline TGraphBuilder::Finish over the full log returns.
  VeGraph Materialize(dataflow::ExecutionContext* ctx) const;

  /// SliceVe(Materialize(ctx), range) with its rows collected: the same
  /// rows in the same order, clipped chunk by chunk in parallel without
  /// materializing the whole state first.
  VeGraph Slice(dataflow::ExecutionContext* ctx, Interval range,
                TimePoint horizon) const;

  /// The lifetime Materialize() derives from its rows (an empty interval
  /// when there are none), kept up to date by every fold.
  Interval Lifetime(TimePoint horizon) const;

  /// (endpoint, edge id) of every edge whose last state is still open.
  using Incidence = std::pair<VertexId, EdgeId>;

  const CowMap<VertexId, std::shared_ptr<const History>>& vertices() const {
    return vertices_;
  }
  const CowMap<EdgeId, std::shared_ptr<const EdgeHistory>>& edges() const {
    return edges_;
  }
  const CowMap<Incidence, std::monostate>& alive_edges() const {
    return alive_edges_;
  }

 private:

  /// This state with the entities of `folded` replaced (or added).
  FoldedState Replace(TGraphBuilder::Folded folded, TimePoint horizon) const;

  CowMap<VertexId, std::shared_ptr<const History>> vertices_;
  CowMap<EdgeId, std::shared_ptr<const EdgeHistory>> edges_;
  CowMap<Incidence, std::monostate> alive_edges_;
  size_t vertex_rows_ = 0;
  size_t edge_rows_ = 0;
  // Lifetime bookkeeping. Folds never drop a state and only append states
  // after the watermark, so the earliest start and the latest end before
  // the horizon only move outward; an entity whose last state runs to the
  // horizon makes the horizon the end.
  TimePoint min_start_ = std::numeric_limits<TimePoint>::max();
  TimePoint max_closed_end_ = std::numeric_limits<TimePoint>::min();
  size_t open_entities_ = 0;
};

/// \brief A consistent, immutable view of a live graph at one publication
/// instant: the folded state, the base generation, and the delta of
/// batches not yet in a generation. Reads never wait for a writer —
/// grab the snapshot (one shared_ptr copy under a leaf mutex), then
/// everything reachable from it is frozen. Writers publish a *new*
/// snapshot for every acknowledged batch and every compaction; they never
/// mutate an old one, so a reader holding epoch N can never observe a
/// partial batch from epoch N+1.
class LiveSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  uint64_t generation() const { return base_->generation; }
  TimePoint horizon() const { return horizon_; }
  uint64_t last_seq() const;
  size_t delta_events() const { return delta_->event_count(); }

  /// Largest event timestamp folded into the base generation
  /// (TimePoint::min before the first compaction). Events at or before
  /// this are no longer individually addressable — they live only in the
  /// compacted generation — which is what forces a view that missed
  /// epochs past a compaction onto the full-recompute path.
  TimePoint base_watermark() const { return base_->watermark; }

  /// Largest event timestamp visible in this snapshot: the base
  /// watermark, advanced by any delta events (TimePoint::min for an empty
  /// graph). Append() admits only strictly larger timestamps, so between
  /// two snapshots the graph can differ only on times in
  /// (watermark_old, horizon) — the suffix property incremental view
  /// maintenance splices on.
  TimePoint watermark() const;

  /// The batches acknowledged since the base generation (never null; may
  /// be empty).
  const DeltaPartition& delta() const { return *delta_; }

  /// The folded state as a graph, materialized on first use and cached.
  /// Snapshots that share a folded state (a compaction republishes it)
  /// share the graph too. Concurrent callers synchronize on a once_flag;
  /// the result is immutable after that.
  Result<const VeGraph*> Graph() const;

  /// The rows of Graph() clipped to `range`, as SliceVe clips them, read
  /// straight off the folded state: a ranged read never materializes the
  /// whole graph.
  VeGraph Slice(Interval range) const;

  /// The folded state itself (never null). Snapshots that share a folded
  /// state return the same pointer.
  const std::shared_ptr<const FoldedState>& state() const { return state_; }

 private:
  friend class LiveGraph;
  /// The lazily materialized graph of one folded state.
  struct Materialized {
    std::once_flag once;
    std::optional<VeGraph> graph;
  };

  LiveSnapshot(uint64_t epoch, TimePoint horizon,
               std::shared_ptr<const BaseState> base,
               std::shared_ptr<const FoldedState> state,
               std::shared_ptr<const DeltaPartition> delta,
               std::shared_ptr<Materialized> materialized,
               dataflow::ExecutionContext* ctx)
      : epoch_(epoch),
        horizon_(horizon),
        base_(std::move(base)),
        state_(std::move(state)),
        delta_(std::move(delta)),
        materialized_(std::move(materialized)),
        ctx_(ctx) {}

  uint64_t epoch_ = 0;
  TimePoint horizon_ = kDefaultHorizon;
  std::shared_ptr<const BaseState> base_;
  std::shared_ptr<const FoldedState> state_;
  std::shared_ptr<const DeltaPartition> delta_;
  std::shared_ptr<Materialized> materialized_;
  dataflow::ExecutionContext* ctx_ = nullptr;
};

/// \brief One live (write-accepting) graph: WAL + delta partition + base
/// generation + folded state, with snapshot-isolated reads and LSM-style
/// compaction.
///
/// Writers call Append(); an OK return means the batch is WAL-durable
/// (fdatasync'd by default), folded into the state, and visible to every
/// snapshot taken from then on. A background compactor (or an explicit
/// Compact() call) freezes a snapshot, writes its folded state as a new
/// `gen-NNNNNN.tgs` tgraph-store generation, swaps the CURRENT pointer,
/// and truncates the WAL to the batches the generation does not hold.
/// Every crash window in that sequence recovers: replay skips records
/// already in the base generation (by sequence number), so duplicates are
/// harmless and acknowledged events are never lost.
class LiveGraph {
 public:
  struct Options {
    /// WAL location override; empty means `<dir>/wal`.
    std::string wal_path;
    /// End of time for a graph created by this open (an existing WAL's
    /// header wins over this value).
    TimePoint horizon = kDefaultHorizon;
    /// fdatasync every append before acknowledging (disable only in
    /// benchmarks that accept losing the tail on power failure).
    bool sync = true;
    /// Compact when the delta holds at least this many events (0 disables
    /// size-triggered compaction).
    size_t delta_events_threshold = 4096;
    /// Also compact on this cadence when the delta is non-empty (0
    /// disables time-triggered compaction).
    int64_t compact_interval_ms = 0;
    /// Invoked (outside internal locks) after each new snapshot
    /// publication — the server uses this to scope result-cache
    /// invalidation to the one graph that changed.
    std::function<void(const std::string& dir, uint64_t epoch)>
        epoch_listener;
  };

  /// Opens (creating if necessary) the live graph in `dir`: loads the
  /// CURRENT base generation, replays the WAL into the delta (skipping
  /// already-folded records), deletes orphaned generations, publishes the
  /// first snapshot, and starts the compactor thread if configured.
  static Result<std::unique_ptr<LiveGraph>> Open(
      dataflow::ExecutionContext* ctx, const std::string& dir,
      Options options);

  ~LiveGraph();
  LiveGraph(const LiveGraph&) = delete;
  LiveGraph& operator=(const LiveGraph&) = delete;

  /// Validates, logs, and publishes one batch; returns its WAL sequence
  /// number. InvalidArgument rejects the whole batch atomically (nothing
  /// logged, nothing visible) on: an empty batch, an event at or after
  /// the horizon, an event at or before the ingest watermark (timestamps
  /// must advance between batches), or a batch that is inconsistent with
  /// the current graph (double add, remove of an absent entity, edge with
  /// an absent endpoint, ...).
  Result<uint64_t> Append(const std::vector<Event>& events);

  /// The current snapshot (lock-free; callers keep the shared_ptr for as
  /// long as they read from it).
  std::shared_ptr<const LiveSnapshot> snapshot() const;

  /// Synchronously folds the current delta into a new base generation.
  /// No-op when the delta is empty.
  Status Compact();

  /// Stops the compactor and closes the WAL. Idempotent.
  Status Close();

  const std::string& dir() const { return dir_; }
  TimePoint horizon() const { return horizon_; }
  uint64_t epoch() const { return snapshot()->epoch(); }

 private:
  LiveGraph(dataflow::ExecutionContext* ctx, std::string dir,
            Options options)
      : ctx_(ctx), dir_(std::move(dir)), options_(std::move(options)) {}

  std::string CurrentPath() const;
  std::string GenPath(uint64_t generation) const;

  /// Loads generation `gen_file` (or an empty graph when "none"): its WAL
  /// position into `base`, its graph in folded form into `state`.
  Status LoadBase(const std::string& gen_file, BaseState* base,
                  FoldedState* state);

  /// Publishes a new snapshot (epoch+1). Requires mu_ held; returns the
  /// published epoch. Callers invoke the epoch listener after unlocking.
  /// `materialized` is shared when `state` is the previous snapshot's;
  /// null starts a fresh one.
  uint64_t Publish(std::shared_ptr<const BaseState> base,
                   std::shared_ptr<const FoldedState> state,
                   std::shared_ptr<const DeltaPartition> delta,
                   std::shared_ptr<LiveSnapshot::Materialized> materialized);

  void CompactorLoop();

  dataflow::ExecutionContext* ctx_;
  std::string dir_;
  Options options_;
  TimePoint horizon_ = kDefaultHorizon;

  /// Serializes writers (Append) and snapshot publication.
  mutable std::mutex mu_;
  /// Serializes compactions (taken before mu_; never the reverse).
  std::mutex compact_mu_;
  std::unique_ptr<Wal> wal_;              // guarded by mu_
  uint64_t next_seq_ = 1;                 // guarded by mu_
  TimePoint watermark_ = std::numeric_limits<TimePoint>::min();  // mu_
  /// Guards only the snapshot_ pointer; a leaf lock, held for a copy or
  /// an assignment. A mutex rather than std::atomic<std::shared_ptr>:
  /// libstdc++ 12's atomic load releases its internal lock bit relaxed,
  /// which ThreadSanitizer reports as a race with the next store.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const LiveSnapshot> snapshot_;  // guarded by snapshot_mu_
  uint64_t epoch_ = 0;                    // guarded by mu_

  std::thread compactor_;
  std::condition_variable compact_cv_;
  bool stop_ = false;           // guarded by mu_
  bool compact_requested_ = false;  // guarded by mu_
  bool closed_ = false;         // guarded by mu_
};

/// \brief Process-wide table of open live graphs, keyed by directory. The
/// server's catalog routes live directories here; `tgz ingest` (local
/// mode) opens a registry of its own.
///
/// Directories are keyed by their identity (StatDirIdentity: device and
/// inode), so every spelling of one directory — "d", "d/", "./d", its
/// absolute path, a path through a symlink — reaches one LiveGraph and one
/// WAL within a process. Nothing stops a second process from opening the
/// same directory.
class LiveGraphRegistry {
 public:
  explicit LiveGraphRegistry(dataflow::ExecutionContext* ctx) : ctx_(ctx) {}
  ~LiveGraphRegistry() { CloseAll(); }

  /// Default options applied to graphs opened after this call. Unlike a
  /// single LiveGraph's Options, `wal_path` here names a *directory*
  /// (tgraphd --wal-dir): each graph gets its own WalPathFor file in it.
  void set_options(LiveGraph::Options options);

  /// The open live graph for `dir`, opening (or creating) it on first use.
  /// `horizon_if_create` (when nonzero) overrides the default horizon for
  /// a graph created by this call; it is ignored for graphs that already
  /// exist on disk or in the registry — their horizon is authoritative.
  Result<LiveGraph*> GetOrOpen(const std::string& dir,
                               TimePoint horizon_if_create = 0);

  /// The already-open live graph for `dir`, or nullptr.
  LiveGraph* Find(const std::string& dir) const;

  /// Closes every open graph (stopping compactors, closing WALs).
  void CloseAll();

 private:
  /// One in-flight LiveGraph::Open per directory. The registry mutex only
  /// guards the maps; the open itself (base store load, full WAL replay,
  /// fsyncs) runs outside it, so opening one large graph never stalls
  /// lookups or opens of other graphs.
  struct OpenSlot {
    bool opening = true;
    Status error;  ///< Set when the open finished unsuccessfully.
  };

  dataflow::ExecutionContext* ctx_;
  mutable std::mutex mu_;
  std::condition_variable opened_cv_;
  LiveGraph::Options options_;
  std::map<std::string, std::unique_ptr<LiveGraph>> graphs_;
  std::map<std::string, std::shared_ptr<OpenSlot>> opening_;
};

}  // namespace tgraph::ingest

#endif  // TGRAPH_INGEST_LIVE_GRAPH_H_
