#include "ingest/live_graph.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>

#include "common/file_io.h"
#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/graph_io.h"
#include "storage/store_reader.h"

namespace tgraph::ingest {

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status MkDirs(const std::string& dir) {
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    size_t slash = dir.find('/', pos);
    if (slash == std::string::npos) slash = dir.size();
    partial = dir.substr(0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("mkdir '" + partial +
                             "': " + std::strerror(errno));
    }
  }
  return Status::OK();
}

std::string Trim(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.erase(s.begin());
  }
  return s;
}

/// Names of the entries in `dir`, sorted.
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  while (struct dirent* entry = ::readdir(d)) names.emplace_back(entry->d_name);
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

bool IsGenFile(const std::string& name) {
  return name.size() == 14 && name.rfind("gen-", 0) == 0 &&
         name.substr(10) == ".tgs" &&
         std::all_of(name.begin() + 4, name.begin() + 10,
                     [](char c) { return c >= '0' && c <= '9'; });
}

/// Generation filenames in `dir` matching gen-NNNNNN.tgs, sorted (name
/// order == generation order thanks to the fixed-width counter).
std::vector<std::string> ListGenFiles(const std::string& dir) {
  std::vector<std::string> gens;
  for (std::string& name : ListDir(dir)) {
    if (IsGenFile(name)) gens.push_back(std::move(name));
  }
  return gens;
}

Result<int64_t> ParseMetaInt(const storage::StoreReader& reader,
                             const char* key) {
  const std::string* value = reader.FindMetadata(key);
  if (value == nullptr) {
    return Status::IoError(std::string("generation store is missing the '") +
                           key + "' metadata entry");
  }
  int64_t parsed = 0;
  auto [ptr, ec] =
      std::from_chars(value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc() || ptr != value->data() + value->size()) {
    return Status::IoError(std::string("bad '") + key + "' metadata: '" +
                           *value + "'");
  }
  return parsed;
}

/// Whether a folded edge is alive: its last state runs to the horizon.
bool Alive(const History& states, TimePoint horizon) {
  return !states.empty() && states.back().interval.end == horizon;
}

}  // namespace

bool IsLiveDir(const std::string& dir) {
  return FileExists(dir + "/" + kCurrentFileName) ||
         FileExists(dir + "/" + kWalFileName);
}

std::string WalPathFor(const std::string& path, const std::string& wal_dir) {
  const std::string dir = NormalPath(path);
  if (wal_dir.empty()) return dir + "/" + kWalFileName;
  size_t slash = dir.find_last_of('/');
  std::string base =
      slash == std::string::npos ? dir : dir.substr(slash + 1);
  if (base.empty()) base = "graph";
  char hash[17];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(HashBytes(dir)));
  return wal_dir + "/" + base + "-" + hash + ".wal";
}

// --- FoldedState -----------------------------------------------------------

FoldedState FoldedState::FromGraph(const VeGraph& graph, TimePoint horizon) {
  TGraphBuilder::Folded folded;
  for (const VeVertex& row : graph.vertices().Collect()) {
    folded.vertices[row.vid].push_back(
        HistoryItem{row.interval, row.properties});
  }
  for (const VeEdge& row : graph.edges().Collect()) {
    EdgeHistory& edge = folded.edges[row.eid];
    edge.src = row.src;
    edge.dst = row.dst;
    edge.states.push_back(HistoryItem{row.interval, row.properties});
  }
  auto by_start = [](const HistoryItem& a, const HistoryItem& b) {
    return a.interval.start < b.interval.start;
  };
  for (auto& [vid, states] : folded.vertices) {
    std::sort(states.begin(), states.end(), by_start);
  }
  for (auto& [eid, edge] : folded.edges) {
    std::sort(edge.states.begin(), edge.states.end(), by_start);
  }
  return FoldedState().Replace(std::move(folded), horizon);
}

Result<FoldedState> FoldedState::Apply(dataflow::ExecutionContext* ctx,
                                       const std::vector<Event>& events,
                                       TimePoint horizon) const {
  std::set<VertexId> vids;
  std::set<EdgeId> eids;
  for (const Event& event : events) {
    if (event.is_vertex()) {
      vids.insert(event.id);
      if (event.kind != EventKind::kRemoveVertex) continue;
      // The removal ends the vertex's alive edges without naming them.
      alive_edges_.ForEachFrom(
          Incidence{event.id, std::numeric_limits<EdgeId>::min()},
          [&](const Incidence& incidence, std::monostate) {
            if (incidence.first != event.id) return false;
            eids.insert(incidence.second);
            return true;
          });
    } else {
      eids.insert(event.id);
      if (event.kind == EventKind::kAddEdge) {
        vids.insert(event.src);
        vids.insert(event.dst);
      }
    }
  }
  // Edge replay consults both endpoints' presence.
  for (EdgeId eid : eids) {
    if (const auto* edge = edges_.Find(eid)) {
      vids.insert((*edge)->src);
      vids.insert((*edge)->dst);
    }
  }

  TGraphBuilder builder(ctx);
  for (VertexId vid : vids) {
    if (const auto* states = vertices_.Find(vid)) {
      builder.SeedVertex(vid, **states);
    }
  }
  for (EdgeId eid : eids) {
    if (const auto* edge = edges_.Find(eid)) {
      builder.SeedEdge(eid, (*edge)->src, (*edge)->dst, (*edge)->states);
    }
  }
  for (const Event& event : events) ApplyEventToBuilder(event, &builder);
  TG_ASSIGN_OR_RETURN(TGraphBuilder::Folded folded, builder.Fold(horizon));
  return Replace(std::move(folded), horizon);
}

FoldedState FoldedState::Replace(TGraphBuilder::Folded folded,
                                 TimePoint horizon) const {
  FoldedState next;
  next.vertex_rows_ = vertex_rows_;
  next.edge_rows_ = edge_rows_;
  next.min_start_ = min_start_;
  next.max_closed_end_ = max_closed_end_;
  next.open_entities_ = open_entities_;
  // Widens the lifetime bookkeeping by `states` (replacing `before`).
  auto account = [&next, horizon](const History* before,
                                  const History& states) {
    if (before != nullptr && Alive(*before, horizon)) --next.open_entities_;
    if (Alive(states, horizon)) ++next.open_entities_;
    for (const HistoryItem& item : states) {
      next.min_start_ = std::min(next.min_start_, item.interval.start);
      if (item.interval.end != horizon) {
        next.max_closed_end_ =
            std::max(next.max_closed_end_, item.interval.end);
      }
    }
  };
  std::vector<decltype(vertices_)::Update> vertex_updates;
  for (auto& [vid, states] : folded.vertices) {
    const auto* before = vertices_.Find(vid);
    if (before != nullptr) next.vertex_rows_ -= (*before)->size();
    account(before != nullptr ? before->get() : nullptr, states);
    next.vertex_rows_ += states.size();
    vertex_updates.emplace_back(
        vid, std::make_shared<const History>(std::move(states)));
  }
  std::vector<decltype(edges_)::Update> edge_updates;
  std::vector<decltype(alive_edges_)::Update> alive;
  for (auto& [eid, edge] : folded.edges) {
    bool was_alive = false;
    const auto* before = edges_.Find(eid);
    if (before != nullptr) {
      next.edge_rows_ -= (*before)->states.size();
      was_alive = Alive((*before)->states, horizon);
    }
    account(before != nullptr ? &(*before)->states : nullptr, edge.states);
    next.edge_rows_ += edge.states.size();
    const bool alive_now = Alive(edge.states, horizon);
    if (alive_now != was_alive) {
      std::optional<std::monostate> mark;
      if (alive_now) mark.emplace();
      alive.emplace_back(Incidence{edge.src, eid}, mark);
      alive.emplace_back(Incidence{edge.dst, eid}, mark);
    }
    edge_updates.emplace_back(
        eid, std::make_shared<const EdgeHistory>(std::move(edge)));
  }
  // A self-loop marks the same (endpoint, edge) pair twice.
  std::sort(alive.begin(), alive.end());
  alive.erase(std::unique(alive.begin(), alive.end()), alive.end());
  next.vertices_ = vertices_.With(std::move(vertex_updates));
  next.edges_ = edges_.With(std::move(edge_updates));
  next.alive_edges_ = alive_edges_.With(std::move(alive));
  return next;
}

VeGraph FoldedState::Materialize(dataflow::ExecutionContext* ctx) const {
  std::vector<VeVertex> vertices;
  vertices.reserve(vertex_rows_);
  vertices_.ForEach([&](VertexId vid, const auto& states) {
    for (const HistoryItem& item : *states) {
      vertices.push_back(VeVertex{vid, item.interval, item.properties});
    }
  });
  std::vector<VeEdge> edges;
  edges.reserve(edge_rows_);
  edges_.ForEach([&](EdgeId eid, const auto& edge) {
    for (const HistoryItem& item : edge->states) {
      edges.push_back(
          VeEdge{eid, edge->src, edge->dst, item.interval, item.properties});
    }
  });
  return VeGraph::Create(ctx, std::move(vertices), std::move(edges),
                         std::nullopt);
}

VeGraph FoldedState::Slice(dataflow::ExecutionContext* ctx, Interval range,
                           TimePoint horizon) const {
  // Each chunk clips into its own vector; joining them in chunk order
  // keeps Materialize()'s row order. A task takes a run of chunks, so the
  // pool sees a few tasks rather than one per chunk.
  const size_t vertex_chunks = vertices_.chunk_count();
  const size_t chunks = vertex_chunks + edges_.chunk_count();
  std::vector<std::vector<VeVertex>> vertex_parts(vertex_chunks);
  std::vector<std::vector<VeEdge>> edge_parts(chunks - vertex_chunks);
  auto clip = [&](size_t c) {
    if (c < vertex_chunks) {
      vertices_.ForEachInChunk(c, [&](VertexId vid, const auto& states) {
        for (const HistoryItem& item : *states) {
          const Interval clipped = item.interval.Intersect(range);
          if (clipped.empty()) continue;
          vertex_parts[c].push_back(VeVertex{vid, clipped, item.properties});
        }
      });
      return;
    }
    std::vector<VeEdge>& out = edge_parts[c - vertex_chunks];
    edges_.ForEachInChunk(c - vertex_chunks, [&](EdgeId eid,
                                                 const auto& edge) {
      for (const HistoryItem& item : edge->states) {
        const Interval clipped = item.interval.Intersect(range);
        if (clipped.empty()) continue;
        out.push_back(
            VeEdge{eid, edge->src, edge->dst, clipped, item.properties});
      }
    });
  };
  const size_t tasks = std::min<size_t>(
      chunks, static_cast<size_t>(std::max(1, ctx->default_parallelism())));
  ctx->ParallelFor(tasks, [&](size_t t) {
    for (size_t c = t * chunks / tasks; c < (t + 1) * chunks / tasks; ++c) {
      clip(c);
    }
  });
  auto join = [](auto& parts) {
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    std::remove_reference_t<decltype(parts.front())> rows;
    rows.reserve(total);
    for (auto& part : parts) {
      rows.insert(rows.end(), std::make_move_iterator(part.begin()),
                  std::make_move_iterator(part.end()));
    }
    return rows;
  };
  return VeGraph::Create(ctx, join(vertex_parts), join(edge_parts),
                         Lifetime(horizon).Intersect(range));
}

Interval FoldedState::Lifetime(TimePoint horizon) const {
  if (vertex_rows_ + edge_rows_ == 0) return Interval();
  return Interval(min_start_,
                  open_entities_ > 0 ? horizon : max_closed_end_);
}

// --- LiveSnapshot ----------------------------------------------------------

uint64_t LiveSnapshot::last_seq() const {
  return delta_->empty() ? base_->last_seq : delta_->last_seq();
}

TimePoint LiveSnapshot::watermark() const {
  return std::max(base_->watermark, delta_->max_event_time());
}

Result<const VeGraph*> LiveSnapshot::Graph() const {
  std::call_once(materialized_->once, [this] {
    obs::Span span("ingest.merge", "ingest");
    materialized_->graph = state_->Materialize(ctx_);
  });
  return &*materialized_->graph;
}

VeGraph LiveSnapshot::Slice(Interval range) const {
  obs::Span span("ingest.slice", "ingest");
  return state_->Slice(ctx_, range, horizon_);
}

// --- LiveGraph -------------------------------------------------------------

std::string LiveGraph::CurrentPath() const {
  return dir_ + "/" + kCurrentFileName;
}

std::string LiveGraph::GenPath(uint64_t generation) const {
  char name[32];
  std::snprintf(name, sizeof(name), "gen-%06llu.tgs",
                static_cast<unsigned long long>(generation));
  return dir_ + "/" + name;
}

Status LiveGraph::LoadBase(const std::string& gen_file, BaseState* base,
                           FoldedState* state) {
  if (gen_file == "none") return Status::OK();
  const std::string path = dir_ + "/" + gen_file;
  TG_ASSIGN_OR_RETURN(std::unique_ptr<storage::StoreReader> reader,
                      storage::StoreReader::Open(path));
  TG_ASSIGN_OR_RETURN(int64_t last_seq,
                      ParseMetaInt(*reader, kMetaIngestLastSeq));
  TG_ASSIGN_OR_RETURN(int64_t watermark,
                      ParseMetaInt(*reader, kMetaIngestWatermark));
  TG_ASSIGN_OR_RETURN(int64_t horizon,
                      ParseMetaInt(*reader, kMetaIngestHorizon));
  TG_ASSIGN_OR_RETURN(int64_t generation,
                      ParseMetaInt(*reader, kMetaIngestGeneration));
  TG_ASSIGN_OR_RETURN(VeGraph graph,
                      storage::LoadVeGraphFromStore(ctx_, *reader));
  horizon_ = horizon;
  base->last_seq = static_cast<uint64_t>(last_seq);
  base->watermark = watermark;
  base->generation = static_cast<uint64_t>(generation);
  *state = FoldedState::FromGraph(graph, horizon);
  return Status::OK();
}

Result<std::unique_ptr<LiveGraph>> LiveGraph::Open(
    dataflow::ExecutionContext* ctx, const std::string& dir,
    Options options) {
  TG_RETURN_IF_ERROR(MkDirs(dir));
  std::unique_ptr<LiveGraph> live(new LiveGraph(ctx, dir, std::move(options)));
  live->horizon_ = live->options_.horizon;

  // Resolve the base generation through the CURRENT pointer; fall back to
  // the newest generation on disk when the pointer is absent (a
  // hand-assembled directory — no crash window produces this state).
  std::string gen_file = "none";
  Result<std::string> current = ReadFile(live->CurrentPath());
  if (current.ok()) {
    gen_file = Trim(*std::move(current));
    if (gen_file.empty()) gen_file = "none";
  } else if (!current.status().IsNotFound()) {
    return current.status();
  } else {
    std::vector<std::string> gens = ListGenFiles(dir);
    if (!gens.empty()) gen_file = gens.back();
  }
  auto base = std::make_shared<BaseState>();
  FoldedState state;
  TG_RETURN_IF_ERROR(live->LoadBase(gen_file, base.get(), &state));

  // A generation not referenced by CURRENT is an orphan from a crash
  // between writing the file and swinging the pointer; its batches are
  // still in the WAL, so deleting it loses nothing. A `*.tmp` is a
  // WriteFileAtomic that crashed before its rename, so nothing names it.
  for (const std::string& name : ListDir(dir)) {
    const bool tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    if ((IsGenFile(name) && name != gen_file) || tmp) {
      ::unlink((dir + "/" + name).c_str());
    }
  }

  const std::string wal_path = live->options_.wal_path.empty()
                                   ? dir + "/" + kWalFileName
                                   : live->options_.wal_path;
  WalHeader create_header;
  create_header.horizon = live->horizon_;
  create_header.base_seq = base->last_seq;
  WalReplay replay;
  TG_ASSIGN_OR_RETURN(live->wal_,
                      Wal::Open(wal_path, create_header,
                                live->options_.sync, &replay));
  if (replay.header.base_seq > base->last_seq) {
    return Status::IoError(
        "WAL at '" + wal_path + "' starts after sequence " +
        std::to_string(replay.header.base_seq) +
        " but the base generation only covers up to " +
        std::to_string(base->last_seq) + ": acknowledged events are missing");
  }
  if (base->generation > 0 && replay.header.horizon != live->horizon_) {
    return Status::IoError(
        "WAL horizon " + std::to_string(replay.header.horizon) +
        " does not match the base generation's horizon " +
        std::to_string(live->horizon_));
  }
  live->horizon_ = replay.header.horizon;

  // Fold the WAL tail record by record, as Append did, skipping records
  // already folded into the base (left behind when a crash hit between
  // the CURRENT swap and the WAL rotation — replaying them would
  // double-apply acknowledged events).
  std::shared_ptr<const DeltaPartition> delta = DeltaPartition::Empty();
  uint64_t max_seq = base->last_seq;
  for (WalRecord& record : replay.records) {
    if (record.seq <= base->last_seq) continue;
    Result<FoldedState> folded =
        state.Apply(ctx, record.events, live->horizon_);
    if (!folded.ok()) {
      return Status::IoError("WAL record " + std::to_string(record.seq) +
                             " at '" + wal_path + "' does not apply: " +
                             folded.status().message());
    }
    state = *std::move(folded);
    max_seq = record.seq;
    delta = delta->Append(DeltaBatch{record.seq, std::move(record.events)});
  }
  live->next_seq_ = max_seq + 1;
  live->watermark_ = std::max(base->watermark, delta->max_event_time());

  {
    std::lock_guard<std::mutex> lock(live->mu_);
    live->Publish(std::move(base),
                  std::make_shared<const FoldedState>(std::move(state)),
                  std::move(delta), nullptr);
  }

  // Make sure the directory is recognizably live even when the WAL lives
  // elsewhere (--wal-dir) and nothing has been compacted yet.
  if (!FileExists(live->CurrentPath())) {
    TG_RETURN_IF_ERROR(
        WriteFileAtomic(live->CurrentPath(), gen_file + "\n"));
  }

  if (live->options_.delta_events_threshold > 0 ||
      live->options_.compact_interval_ms > 0) {
    live->compactor_ = std::thread([graph = live.get()] {
      graph->CompactorLoop();
    });
  }
  return live;
}

LiveGraph::~LiveGraph() { (void)Close(); }

std::shared_ptr<const LiveSnapshot> LiveGraph::snapshot() const {
  return snapshot_.load(std::memory_order_acquire);
}

uint64_t LiveGraph::Publish(
    std::shared_ptr<const BaseState> base,
    std::shared_ptr<const FoldedState> state,
    std::shared_ptr<const DeltaPartition> delta,
    std::shared_ptr<LiveSnapshot::Materialized> materialized) {
  static obs::Gauge* epoch_gauge =
      obs::MetricsRegistry::Global().GetGauge(obs::metric_names::kIngestEpoch);
  static obs::Gauge* delta_gauge = obs::MetricsRegistry::Global().GetGauge(
      obs::metric_names::kIngestDeltaEvents);

  ++epoch_;
  if (materialized == nullptr) {
    materialized = std::make_shared<LiveSnapshot::Materialized>();
  }
  auto snap = std::shared_ptr<const LiveSnapshot>(new LiveSnapshot(
      epoch_, horizon_, std::move(base), std::move(state), std::move(delta),
      std::move(materialized), ctx_));
  epoch_gauge->Set(static_cast<int64_t>(epoch_));
  delta_gauge->Set(static_cast<int64_t>(snap->delta_events()));
  snapshot_.store(snap, std::memory_order_release);
  return epoch_;
}

Result<uint64_t> LiveGraph::Append(const std::vector<Event>& events) {
  static obs::Counter* ingested = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kIngestEvents);
  static obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kIngestRejectedBatches);

  if (events.empty()) {
    return Status::InvalidArgument("empty ingest batch");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("live graph is closed");
  for (const Event& event : events) {
    if (event.at >= horizon_) {
      rejected->Increment();
      return Status::InvalidArgument(
          "event at " + std::to_string(event.at) +
          " is not before the horizon " + std::to_string(horizon_));
    }
    if (event.at <= watermark_) {
      rejected->Increment();
      return Status::InvalidArgument(
          "event at " + std::to_string(event.at) +
          " does not advance past the ingest watermark " +
          std::to_string(watermark_) +
          " (timestamps must strictly increase between batches)");
    }
    if (event.is_set() && event.props.size() != 1) {
      rejected->Increment();
      return Status::InvalidArgument(
          std::string(EventKindName(event.kind)) +
          " must carry exactly one property");
    }
  }
  std::shared_ptr<const LiveSnapshot> snap =
      snapshot_.load(std::memory_order_acquire);
  // Folding is the consistency check: an error rejects the batch before
  // it reaches the WAL.
  Result<FoldedState> folded = snap->state_->Apply(ctx_, events, horizon_);
  if (!folded.ok()) {
    rejected->Increment();
    return folded.status();
  }

  const uint64_t seq = next_seq_;
  TG_RETURN_IF_ERROR(wal_->Append(seq, events));  // the durability ack
  next_seq_ = seq + 1;
  for (const Event& event : events) {
    watermark_ = std::max(watermark_, event.at);
  }
  std::shared_ptr<const DeltaPartition> delta =
      snap->delta_->Append(DeltaBatch{seq, events});
  const size_t delta_events = delta->event_count();
  const uint64_t epoch =
      Publish(snap->base_,
              std::make_shared<const FoldedState>(*std::move(folded)),
              std::move(delta), nullptr);
  ingested->Add(static_cast<int64_t>(events.size()));
  if (options_.delta_events_threshold > 0 &&
      delta_events >= options_.delta_events_threshold) {
    compact_requested_ = true;
    compact_cv_.notify_all();
  }
  lock.unlock();
  if (options_.epoch_listener) options_.epoch_listener(dir_, epoch);
  return seq;
}

Status LiveGraph::Compact() {
  static obs::Counter* compactions = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kIngestCompactions);
  static obs::Histogram* duration =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kIngestCompactionMicros);

  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  std::shared_ptr<const LiveSnapshot> snap = snapshot();
  if (snap->delta_->empty()) return Status::OK();

  obs::Span span("ingest.compact", "ingest");
  const auto started = std::chrono::steady_clock::now();

  // Freeze: the snapshot's folded state becomes the new generation;
  // batches appended while it is written stay in the delta.
  const uint64_t frozen_last_seq = snap->delta_->last_seq();
  const uint64_t generation = snap->base_->generation + 1;
  const TimePoint watermark =
      std::max(snap->base_->watermark, snap->delta_->max_event_time());
  TG_ASSIGN_OR_RETURN(const VeGraph* merged, snap->Graph());

  // 1. Write the new generation and make it durable before any pointer
  //    names it.
  const std::string gen_path = GenPath(generation);
  const std::string gen_file =
      gen_path.substr(gen_path.find_last_of('/') + 1);
  std::vector<std::pair<std::string, std::string>> meta = {
      {kMetaIngestLastSeq, std::to_string(frozen_last_seq)},
      {kMetaIngestWatermark, std::to_string(watermark)},
      {kMetaIngestHorizon, std::to_string(horizon_)},
      {kMetaIngestGeneration, std::to_string(generation)},
  };
  TG_RETURN_IF_ERROR(
      storage::WriteVeStoreFile(*merged, gen_path, {}, meta));

  // 2. Swing CURRENT (temp + rename: readers of the directory see the old
  //    or the new generation, never a half-written pointer).
  TG_RETURN_IF_ERROR(WriteFileAtomic(CurrentPath(), gen_file + "\n"));

  auto base = std::make_shared<BaseState>();
  base->last_seq = frozen_last_seq;
  base->watermark = watermark;
  base->generation = generation;

  // 3. Publish the new base beside the current folded state (which the
  //    generation's content does not change) and truncate the WAL down to
  //    the unwritten suffix. A crash before the rotation replays the
  //    written records as duplicates, which recovery skips by sequence
  //    number.
  Status rotate_status;
  uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const LiveSnapshot> latest =
        snapshot_.load(std::memory_order_acquire);
    std::shared_ptr<const DeltaPartition> suffix =
        latest->delta_->Suffix(frozen_last_seq);
    std::vector<WalRecord> records;
    records.reserve(suffix->batches().size());
    for (const auto& batch : suffix->batches()) {
      records.push_back(WalRecord{batch->seq, batch->events});
    }
    WalHeader header;
    header.horizon = horizon_;
    header.base_seq = frozen_last_seq;
    rotate_status = wal_->Rotate(header, records);
    epoch = Publish(std::move(base), latest->state_, std::move(suffix),
                    latest->materialized_);
  }
  if (options_.epoch_listener) options_.epoch_listener(dir_, epoch);

  // 4. Drop superseded generations.
  for (const std::string& gen : ListGenFiles(dir_)) {
    if (gen != gen_file) ::unlink((dir_ + "/" + gen).c_str());
  }

  compactions->Increment();
  duration->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - started)
                       .count());
  return rotate_status;
}

void LiveGraph::CompactorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (options_.compact_interval_ms > 0) {
      compact_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.compact_interval_ms),
          [this] { return stop_ || compact_requested_; });
    } else {
      compact_cv_.wait(lock,
                       [this] { return stop_ || compact_requested_; });
    }
    if (stop_) return;
    const bool requested = compact_requested_;
    compact_requested_ = false;
    const bool due =
        requested ||
        (options_.compact_interval_ms > 0 &&
         !snapshot_.load(std::memory_order_acquire)->delta_->empty());
    if (!due) continue;
    lock.unlock();
    Status status = Compact();
    if (!status.ok()) {
      TG_LOG(WARN) << "compaction of " << dir_
                   << " failed: " << status.message();
    }
    lock.lock();
  }
}

Status LiveGraph::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::OK();
    closed_ = true;
    stop_ = true;
    compact_cv_.notify_all();
  }
  if (compactor_.joinable()) compactor_.join();
  std::lock_guard<std::mutex> lock(mu_);
  return wal_ == nullptr ? Status::OK() : wal_->Close();
}

// --- LiveGraphRegistry -----------------------------------------------------

void LiveGraphRegistry::set_options(LiveGraph::Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = std::move(options);
}

Result<LiveGraph*> LiveGraphRegistry::GetOrOpen(const std::string& path,
                                                TimePoint horizon_if_create) {
  const std::string dir = NormalPath(path);
  // Claim the open or wait for whoever holds it, as GraphCatalog does for
  // loads: the mutex is held for map bookkeeping only, never across
  // LiveGraph::Open, so the first open of a large graph (store load +
  // full WAL replay) does not block Find/GetOrOpen on other graphs.
  std::shared_ptr<OpenSlot> slot;
  LiveGraph::Options options;
  while (true) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = graphs_.find(dir);
    if (it != graphs_.end()) return it->second.get();
    auto opening = opening_.find(dir);
    if (opening == opening_.end()) {
      slot = std::make_shared<OpenSlot>();
      opening_[dir] = slot;
      options = options_;
      break;  // this thread owns the open
    }
    std::shared_ptr<OpenSlot> existing = opening->second;
    opened_cv_.wait(lock, [&] { return !existing->opening; });
    if (!existing->error.ok()) return existing->error;
    // Success: loop around and pick the graph up from graphs_.
  }

  if (horizon_if_create != 0) options.horizon = horizon_if_create;
  if (!options.wal_path.empty()) {
    // The registry-level option names a *directory* for WALs; each graph
    // gets its own file inside it.
    options.wal_path = WalPathFor(dir, options.wal_path);
  }
  Result<std::unique_ptr<LiveGraph>> graph =
      LiveGraph::Open(ctx_, dir, std::move(options));

  std::lock_guard<std::mutex> lock(mu_);
  slot->opening = false;
  opening_.erase(dir);
  if (!graph.ok()) {
    // No negative caching: the error wakes current waiters, and the next
    // GetOrOpen claims a fresh slot and retries.
    slot->error = graph.status();
    opened_cv_.notify_all();
    return graph.status();
  }
  LiveGraph* raw = graph->get();
  graphs_.emplace(dir, *std::move(graph));
  opened_cv_.notify_all();
  return raw;
}

LiveGraph* LiveGraphRegistry::Find(const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(NormalPath(dir));
  return it == graphs_.end() ? nullptr : it->second.get();
}

void LiveGraphRegistry::CloseAll() {
  std::map<std::string, std::unique_ptr<LiveGraph>> graphs;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Wait out in-flight opens: a graph finishing its open after the swap
    // below would land in the map with nobody left to close it.
    opened_cv_.wait(lock, [this] { return opening_.empty(); });
    graphs.swap(graphs_);
  }
  for (auto& [dir, graph] : graphs) {
    Status status = graph->Close();
    if (!status.ok()) {
      TG_LOG(WARN) << "closing live graph " << dir
                   << " failed: " << status.message();
    }
  }
}

}  // namespace tgraph::ingest
