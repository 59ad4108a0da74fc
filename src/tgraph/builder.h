#ifndef TGRAPH_TGRAPH_BUILDER_H_
#define TGRAPH_TGRAPH_BUILDER_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "tgraph/ve.h"

namespace tgraph {

/// \brief Builds a valid, coalesced TGraph from a timestamped change log —
/// the ingestion path for applications that record *events* (user joined,
/// message sent, attribute edited) rather than validity intervals.
///
/// Events may be appended in any order; Finish() replays them in timestamp
/// order (ties resolve add < set < remove) and derives each entity's
/// states. Removing a vertex implicitly — and permanently — ends its
/// incident edges: the edge is dead from that moment even if the vertex
/// is later re-added, so a subsequent set or remove of the edge is a log
/// error (a fresh add while both endpoints are alive starts a new
/// lifetime). An edge can only be added while both endpoints are alive,
/// so the result always satisfies Definition 2.1.
///
/// Entities may appear and disappear repeatedly; every lifetime segment
/// starts from the properties given to that segment's Add event.
///
/// A builder can also be *seeded* with already-folded states (SeedVertex /
/// SeedEdge): the streaming ingest path seeds the entities a batch touches
/// with their folded histories and appends only the batch, and Fold()
/// extends the seeded states instead of replaying history from scratch.
/// Because the seeded continuation runs the exact replay loop an
/// unseeded build would, folding batch by batch is equivalent to an
/// offline rebuild over the full event log by construction.
class TGraphBuilder {
 public:
  explicit TGraphBuilder(dataflow::ExecutionContext* ctx) : ctx_(ctx) {}

  /// Vertex `vid` appears at `at` with `props` (must include type).
  TGraphBuilder& AddVertex(VertexId vid, TimePoint at, Properties props);
  /// Vertex `vid` disappears at `at`; incident edges end too.
  TGraphBuilder& RemoveVertex(VertexId vid, TimePoint at);
  /// Sets one property of a living vertex from `at` onward.
  TGraphBuilder& SetVertexProperty(VertexId vid, TimePoint at,
                                   const std::string& key, PropertyValue value);

  /// Edge `eid` from `src` to `dst` appears at `at`.
  TGraphBuilder& AddEdge(EdgeId eid, VertexId src, VertexId dst, TimePoint at,
                         Properties props);
  /// Edge `eid` disappears at `at`.
  TGraphBuilder& RemoveEdge(EdgeId eid, TimePoint at);
  /// Sets one property of a living edge from `at` onward.
  TGraphBuilder& SetEdgeProperty(EdgeId eid, TimePoint at,
                                 const std::string& key, PropertyValue value);

  /// Seeds vertex `vid` with already-folded `states` (sorted, coalesced —
  /// the output of a previous Finish() whose end_of_time equals this
  /// build's). A final state ending exactly at end_of_time is reopened:
  /// the entity is alive and later events extend or close it; any earlier
  /// final end means the entity is absent after its last state. Events
  /// appended for a seeded entity must not precede its seeded state
  /// boundaries (the ingest layer enforces this with a watermark).
  TGraphBuilder& SeedVertex(VertexId vid, History states);
  /// Seeds edge `eid` (endpoints `src` -> `dst`) with folded states, as
  /// SeedVertex. Add events for a seeded edge must agree on endpoints.
  TGraphBuilder& SeedEdge(EdgeId eid, VertexId src, VertexId dst,
                          History states);

  /// One edge's endpoints and folded states.
  struct EdgeHistory {
    VertexId src = 0;
    VertexId dst = 0;
    History states;
  };
  /// A replayed log, entity by entity in id order. Only entities with at
  /// least one state appear.
  struct Folded {
    std::map<VertexId, History> vertices;
    std::map<EdgeId, EdgeHistory> edges;
  };

  /// Replays the log exactly as Finish() does, with the same errors, but
  /// returns each entity's states instead of a graph. The states are
  /// seed-ready: a later builder seeded with them continues this replay.
  Result<Folded> Fold(TimePoint end_of_time);

  /// Replays the log and returns the graph: Fold(), flattened into rows in
  /// id order (vertices, then edges). Entities still alive are
  /// closed at `end_of_time` (which must be after every event). Fails with
  /// InvalidArgument on an inconsistent log: double add, remove/set on a
  /// dead entity (including an edge implicitly killed by an endpoint's
  /// earlier removal), an edge added while an endpoint is absent, an
  /// event at or after end_of_time, or an event before a seeded state
  /// boundary. These judgments depend only on the event log, never on
  /// when a compaction folded a prefix into seeds — seeded and unseeded
  /// replays of the same log accept and reject identically.
  Result<VeGraph> Finish(TimePoint end_of_time);

 private:
  enum class Op { kAdd = 0, kSet = 1, kRemove = 2 };

  struct Event {
    TimePoint at = 0;
    Op op = Op::kAdd;
    Properties props;        // kAdd payload
    std::string key;         // kSet payload
    PropertyValue value;     // kSet payload
    VertexId src = 0;        // edges only
    VertexId dst = 0;
  };

  // Replays one entity's events into states, continuing from `seed` (empty
  // for unseeded entities); appends (interval, props). `label` names the
  // entity in error messages.
  static Result<History> Replay(History seed, std::vector<Event> events,
                                TimePoint end, const std::string& label);

  dataflow::ExecutionContext* ctx_;
  std::map<VertexId, std::vector<Event>> vertex_events_;
  std::map<EdgeId, std::vector<Event>> edge_events_;
  std::map<VertexId, History> vertex_seeds_;
  std::map<EdgeId, EdgeHistory> edge_seeds_;
};

}  // namespace tgraph

#endif  // TGRAPH_TGRAPH_BUILDER_H_
