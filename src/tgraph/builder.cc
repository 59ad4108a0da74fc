#include "tgraph/builder.h"

#include <algorithm>

#include "tgraph/coalesce.h"

namespace tgraph {

using dataflow::Dataset;

namespace {

/// The union of a sorted history's lifetimes: property-change splits keep
/// items of one lifetime temporally adjacent, so merging adjacent (or
/// overlapping) intervals recovers the spans where the entity exists.
std::vector<Interval> PresenceUnion(const History& history) {
  std::vector<Interval> out;
  for (const HistoryItem& item : history) {
    if (!out.empty() && item.interval.start <= out.back().end) {
      out.back().end = std::max(out.back().end, item.interval.end);
    } else {
      out.push_back(item.interval);
    }
  }
  return out;
}

/// Intersection of two sorted, disjoint interval unions.
std::vector<Interval> IntersectUnions(const std::vector<Interval>& a,
                                      const std::vector<Interval>& b) {
  std::vector<Interval> out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const TimePoint start = std::max(a[i].start, b[j].start);
    const TimePoint end = std::min(a[i].end, b[j].end);
    if (start < end) out.push_back(Interval(start, end));
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

}  // namespace

TGraphBuilder& TGraphBuilder::AddVertex(VertexId vid, TimePoint at,
                                        Properties props) {
  Event event;
  event.at = at;
  event.op = Op::kAdd;
  event.props = std::move(props);
  vertex_events_[vid].push_back(std::move(event));
  return *this;
}

TGraphBuilder& TGraphBuilder::RemoveVertex(VertexId vid, TimePoint at) {
  Event event;
  event.at = at;
  event.op = Op::kRemove;
  vertex_events_[vid].push_back(std::move(event));
  return *this;
}

TGraphBuilder& TGraphBuilder::SetVertexProperty(VertexId vid, TimePoint at,
                                                const std::string& key,
                                                PropertyValue value) {
  Event event;
  event.at = at;
  event.op = Op::kSet;
  event.key = key;
  event.value = std::move(value);
  vertex_events_[vid].push_back(std::move(event));
  return *this;
}

TGraphBuilder& TGraphBuilder::AddEdge(EdgeId eid, VertexId src, VertexId dst,
                                      TimePoint at, Properties props) {
  Event event;
  event.at = at;
  event.op = Op::kAdd;
  event.props = std::move(props);
  event.src = src;
  event.dst = dst;
  edge_events_[eid].push_back(std::move(event));
  return *this;
}

TGraphBuilder& TGraphBuilder::RemoveEdge(EdgeId eid, TimePoint at) {
  Event event;
  event.at = at;
  event.op = Op::kRemove;
  edge_events_[eid].push_back(std::move(event));
  return *this;
}

TGraphBuilder& TGraphBuilder::SetEdgeProperty(EdgeId eid, TimePoint at,
                                              const std::string& key,
                                              PropertyValue value) {
  Event event;
  event.at = at;
  event.op = Op::kSet;
  event.key = key;
  event.value = std::move(value);
  edge_events_[eid].push_back(std::move(event));
  return *this;
}

TGraphBuilder& TGraphBuilder::SeedVertex(VertexId vid, History states) {
  vertex_seeds_[vid] = std::move(states);
  return *this;
}

TGraphBuilder& TGraphBuilder::SeedEdge(EdgeId eid, VertexId src, VertexId dst,
                                       History states) {
  edge_seeds_[eid] = EdgeHistory{src, dst, std::move(states)};
  return *this;
}

Result<History> TGraphBuilder::Replay(History seed, std::vector<Event> events,
                                      TimePoint end, const std::string& label) {
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return static_cast<int>(a.op) < static_cast<int>(b.op);
                   });
  History history = std::move(seed);
  bool alive = false;
  TimePoint state_start = 0;
  Properties current;
  // A seeded final state ending exactly at the horizon means "alive when
  // the seed was folded": reopen it so later events extend or close it.
  // Earlier ends stay closed — the entity is absent after its last state.
  std::optional<TimePoint> seed_floor;
  if (!history.empty()) {
    if (history.back().interval.end == end) {
      alive = true;
      state_start = history.back().interval.start;
      current = history.back().properties;
      seed_floor = state_start;
      history.pop_back();
    } else {
      seed_floor = history.back().interval.end;
    }
  }
  auto close_state = [&](TimePoint until) {
    if (until > state_start) {
      history.push_back(HistoryItem{Interval(state_start, until), current});
    }
  };
  for (const Event& event : events) {
    // Events cannot rewrite folded history: anything before the seed's
    // final boundary would interleave with states already merged away.
    if (seed_floor.has_value() && event.at < *seed_floor) {
      return Status::InvalidArgument(
          label + ": event at " + std::to_string(event.at) +
          " precedes the seeded state boundary " + std::to_string(*seed_floor));
    }
    // Adds and property changes must happen strictly before the horizon
    // (they start a state); a removal exactly at the horizon is fine — it
    // says the entity exists right up to the end.
    TimePoint limit = event.op == Op::kRemove ? end + 1 : end;
    if (event.at >= limit) {
      return Status::InvalidArgument(label + ": event at " +
                                     std::to_string(event.at) +
                                     " is not before end_of_time " +
                                     std::to_string(end));
    }
    switch (event.op) {
      case Op::kAdd:
        if (alive) {
          return Status::InvalidArgument(label + " added twice at " +
                                         std::to_string(event.at));
        }
        alive = true;
        state_start = event.at;
        current = event.props;
        break;
      case Op::kSet: {
        if (!alive) {
          return Status::InvalidArgument(label + ": property set at " +
                                         std::to_string(event.at) +
                                         " while absent");
        }
        PropertyValue previous =
            current.Get(event.key).value_or(PropertyValue());
        if (current.Has(event.key) && previous == event.value) {
          break;  // no-op change; keep the state maximal
        }
        close_state(event.at);
        state_start = std::max(state_start, event.at);
        current.Set(event.key, event.value);
        break;
      }
      case Op::kRemove:
        if (!alive) {
          return Status::InvalidArgument(label + ": removed at " +
                                         std::to_string(event.at) +
                                         " while absent");
        }
        close_state(event.at);
        alive = false;
        break;
    }
  }
  if (alive) close_state(end);
  return CoalesceHistory(std::move(history));
}

Result<TGraphBuilder::Folded> TGraphBuilder::Fold(TimePoint end_of_time) {
  // Union of seeded and evented entity ids, in id order: a seeded entity
  // with no events replays to its seed, an unseeded one replays from
  // scratch, and a seeded one with events continues where the seed ended.
  Folded folded;
  // Every replayed vertex's states, empty ones included: edges consult
  // their endpoints here.
  std::map<VertexId, History>& presence = folded.vertices;
  std::map<VertexId, std::vector<Event>*> vertex_ids;
  for (auto& [vid, events] : vertex_events_) vertex_ids[vid] = &events;
  for (auto& [vid, seed] : vertex_seeds_) vertex_ids.emplace(vid, nullptr);
  static const std::vector<Event> kNoEvents;
  for (auto& [vid, events_ptr] : vertex_ids) {
    const std::vector<Event>& events =
        events_ptr != nullptr ? *events_ptr : kNoEvents;
    History seed;
    if (auto it = vertex_seeds_.find(vid); it != vertex_seeds_.end()) {
      seed = it->second;
    }
    TG_ASSIGN_OR_RETURN(History history,
                        Replay(std::move(seed), events, end_of_time,
                               "vertex " + std::to_string(vid)));
    for (const HistoryItem& item : history) {
      if (!item.properties.Has(kTypeProperty)) {
        return Status::InvalidArgument("vertex " + std::to_string(vid) +
                                       " lacks the required type property");
      }
    }
    presence[vid] = std::move(history);
  }

  std::map<EdgeId, std::vector<Event>*> edge_ids;
  for (auto& [eid, events] : edge_events_) edge_ids[eid] = &events;
  for (auto& [eid, seed] : edge_seeds_) edge_ids.emplace(eid, nullptr);
  for (auto& [eid, events_ptr] : edge_ids) {
    const std::vector<Event>& events =
        events_ptr != nullptr ? *events_ptr : kNoEvents;
    VertexId src = 0, dst = 0;
    bool endpoints_known = false;
    History seed;
    if (auto it = edge_seeds_.find(eid); it != edge_seeds_.end()) {
      src = it->second.src;
      dst = it->second.dst;
      endpoints_known = true;
      seed = it->second.states;
    }
    for (const Event& event : events) {
      if (event.op == Op::kAdd) {
        if (endpoints_known && (src != event.src || dst != event.dst)) {
          return Status::InvalidArgument("edge " + std::to_string(eid) +
                                         " changes endpoints over time");
        }
        src = event.src;
        dst = event.dst;
        endpoints_known = true;
      }
    }
    if (!endpoints_known) {
      return Status::InvalidArgument("edge " + std::to_string(eid) +
                                     " has events but was never added");
    }
    const std::string label = "edge " + std::to_string(eid);
    auto src_it = presence.find(src);
    auto dst_it = presence.find(dst);
    if (src_it == presence.end() || dst_it == presence.end()) {
      return Status::InvalidArgument(label + " references an unknown vertex");
    }

    // A vertex removal implicitly — and permanently — ends incident
    // edges: the edge does NOT resume if the endpoint is later re-added.
    // Permanence is what lets the streaming path materialize a snapshot
    // at any moment and keep building on it: a graph compacted between
    // the removal and a later event must accept or reject that event
    // exactly as an offline build over the full log would. So the edge
    // replays against the windows where BOTH endpoints exist: an add
    // inside a window schedules an implicit removal at the window's end
    // (unless an explicit removal closes the edge first), and a set or
    // remove past that boundary targets a dead edge — the same error a
    // replay from a compacted seed produces.
    const std::vector<Interval> windows = IntersectUnions(
        PresenceUnion(src_it->second), PresenceUnion(dst_it->second));
    auto window_containing = [&](TimePoint at) -> const Interval* {
      for (const Interval& window : windows) {
        if (window.Contains(at)) return &window;
      }
      return nullptr;
    };

    std::vector<Event> augmented(events);
    std::stable_sort(augmented.begin(), augmented.end(),
                     [](const Event& a, const Event& b) {
                       if (a.at != b.at) return a.at < b.at;
                       return static_cast<int>(a.op) < static_cast<int>(b.op);
                     });
    bool alive = false;
    TimePoint death = end_of_time;
    if (!seed.empty() && seed.back().interval.end == end_of_time) {
      const TimePoint open_start = seed.back().interval.start;
      const Interval* window = window_containing(open_start);
      if (window == nullptr) {
        return Status::InvalidArgument(
            label + " seeded at " + std::to_string(open_start) +
            " while an endpoint is absent");
      }
      alive = true;
      death = window->end;
    }
    std::vector<Event> implicit;
    auto implicit_removal = [&implicit](TimePoint at) {
      Event removal;
      removal.at = at;
      removal.op = Op::kRemove;
      implicit.push_back(std::move(removal));
    };
    for (const Event& event : augmented) {
      // `death == end_of_time` means the endpoints outlive the horizon,
      // so the edge closes naturally and no boundary applies.
      const bool bounded = alive && death < end_of_time;
      switch (event.op) {
        case Op::kAdd: {
          if (bounded && death <= event.at) {
            implicit_removal(death);
            alive = false;
          }
          const Interval* window = window_containing(event.at);
          if (window == nullptr) {
            return Status::InvalidArgument(
                label + " added at " + std::to_string(event.at) +
                " while an endpoint is absent");
          }
          alive = true;  // a double add is diagnosed by Replay
          death = window->end;
          break;
        }
        case Op::kSet:
          if (bounded && death <= event.at) {
            return Status::InvalidArgument(
                label + ": property set at " + std::to_string(event.at) +
                " while absent (an endpoint was removed at " +
                std::to_string(death) + ")");
          }
          break;
        case Op::kRemove:
          // An explicit removal at the boundary itself coincides with the
          // implicit one and stands in for it; strictly past it, the edge
          // is already dead and Replay reports the removal, exactly as a
          // replay from a compacted seed would.
          if (bounded && death < event.at) implicit_removal(death);
          alive = false;
          break;
      }
    }
    if (alive && death < end_of_time) implicit_removal(death);
    augmented.insert(augmented.end(), implicit.begin(), implicit.end());

    TG_ASSIGN_OR_RETURN(History history,
                        Replay(std::move(seed), std::move(augmented),
                               end_of_time, label));
    if (history.empty()) continue;
    for (const HistoryItem& item : history) {
      // Replay confined every event-built state to a both-endpoints
      // window above, so this clip is an identity for them; it still
      // guards hand-built seeds lying outside their endpoints' presence.
      History clipped = IntersectHistoryPresence(
          IntersectHistoryPresence({item}, src_it->second), dst_it->second);
      if (clipped.empty() ||
          clipped.front().interval.start != item.interval.start ||
          clipped.front().interval.end != item.interval.end) {
        return Status::InvalidArgument(
            label + " state at " + std::to_string(item.interval.start) +
            " extends outside its endpoints' presence");
      }
    }
    folded.edges.emplace(eid, EdgeHistory{src, dst, std::move(history)});
  }
  std::erase_if(folded.vertices,
                [](const auto& entry) { return entry.second.empty(); });
  return folded;
}

Result<VeGraph> TGraphBuilder::Finish(TimePoint end_of_time) {
  TG_ASSIGN_OR_RETURN(Folded folded, Fold(end_of_time));
  std::vector<VeVertex> vertices;
  for (auto& [vid, history] : folded.vertices) {
    for (HistoryItem& item : history) {
      vertices.push_back(
          VeVertex{vid, item.interval, std::move(item.properties)});
    }
  }
  std::vector<VeEdge> edges;
  for (auto& [eid, edge] : folded.edges) {
    for (HistoryItem& item : edge.states) {
      edges.push_back(VeEdge{eid, edge.src, edge.dst, item.interval,
                             std::move(item.properties)});
    }
  }
  return VeGraph::Create(ctx_, std::move(vertices), std::move(edges),
                         std::nullopt);
}

}  // namespace tgraph
