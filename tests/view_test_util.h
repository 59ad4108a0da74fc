// Shared helpers for the view test suite: fuzzed-but-valid event stream
// generation, the offline recompute oracle, and the aZoom spec the view
// tests group by.

#ifndef TGRAPH_TESTS_VIEW_TEST_UTIL_H_
#define TGRAPH_TESTS_VIEW_TEST_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/hash.h"
#include "ingest/event.h"
#include "test_util.h"
#include "tgraph/builder.h"
#include "tgraph/pipeline.h"

namespace tgraph::views::testing {

// Inside `tgraph::views`, the qualifier `testing::` resolves here, hiding
// `tgraph::testing` — re-export what the view tests use from there.
using tgraph::testing::Canonical;
using tgraph::testing::CanonicalTopology;
using tgraph::testing::Ctx;

namespace fs = std::filesystem;

inline std::string FreshDir(const std::string& name) {
  std::string dir = (fs::temp_directory_path() /
                     ("tg_view_test_" + name + "_" +
                      std::to_string(::getpid())))
                        .string();
  fs::remove_all(dir);
  return dir;
}

inline int64_t UnixNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// --- fuzzed event streams --------------------------------------------------

/// Generates a random but valid event stream: strictly increasing
/// timestamps, edges only between concurrently-alive endpoints, incident
/// edges ended before their endpoint is removed, removed vertex ids
/// re-added later, and property churn that splits vertex states (and moves
/// vertices between aZoom groups). Weights are integers; with
/// `fractional_weights`, one in three is a multiple of 1/4 instead (exact
/// in binary, so sums do not depend on their order). Returned pre-split
/// into batches.
inline std::vector<std::vector<ingest::Event>> FuzzStream(
    uint64_t seed, int num_events, bool fractional_weights = false) {
  Rng rng(seed);
  TimePoint t = 10;
  std::vector<ingest::Event> events;
  std::set<int64_t> alive;
  std::vector<int64_t> dead;  // candidates for re-add
  std::map<int64_t, std::pair<int64_t, int64_t>> live_edges;  // eid -> (u,v)
  int64_t next_vid = 1;
  int64_t next_eid = 1000;

  auto group_props = [&rng]() {
    Properties props;
    props.Set("type", "node");
    // One in four states has no group: exercises aZoom's dropped-state
    // path.
    uint64_t g = rng.NextBounded(4);
    if (g < 3) props.Set("group", "g" + std::to_string(g));
    return props;
  };
  auto add_vertex = [&](int64_t vid) {
    ingest::Event e;
    e.kind = ingest::EventKind::kAddVertex;
    e.id = vid;
    e.at = t++;
    e.props = group_props();
    events.push_back(std::move(e));
    alive.insert(vid);
  };

  add_vertex(next_vid++);
  add_vertex(next_vid++);
  while (static_cast<int>(events.size()) < num_events) {
    uint64_t op = rng.NextBounded(10);
    if (op < 3 || alive.empty()) {
      // Add a brand-new vertex.
      add_vertex(next_vid++);
    } else if (op < 4 && !dead.empty()) {
      // Re-add a previously removed id.
      int64_t vid = dead[rng.NextBounded(dead.size())];
      dead.erase(std::find(dead.begin(), dead.end(), vid));
      add_vertex(vid);
    } else if (op < 5 && alive.size() > 1) {
      // Remove a vertex — ending its live incident edges first.
      auto it = alive.begin();
      std::advance(it, rng.NextBounded(alive.size()));
      int64_t vid = *it;
      for (auto edge = live_edges.begin(); edge != live_edges.end();) {
        if (edge->second.first == vid || edge->second.second == vid) {
          ingest::Event e;
          e.kind = ingest::EventKind::kRemoveEdge;
          e.id = edge->first;
          e.at = t++;
          events.push_back(std::move(e));
          edge = live_edges.erase(edge);
        } else {
          ++edge;
        }
      }
      ingest::Event e;
      e.kind = ingest::EventKind::kRemoveVertex;
      e.id = vid;
      e.at = t++;
      events.push_back(std::move(e));
      alive.erase(vid);
      dead.push_back(vid);
    } else if (op < 7) {
      // Property split: overwrite the group (or weight) of a live vertex.
      auto it = alive.begin();
      std::advance(it, rng.NextBounded(alive.size()));
      ingest::Event e;
      e.kind = ingest::EventKind::kSetVertexProperty;
      e.id = *it;
      e.at = t++;
      if (rng.NextBounded(2) == 0) {
        e.props = Properties{{"group", "g" + std::to_string(rng.NextBounded(3))}};
      } else if (fractional_weights && rng.NextBounded(3) == 0) {
        e.props = Properties{
            {"weight", static_cast<double>(rng.NextBounded(400)) / 4}};
      } else {
        e.props = Properties{
            {"weight", static_cast<int64_t>(rng.NextBounded(100))}};
      }
      events.push_back(std::move(e));
    } else if (op < 9 && alive.size() > 1) {
      // Add an edge between two live vertices (fresh eid: edge ends are
      // permanent under streaming ingest).
      auto a = alive.begin();
      std::advance(a, rng.NextBounded(alive.size()));
      auto b = alive.begin();
      std::advance(b, rng.NextBounded(alive.size()));
      ingest::Event e;
      e.kind = ingest::EventKind::kAddEdge;
      e.id = next_eid;
      e.src = *a;
      e.dst = *b;
      e.at = t++;
      e.props = Properties{{"type", "link"},
                           {"kind", "k" + std::to_string(rng.NextBounded(3))}};
      events.push_back(std::move(e));
      live_edges[next_eid++] = {*a, *b};
    } else if (!live_edges.empty()) {
      auto it = live_edges.begin();
      std::advance(it, rng.NextBounded(live_edges.size()));
      ingest::Event e;
      e.kind = ingest::EventKind::kRemoveEdge;
      e.id = it->first;
      e.at = t++;
      events.push_back(std::move(e));
      live_edges.erase(it);
    }
  }

  std::vector<std::vector<ingest::Event>> batches;
  size_t i = 0;
  while (i < events.size()) {
    size_t n = 1 + rng.NextBounded(6);
    std::vector<ingest::Event> batch;
    for (; n > 0 && i < events.size(); --n, ++i) batch.push_back(events[i]);
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Offline reference: one builder over the flattened prefix.
inline VeGraph OfflineBuild(const std::vector<std::vector<ingest::Event>>& batches,
                     size_t prefix, TimePoint horizon) {
  TGraphBuilder builder(tgraph::testing::Ctx());
  for (size_t i = 0; i < prefix; ++i) {
    for (const ingest::Event& event : batches[i]) {
      ingest::ApplyEventToBuilder(event, &builder);
    }
  }
  Result<VeGraph> graph = builder.Finish(horizon);
  TG_CHECK(graph.ok()) << graph.status();
  return *graph;
}

/// The `VIEW <name>` render as first specified, kept as the reference for
/// the view's per-entity render cache: every record of the coalesced VE
/// `content` as a `V `/`E ` line, all lines sorted, joined with '\n'
/// terminators and hashed with FNV-1a, under the header.
inline std::string ReferenceRender(const std::string& name,
                                   Representation rep,
                                   const VeGraph& content) {
  std::vector<std::string> lines;
  std::vector<VeVertex> vertices = content.vertices().Collect();
  std::vector<VeEdge> edges = content.edges().Collect();
  for (const VeVertex& v : vertices) lines.push_back("V " + v.ToString());
  for (const VeEdge& e : edges) lines.push_back("E " + e.ToString());
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const std::string& line : lines) {
    joined += line;
    joined += '\n';
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(HashBytes(joined)));
  const Interval lifetime = content.lifetime();
  return "view " + name + " [" + RepresentationName(rep) + "] lifetime [" +
         std::to_string(lifetime.start) + "," + std::to_string(lifetime.end) +
         "): " + std::to_string(vertices.size()) + " vertex records, " +
         std::to_string(edges.size()) + " edge records\ncontent " + hex +
         "\n";
}

inline AZoomSpec GroupZoom(std::vector<AggregateSpec> aggregates = {
                               {"n", AggKind::kCount, ""}}) {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("group");
  spec.aggregator = MakeAggregator("group", "name", std::move(aggregates));
  spec.edge_type = "rel";
  return spec;
}

/// `pipeline` with every aZoom's aggregator made opaque (its
/// AggregateSpec list cleared): the same functions, so the same results,
/// but a view over it cannot count and keeps the suffix path.
inline Pipeline WithoutAggregateSpecs(const Pipeline& pipeline) {
  Pipeline out;
  for (Pipeline::Step step : pipeline.steps()) {
    if (auto* azoom = std::get_if<Pipeline::AZoomStep>(&step)) {
      azoom->spec.aggregator.aggregates.clear();
    }
    out.Then(std::move(step));
  }
  return out;
}

}  // namespace tgraph::views::testing

#endif  // TGRAPH_TESTS_VIEW_TEST_UTIL_H_
