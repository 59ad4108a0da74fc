#ifndef TGRAPH_TESTS_TEST_UTIL_H_
#define TGRAPH_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dataflow/context.h"
#include "tgraph/tgraph.h"
#include "tgraph/ve.h"

namespace tgraph::testing {

/// A small execution context shared by one test suite.
inline dataflow::ExecutionContext* Ctx() {
  static dataflow::ExecutionContext* ctx = new dataflow::ExecutionContext(
      dataflow::ContextOptions{.num_workers = 2, .default_parallelism = 4});
  return ctx;
}

/// The running example of the paper (Figure 1): Ann=1, Bob=2, Cat=3.
inline VeGraph Figure1() {
  std::vector<VeVertex> vertices = {
      {1, {1, 7}, Properties{{"type", "person"}, {"school", "MIT"}}},
      {2, {2, 5}, Properties{{"type", "person"}}},
      {2, {5, 9}, Properties{{"type", "person"}, {"school", "CMU"}}},
      {3, {1, 9}, Properties{{"type", "person"}, {"school", "MIT"}}},
  };
  std::vector<VeEdge> edges = {
      {1, 1, 2, {2, 7}, Properties{{"type", "co-author"}}},
      {2, 2, 3, {7, 9}, Properties{{"type", "co-author"}}},
  };
  return VeGraph::Create(Ctx(), std::move(vertices), std::move(edges));
}

/// The aZoom^T spec of the running example (Figure 2): group people by
/// school, count students, re-type edges to collaborate.
inline AZoomSpec SchoolZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("school");
  spec.aggregator =
      MakeAggregator("school", "name", {{"students", AggKind::kCount, ""}});
  spec.edge_type = "collaborate";
  return spec;
}

/// A canonical, order-independent rendering of a VE graph's contents, for
/// equality assertions across representations and implementations.
inline std::vector<std::string> Canonical(const VeGraph& graph) {
  std::vector<std::string> lines;
  for (const VeVertex& v : graph.vertices().Collect()) {
    lines.push_back("V " + v.ToString());
  }
  for (const VeEdge& e : graph.edges().Collect()) {
    lines.push_back("E " + e.ToString());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Canonicalizes any representation by converting to coalesced VE.
inline std::vector<std::string> Canonical(const TGraph& graph) {
  Result<TGraph> ve = graph.As(Representation::kVe);
  TG_CHECK(ve.ok()) << ve.status();
  return Canonical(ve->Coalesce().ve());
}

/// Topology-only canonical form (ids and presence intervals, no
/// properties) — what OGC preserves. Presence is coalesced ignoring
/// attribute changes, so a vertex whose attributes change mid-lifetime
/// still renders as one presence interval.
inline std::vector<std::string> CanonicalTopology(const VeGraph& graph) {
  std::map<VertexId, std::vector<Interval>> vertex_presence;
  for (const VeVertex& v : graph.vertices().Collect()) {
    vertex_presence[v.vid].push_back(v.interval);
  }
  std::map<std::tuple<EdgeId, VertexId, VertexId>, std::vector<Interval>>
      edge_presence;
  for (const VeEdge& e : graph.edges().Collect()) {
    edge_presence[{e.eid, e.src, e.dst}].push_back(e.interval);
  }
  std::vector<std::string> lines;
  for (auto& [vid, intervals] : vertex_presence) {
    for (const Interval& i : CoalesceIntervals(intervals)) {
      lines.push_back("V " + std::to_string(vid) + " " + i.ToString());
    }
  }
  for (auto& [key, intervals] : edge_presence) {
    const auto& [eid, src, dst] = key;
    for (const Interval& i : CoalesceIntervals(intervals)) {
      lines.push_back("E " + std::to_string(eid) + " " + std::to_string(src) +
                      "->" + std::to_string(dst) + " " + i.ToString());
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// A deterministic random evolving graph for property-based tests:
/// `num_vertices` vertices and ~`num_edges` edges over [0, horizon), with
/// multi-state vertices (attribute changes) and multi-state edges.
inline VeGraph RandomTGraph(uint64_t seed, int64_t num_vertices = 30,
                            int64_t num_edges = 60, TimePoint horizon = 20,
                            int64_t group_cardinality = 4) {
  Rng rng(seed);
  std::vector<VeVertex> vertices;
  std::vector<std::vector<Interval>> presence(
      static_cast<size_t>(num_vertices));
  for (int64_t v = 0; v < num_vertices; ++v) {
    TimePoint start = rng.NextInRange(0, horizon - 2);
    TimePoint end = rng.NextInRange(start + 1, horizon);
    // Split into 1..3 states with possibly different attribute values;
    // adjacent states get distinct values so the input is coalesced.
    int64_t states = rng.NextInRange(1, 3);
    std::vector<TimePoint> cuts = {start, end};
    for (int64_t s = 1; s < states; ++s) {
      cuts.push_back(rng.NextInRange(start, end));
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    int64_t previous_value = -1;
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      int64_t value =
          static_cast<int64_t>(rng.NextBounded(
              static_cast<uint64_t>(group_cardinality) + 1));
      if (value == previous_value) value = (value + 1) % (group_cardinality + 1);
      previous_value = value;
      Properties props;
      props.Set(kTypeProperty, "node");
      // value == cardinality means "no group" (tests the dropped-state path).
      if (value < group_cardinality) {
        // append(), not "g" + std::string&&: the latter trips a GCC 12
        // -Wrestrict false positive when inlined.
        props.Set("group", std::string("g").append(std::to_string(value)));
      }
      props.Set("weight", static_cast<int64_t>(rng.NextBounded(100)));
      Interval interval(cuts[c], cuts[c + 1]);
      vertices.push_back(VeVertex{v, interval, std::move(props)});
      presence[static_cast<size_t>(v)].push_back(interval);
    }
  }
  std::vector<VeEdge> edges;
  EdgeId eid = 0;
  for (int64_t e = 0; e < num_edges; ++e) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(
        static_cast<uint64_t>(num_vertices)));
    VertexId b = static_cast<VertexId>(rng.NextBounded(
        static_cast<uint64_t>(num_vertices)));
    const auto& pa = presence[static_cast<size_t>(a)];
    const auto& pb = presence[static_cast<size_t>(b)];
    Interval span_a(pa.front().start, pa.back().end);
    Interval span_b(pb.front().start, pb.back().end);
    Interval common = span_a.Intersect(span_b);
    if (common.empty()) continue;
    TimePoint start = rng.NextInRange(common.start, common.end - 1);
    TimePoint end = rng.NextInRange(start + 1, common.end);
    Properties props;
    props.Set(kTypeProperty, "link");
    props.Set("kind",
              std::string("k").append(std::to_string(rng.NextBounded(3))));
    edges.push_back(VeEdge{eid++, a, b, Interval(start, end), std::move(props)});
  }
  return VeGraph::Create(Ctx(), std::move(vertices), std::move(edges));
}

}  // namespace tgraph::testing

#endif  // TGRAPH_TESTS_TEST_UTIL_H_
