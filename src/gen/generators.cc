#include "gen/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/rng.h"

namespace tgraph::gen {

namespace {

// Expected-value Bernoulli repetition: emits floor(rate) events plus one
// more with probability frac(rate).
int64_t SampleCount(Rng* rng, double rate) {
  int64_t count = static_cast<int64_t>(rate);
  if (rng->NextDouble() < rate - static_cast<double>(count)) ++count;
  return count;
}

// Geometric duration with the given mean, at least 1.
int64_t SampleDuration(Rng* rng, double mean) {
  if (mean <= 1.0) return 1;
  double p = 1.0 / mean;
  int64_t duration = 1;
  while (rng->NextDouble() > p && duration < 1000) ++duration;
  return duration;
}

}  // namespace

VeGraph GenerateWikiTalk(dataflow::ExecutionContext* ctx,
                         const WikiTalkConfig& config) {
  Rng rng(config.seed);
  int64_t months = config.num_months;

  // Growth-only users: join at a random month, persist, attributes fixed.
  std::vector<VeVertex> vertices;
  vertices.reserve(static_cast<size_t>(config.num_users));
  std::vector<TimePoint> join_month(static_cast<size_t>(config.num_users));
  for (int64_t u = 0; u < config.num_users; ++u) {
    // Most users join early; the join rate decays like real wiki growth.
    TimePoint join = static_cast<TimePoint>(
        static_cast<double>(months) * rng.NextDouble() * rng.NextDouble());
    join_month[static_cast<size_t>(u)] = join;
    Properties props;
    props.Set(kTypeProperty, "user");
    props.Set("name", "user" + std::to_string(u));
    props.Set("editCount",
              static_cast<int64_t>(rng.NextBounded(
                  static_cast<uint64_t>(config.num_edit_counts))));
    vertices.push_back(VeVertex{u, Interval(join, months), std::move(props)});
  }
  // Users sorted by join month let us sample "a user already present at
  // month m" in O(1).
  std::vector<VertexId> by_join(static_cast<size_t>(config.num_users));
  for (size_t i = 0; i < by_join.size(); ++i) by_join[i] = static_cast<VertexId>(i);
  std::sort(by_join.begin(), by_join.end(), [&](VertexId a, VertexId b) {
    return join_month[static_cast<size_t>(a)] < join_month[static_cast<size_t>(b)];
  });

  std::vector<VeEdge> edges;
  EdgeId next_eid = 0;
  size_t joined = 0;
  for (TimePoint m = 0; m < months; ++m) {
    while (joined < by_join.size() &&
           join_month[static_cast<size_t>(by_join[joined])] <= m) {
      ++joined;
    }
    if (joined < 2) continue;
    int64_t events = SampleCount(
        &rng, static_cast<double>(joined) * config.events_per_user_month);
    for (int64_t i = 0; i < events; ++i) {
      VertexId src = by_join[rng.NextBounded(joined)];
      VertexId dst = by_join[rng.NextBounded(joined)];
      if (src == dst) continue;
      // Threads run a geometric number of months.
      TimePoint end = m + 1;
      while (end < months && rng.NextDouble() < config.continuation) ++end;
      Properties props;
      props.Set(kTypeProperty, "message");
      // Edge ids are decorrelated from creation time (Mix64 is a
      // bijection, so ids stay unique); otherwise sorting by id would
      // accidentally also sort by time, hiding the locality trade-off the
      // storage experiments measure.
      EdgeId eid = static_cast<EdgeId>(
          Mix64(static_cast<uint64_t>(next_eid++)) >> 1);
      edges.push_back(
          VeEdge{eid, src, dst, Interval(m, end), std::move(props)});
    }
  }
  return VeGraph::Create(ctx, std::move(vertices), std::move(edges),
                         Interval(0, months));
}

VeGraph GenerateSnb(dataflow::ExecutionContext* ctx, const SnbConfig& config) {
  Rng rng(config.seed);
  int64_t months = config.num_months;

  std::vector<VeVertex> vertices;
  vertices.reserve(static_cast<size_t>(config.num_persons));
  std::vector<TimePoint> join_month(static_cast<size_t>(config.num_persons));
  for (int64_t p = 0; p < config.num_persons; ++p) {
    TimePoint join =
        static_cast<TimePoint>(rng.NextBounded(static_cast<uint64_t>(months)));
    join_month[static_cast<size_t>(p)] = join;
    Properties props;
    props.Set(kTypeProperty, "person");
    props.Set("firstName",
              "name" + std::to_string(rng.NextBounded(
                           static_cast<uint64_t>(config.num_first_names))));
    vertices.push_back(VeVertex{p, Interval(join, months), std::move(props)});
  }

  // Growth-only friendships: an edge appears once both endpoints exist and
  // persists to the end of the graph's lifetime.
  std::vector<VeEdge> edges;
  EdgeId next_eid = 0;
  int64_t total_edges = static_cast<int64_t>(
      static_cast<double>(config.num_persons) * config.avg_friendships / 2.0);
  for (int64_t i = 0; i < total_edges; ++i) {
    VertexId a = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(config.num_persons)));
    VertexId b = static_cast<VertexId>(
        rng.NextBounded(static_cast<uint64_t>(config.num_persons)));
    if (a == b) continue;
    TimePoint earliest = std::max(join_month[static_cast<size_t>(a)],
                                  join_month[static_cast<size_t>(b)]);
    if (earliest >= months) continue;
    TimePoint start =
        earliest + static_cast<TimePoint>(rng.NextBounded(
                       static_cast<uint64_t>(months - earliest)));
    Properties props;
    props.Set(kTypeProperty, "knows");
    edges.push_back(
        VeEdge{next_eid++, a, b, Interval(start, months), std::move(props)});
  }
  return VeGraph::Create(ctx, std::move(vertices), std::move(edges),
                         Interval(0, months));
}

VeGraph GenerateNGrams(dataflow::ExecutionContext* ctx,
                       const NGramsConfig& config) {
  Rng rng(config.seed);
  int64_t years = config.num_years;

  // Persistent word vertices (paper: "its vertices persist over time"),
  // with a slowly changing `freq` attribute so vertices have multiple
  // states, as in the real data.
  std::vector<VeVertex> vertices;
  vertices.reserve(static_cast<size_t>(config.num_words));
  for (int64_t w = 0; w < config.num_words; ++w) {
    std::vector<TimePoint> cuts = {0};
    if (config.attribute_change_every > 0) {
      double p = 1.0 / static_cast<double>(config.attribute_change_every);
      for (TimePoint y = 1; y < years; ++y) {
        if (rng.NextDouble() < p) cuts.push_back(y);
      }
    }
    cuts.push_back(years);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      Properties props;
      props.Set(kTypeProperty, "word");
      // append(), not "w" + std::string&& (GCC 12 -Wrestrict false
      // positive).
      props.Set("word", std::string("w").append(std::to_string(w)));
      if (config.attribute_change_every > 0) {
        props.Set("freq", static_cast<int64_t>(rng.NextBounded(1000)));
      }
      vertices.push_back(
          VeVertex{w, Interval(cuts[c], cuts[c + 1]), std::move(props)});
    }
  }

  // Churning co-occurrence edges: a pair's identity is stable (eid derived
  // from the pair), so recurring pairs produce multi-state edges. Track the
  // last end per pair to keep states disjoint.
  std::vector<VeEdge> edges;
  std::unordered_map<uint64_t, TimePoint> last_end;
  for (TimePoint y = 0; y < years; ++y) {
    int64_t appearances = SampleCount(&rng, config.appearances_per_year);
    for (int64_t i = 0; i < appearances; ++i) {
      VertexId a = static_cast<VertexId>(
          rng.NextBounded(static_cast<uint64_t>(config.num_words)));
      VertexId b = static_cast<VertexId>(
          rng.NextBounded(static_cast<uint64_t>(config.num_words)));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      uint64_t pair_hash = HashCombine(Mix64(static_cast<uint64_t>(a)),
                                       Mix64(static_cast<uint64_t>(b)));
      EdgeId eid = static_cast<EdgeId>(pair_hash & 0x7fffffffffffffffULL);
      TimePoint start = y;
      auto it = last_end.find(pair_hash);
      if (it != last_end.end() && it->second >= start) {
        // Overlapping or adjacent to the pair's previous appearance: the
        // properties are identical, so the state would either be invalid
        // or coalesce away. Skip it; the pair recurs in a later year.
        continue;
      }
      TimePoint end = std::min<TimePoint>(
          years, start + SampleDuration(&rng, config.mean_duration));
      last_end[pair_hash] = end;
      Properties props;
      props.Set(kTypeProperty, "cooccur");
      edges.push_back(VeEdge{eid, a, b, Interval(start, end), std::move(props)});
    }
  }
  return VeGraph::Create(ctx, std::move(vertices), std::move(edges),
                         Interval(0, years));
}

VeGraph GeneratePowerLaw(dataflow::ExecutionContext* ctx,
                         const PowerLawConfig& config) {
  Rng rng(config.seed);
  int64_t n = config.num_vertices;
  TimePoint horizon = config.num_snapshots;

  // Vertices persist over the whole lifetime; `group` feeds aZoom specs
  // in the skew tests, `weight` feeds sum aggregators.
  std::vector<VeVertex> vertices;
  vertices.reserve(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    Properties props;
    props.Set(kTypeProperty, "node");
    props.Set("group", std::string("g").append(std::to_string(
                           rng.NextBounded(static_cast<uint64_t>(
                               std::max<int64_t>(1, config.num_groups))))));
    props.Set("weight", static_cast<int64_t>(rng.NextBounded(100)));
    vertices.push_back(VeVertex{v, Interval(0, horizon), std::move(props)});
  }

  // Zipf CDF over vertex ranks: P(rank r) proportional to 1/(r+1)^s.
  // Sampling is a binary search over the cumulative weights; exponent 0
  // degenerates to uniform.
  std::vector<double> cdf(static_cast<size_t>(n));
  double cumulative = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    cumulative += 1.0 / std::pow(static_cast<double>(r + 1),
                                 config.zipf_exponent);
    cdf[static_cast<size_t>(r)] = cumulative;
  }
  auto sample_zipf = [&]() -> VertexId {
    double u = rng.NextDouble() * cumulative;
    auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    if (it == cdf.end()) --it;
    return static_cast<VertexId>(it - cdf.begin());
  };

  std::vector<VeEdge> edges;
  edges.reserve(static_cast<size_t>(config.num_edges));
  EdgeId next_eid = 0;
  for (int64_t e = 0; e < config.num_edges; ++e) {
    VertexId src = rng.NextDouble() < config.hub_fraction ? 0 : sample_zipf();
    VertexId dst = sample_zipf();
    if (src == dst) continue;
    TimePoint start = static_cast<TimePoint>(
        rng.NextBounded(static_cast<uint64_t>(horizon)));
    TimePoint end = std::min<TimePoint>(
        horizon, start + SampleDuration(&rng, config.mean_edge_duration));
    Properties props;
    props.Set(kTypeProperty, "link");
    edges.push_back(
        VeEdge{next_eid++, src, dst, Interval(start, end), std::move(props)});
  }
  return VeGraph::Create(ctx, std::move(vertices), std::move(edges),
                         Interval(0, horizon));
}

}  // namespace tgraph::gen
