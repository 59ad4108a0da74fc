// Ablation: rule-based vs cost-based pipeline optimization (the query
// optimization the paper's conclusion announces). A naively written chain
// — eager coalesces, a mid-chain representation switch, a trailing slice
// — runs three ways on a uniform and a Zipf-skewed power-law input:
//
//   naive  the chain exactly as written
//   rules  Pipeline::Optimized — the four rewrite rules, no statistics
//   cost   Pipeline::OptimizedWithCost — candidates priced against a
//          profile trained by instrumented runs of the same operators on
//          each representation (what tgraphd accumulates from its own
//          query history)
//
// Expected shape: `cost` matches `rules` on the uniform input (the rule
// plan is in the candidate set, so pricing can only confirm it) and wins
// on the skewed input, where observed per-representation costs justify an
// up-front conversion the rules refuse to insert. Training time is
// outside every timed region, mirroring a warm-started server.

#include "bench/bench_util.h"
#include "opt/planner.h"
#include "tgraph/pipeline.h"
#include "tgraph/stats.h"

namespace {

using namespace tgraph;        // NOLINT
using namespace tgraph::bench; // NOLINT

WZoomSpec ExistsWindows(int64_t size) {
  return WZoomSpec{WindowSpec::TimePoints(size), Quantifier::Exists(),
                   Quantifier::Exists(), {}, {}};
}

/// Profiles the workload's operators on each lossless representation of
/// the input (plus every pairwise conversion), the way a resident server
/// learns from executing queries: one instrumented run per cell.
opt::Stats TrainStats(const VeGraph& ve, const std::string& key,
                      int64_t window, Interval focus) {
  opt::Stats stats;
  Pipeline::RunOptions options;
  options.stats = &stats;
  constexpr Representation kReps[] = {
      Representation::kVe, Representation::kOg, Representation::kRg};
  for (Representation rep : kReps) {
    TGraph graph = Prepared(key, ve, rep);
    Pipeline probe;
    probe.Slice(focus)
        .AZoom(RandomGroupAZoom())
        .WZoom(ExistsWindows(window))
        .Coalesce();
    Result<TGraph> run = probe.Run(graph, options);
    TG_CHECK(run.ok()) << run.status();
    for (Representation target : kReps) {
      if (target == rep) continue;
      Pipeline convert;
      convert.Convert(target);
      Result<TGraph> converted = convert.Run(graph, options);
      TG_CHECK(converted.ok()) << converted.status();
    }
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  struct InputCase {
    const char* name;
    double zipf_exponent;
    double hub_fraction;
  };
  InputCase cases[] = {
      {"uniform", 0.0, 0.0},
      {"zipf", 1.2, 0.15},
  };
  const int64_t window = 4;

  for (InputCase& c : cases) {
    gen::PowerLawConfig config;
    config.num_vertices = 3000;
    config.num_edges = 30000;
    config.num_snapshots = 16;
    config.zipf_exponent = c.zipf_exponent;
    config.hub_fraction = c.hub_fraction;
    VeGraph base = gen::GeneratePowerLaw(Ctx(), config);
    PrintDataset(c.name, base);
    Interval lifetime = base.lifetime();
    Interval focus(lifetime.start,
                   lifetime.start + (lifetime.duration() * 2) / 3);
    std::string key = std::string("powerlaw/") + c.name;

    // A chain as a user might naively write it.
    Pipeline naive;
    naive.Coalesce()
        .WZoom(ExistsWindows(window))
        .Coalesce()
        .Convert(Representation::kVe)
        .AZoom(RandomGroupAZoom())
        .Coalesce()
        .Slice(focus);

    Pipeline::Hints hints;
    hints.attributes_stable = true;  // power-law vertices are single-state

    opt::Stats stats = TrainStats(base, key, window, focus);
    TGraph input = Prepared(key, base, Representation::kVe);
    opt::PlanContext context = opt::PlanContext::FromGraph(input);

    Pipeline rules = naive.Optimized(hints);
    Pipeline cost = naive.OptimizedWithCost(stats, hints, context);
    printf("# %s trained observations: %lld\n", c.name,
           static_cast<long long>(stats.TotalObservations()));
    printf("# %s naive plan:\n%s# %s rules plan:\n%s# %s cost plan:\n%s",
           c.name, naive.Explain().c_str(), c.name, rules.Explain().c_str(),
           c.name, cost.Explain().c_str());

    struct PlanCase {
      const char* variant;
      Pipeline plan;
    };
    PlanCase plans[] = {
        {"naive", naive}, {"rules", rules}, {"cost", cost}};
    for (PlanCase& p : plans) {
      std::string bench_name =
          std::string("pipeline/") + c.name + "/" + p.variant;
      Pipeline plan = p.plan;
      benchmark::RegisterBenchmark(
          bench_name.c_str(),
          [key, plan](benchmark::State& state) {
            TGraph graph = Prepared(key, VeGraph(), Representation::kVe);
            for (auto _ : state) {
              Result<TGraph> result = plan.Run(graph);
              TG_CHECK(result.ok());
              benchmark::DoNotOptimize(result->Materialize());
            }
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
