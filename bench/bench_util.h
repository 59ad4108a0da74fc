#ifndef TGRAPH_BENCH_BENCH_UTIL_H_
#define TGRAPH_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.h"
#include "gen/stats.h"
#include "gen/transform.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tgraph/tgraph.h"

namespace tgraph::bench {

/// Opt-in benchmark observability, so BENCH_*.json trajectories become
/// stage-attributable without perturbing default timings:
///   TGRAPH_TRACE_OUT=<file>  enable tracing; at exit, write a Chrome
///                            trace and print the span summary ("# obs"
///                            comment lines, ignored by result parsers).
inline void InitBenchObs() {
  static bool initialized = [] {
    const char* trace_out = std::getenv("TGRAPH_TRACE_OUT");
    if (trace_out == nullptr || trace_out[0] == '\0') return true;
    obs::Tracer::Global().Enable();
    static std::string path = trace_out;
    std::atexit([] {
      obs::Tracer& tracer = obs::Tracer::Global();
      if (tracer.WriteChromeTrace(path)) {
        printf("# obs trace: %s (%zu spans)\n", path.c_str(),
               tracer.EventCount());
      }
      std::string summary = tracer.Summary();
      size_t start = 0;
      while (start < summary.size()) {
        size_t end = summary.find('\n', start);
        printf("# obs %s\n", summary.substr(start, end - start).c_str());
        if (end == std::string::npos) break;
        start = end + 1;
      }
    });
    return true;
  }();
  (void)initialized;
}

/// One shared execution context per benchmark binary.
inline dataflow::ExecutionContext* Ctx() {
  static auto* ctx = [] {
    InitBenchObs();
    return new dataflow::ExecutionContext();
  }();
  return ctx;
}

/// \brief Per-phase metric attribution: wraps one timed region, names it
/// with a span, and on destruction reports the dataflow metric deltas the
/// phase caused as benchmark counters (stages, shuffled records/bytes).
///
/// Usage inside a benchmark loop:
///   for (auto _ : state) {
///     PhaseMetrics phase("wzoom", &state);
///     ... timed work ...
///   }
class PhaseMetrics {
 public:
  PhaseMetrics(std::string phase, benchmark::State* state)
      : phase_(std::move(phase)),
        state_(state),
        span_(phase_, "bench"),
        before_(obs::MetricsRegistry::Global().Snapshot()) {}

  ~PhaseMetrics() {
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().DeltaSince(before_);
    auto add = [&](const char* metric, const char* label) {
      auto it = delta.counters.find(metric);
      if (it == delta.counters.end() || it->second == 0) return;
      (*state_)
          .counters[phase_ + "." + label] += static_cast<double>(it->second);
    };
    add(obs::metric_names::kStages, "stages");
    add(obs::metric_names::kShuffleRecords, "shuffled_records");
    add(obs::metric_names::kShuffleBytes, "shuffled_bytes");
  }

 private:
  std::string phase_;
  benchmark::State* state_;
  obs::Span span_;
  obs::MetricsSnapshot before_;
};

/// Benchmark-scale stand-ins for the paper's datasets. The paper runs on a
/// 64-core cluster with up to 1.3B edges and a 30-minute timeout; these are
/// scaled so every figure regenerates in seconds on one machine while
/// keeping each dataset's evolution signature (growth-only vs churning,
/// attribute structure, evolution rate).

inline VeGraph WikiTalkBase() {
  static VeGraph* graph = [] {
    gen::WikiTalkConfig config;
    config.num_users = 8000;
    config.num_months = 60;
    config.events_per_user_month = 0.6;
    return new VeGraph(gen::GenerateWikiTalk(Ctx(), config));
  }();
  return *graph;
}

inline VeGraph SnbBase() {
  static VeGraph* graph = [] {
    gen::SnbConfig config;
    config.num_persons = 8000;
    config.num_months = 36;
    config.avg_friendships = 12;
    config.num_first_names = 500;
    return new VeGraph(gen::GenerateSnb(Ctx(), config));
  }();
  return *graph;
}

inline VeGraph NGramsBase() {
  static VeGraph* graph = [] {
    gen::NGramsConfig config;
    config.num_words = 6000;
    config.num_years = 100;
    config.appearances_per_year = 1800;
    return new VeGraph(gen::GenerateNGrams(Ctx(), config));
  }();
  return *graph;
}

/// Converts a (coalesced) VE graph into the requested representation,
/// memoizing per (pointer-identity is unavailable, so callers pass a cache
/// key). Preparation cost is outside the timed region, mirroring the
/// paper's "materialized in memory" starting point per representation.
inline TGraph Prepared(const std::string& key, const VeGraph& ve,
                       Representation rep) {
  static std::map<std::string, TGraph>* cache =
      new std::map<std::string, TGraph>();
  std::string full_key = key + "/" + RepresentationName(rep);
  auto it = cache->find(full_key);
  if (it == cache->end()) {
    TGraph as_rep = *TGraph::FromVe(ve, /*coalesced=*/true).As(rep);
    as_rep.Materialize();
    it = cache->emplace(full_key, std::move(as_rep)).first;
  }
  return it->second;
}

/// The aZoom^T specs the paper uses per dataset (Section 5.1: WikiTalk
/// groups by username, SNB by firstName, NGrams by word).
inline AZoomSpec WikiTalkAZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("name");
  spec.aggregator =
      MakeAggregator("account", "name", {{"entities", AggKind::kCount, ""}});
  return spec;
}

inline AZoomSpec SnbAZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("firstName");
  spec.aggregator = MakeAggregator("cohort", "firstName",
                                   {{"people", AggKind::kCount, ""}});
  return spec;
}

inline AZoomSpec NGramsAZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("word");
  spec.aggregator =
      MakeAggregator("term", "word", {{"entities", AggKind::kCount, ""}});
  return spec;
}

/// The synthetic group-id zoom of Figures 12 and 17.
inline AZoomSpec RandomGroupAZoom() {
  AZoomSpec spec;
  spec.group_of = GroupByProperty("group");
  spec.aggregator =
      MakeAggregator("cluster", "group", {{"members", AggKind::kCount, ""}});
  return spec;
}

/// Prints a dataset header line so benchmark output is self-describing.
inline void PrintDataset(const char* name, const VeGraph& graph) {
  printf("# %s: %s\n", name, gen::ComputeStats(graph).ToString().c_str());
}

/// \brief Repeated timings of one measurement, in milliseconds.
struct Samples {
  std::vector<double> ms;

  double Quantile(double q) const {
    TG_CHECK(!ms.empty()) << "no samples";
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] +
           (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
  }
  double Min() const { return Quantile(0); }
  double Median() const { return Quantile(0.5); }
  /// Interquartile range over the median: the run-to-run spread.
  double Spread() const {
    const double median = Median();
    return median > 0 ? (Quantile(0.75) - Quantile(0.25)) / median : 0;
  }
};

/// \brief An ordered JSON object for BENCH_*.json trajectories. Fields
/// keep insertion order; an object holding only scalars renders on one
/// line, so one measurement stays one diffable line. Keys and strings are
/// the benches' own identifiers and are written unescaped.
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted.append(value).append("\"");
    return Scalar(key, std::move(quoted));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Scalar(key, std::to_string(value));
  }
  JsonObject& Num(const std::string& key, double value, int digits = 3) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
    return Scalar(key, buffer);
  }
  /// min_ms, median_ms, p25_ms, p75_ms, spread and the repetition count.
  JsonObject& Timing(const std::string& key, const Samples& samples) {
    JsonObject timing;
    timing.Num("min_ms", samples.Min(), 2)
        .Num("median_ms", samples.Median(), 2)
        .Num("p25_ms", samples.Quantile(0.25), 2)
        .Num("p75_ms", samples.Quantile(0.75), 2)
        .Num("spread", samples.Spread())
        .Int("reps", static_cast<int64_t>(samples.ms.size()));
    return Obj(key, std::move(timing));
  }
  JsonObject& Obj(const std::string& key, JsonObject value) {
    fields_.push_back(Field{key, "", {std::move(value)}, false});
    return *this;
  }
  JsonObject& Arr(const std::string& key, std::vector<JsonObject> values) {
    fields_.push_back(Field{key, "", std::move(values), true});
    return *this;
  }

  std::string Render(int indent = 0) const {
    const bool flat = std::all_of(fields_.begin(), fields_.end(),
                                  [](const Field& f) {
                                    return !f.array && f.objects.empty();
                                  });
    const std::string pad(static_cast<size_t>(indent) + 2, ' ');
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      const Field& f = fields_[i];
      if (i > 0) out += flat ? ", " : ",";
      if (!flat) out.append("\n").append(pad);
      out.append("\"").append(f.key).append("\": ");
      if (f.array) {
        out += "[";
        for (size_t j = 0; j < f.objects.size(); ++j) {
          out.append(j == 0 ? "\n" : ",\n").append(pad).append("  ");
          out += f.objects[j].Render(indent + 4);
        }
        if (!f.objects.empty()) out.append("\n").append(pad);
        out += "]";
      } else if (!f.objects.empty()) {
        out += f.objects[0].Render(indent + 2);
      } else {
        out += f.scalar;
      }
    }
    if (!flat) out.append("\n").append(static_cast<size_t>(indent), ' ');
    return out + "}";
  }

  /// Writes the object as a file (a BENCH_*.json trajectory).
  void WriteFile(const std::string& path) const {
    const std::string json = Render() + "\n";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    TG_CHECK(f != nullptr) << path;
    TG_CHECK(std::fwrite(json.data(), 1, json.size(), f) == json.size());
    TG_CHECK(std::fclose(f) == 0) << path;
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  JsonObject& Scalar(const std::string& key, std::string rendered) {
    fields_.push_back(Field{key, std::move(rendered), {}, false});
    return *this;
  }

  struct Field {
    std::string key;
    std::string scalar;
    std::vector<JsonObject> objects;  // one for Obj, any number for Arr
    bool array = false;
  };
  std::vector<Field> fields_;
};

}  // namespace tgraph::bench

#endif  // TGRAPH_BENCH_BENCH_UTIL_H_
