// Property-based test for view maintenance: for seeded random streams and
// randomized maintenance configurations (including forced-fallback
// max_suffix_fraction = 0 and interleaved LSM compactions), the maintained
// view must equal the offline recompute after every batch. On a violation
// the harness SHRINKS the stream — truncating to the failing prefix, then
// greedily dropping batches and single events while the failure
// reproduces — and reports the minimal failing stream in `tgz ingest`
// text-line form, ready to replay.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/event.h"
#include "ingest/live_graph.h"
#include "test_util.h"
#include "tgraph/builder.h"
#include "view_test_util.h"
#include "views/view.h"

namespace tgraph::views {
namespace {

using testing::Ctx;
using testing::FreshDir;
using testing::FuzzStream;
using testing::GroupZoom;
using testing::UnixNowUs;

using Stream = std::vector<std::vector<ingest::Event>>;

enum class Outcome { kPass, kFail, kInvalid };

struct Config {
  Pipeline pipeline;
  std::string pipeline_name;
  double max_suffix_fraction = 1.0;
  int compact_every = 0;
  /// The stream sets some weights to non-integers.
  bool fractional_weights = false;
};

/// Non-asserting differential run (shrink candidates must not abort the
/// test): kFail on view != offline recompute, kInvalid when the stream
/// itself does not ingest/build (shrinking can produce such candidates —
/// they are not counterexamples). `first_fail` (optional) receives the
/// first diverging batch index; `why` a human-readable diagnosis;
/// `not_counted` why the view was last not counting ("" if it was).
Outcome CheckStream(const Stream& batches, const Config& config,
                    size_t* first_fail = nullptr,
                    std::string* why = nullptr,
                    std::string* not_counted = nullptr) {
  static int run = 0;  // distinct dir per candidate run
  std::string dir = FreshDir("prop_" + std::to_string(run++));
  ingest::LiveGraph::Options live_options;
  live_options.delta_events_threshold = 0;
  live_options.sync = false;
  live_options.horizon = 500;
  Result<std::unique_ptr<ingest::LiveGraph>> live =
      ingest::LiveGraph::Open(Ctx(), dir, live_options);
  if (!live.ok()) return Outcome::kInvalid;

  ViewDefinition def;
  def.name = "v";
  def.source = dir;
  MaterializedView::Options view_options;
  view_options.max_suffix_fraction = config.max_suffix_fraction;
  MaterializedView view(Ctx(), def, config.pipeline, view_options);

  Outcome outcome = Outcome::kPass;
  for (size_t i = 0; i < batches.size() && outcome == Outcome::kPass; ++i) {
    if (batches[i].empty() || !(*live)->Append(batches[i]).ok()) {
      outcome = Outcome::kInvalid;
      break;
    }
    if (config.compact_every > 0 &&
        (i + 1) % static_cast<size_t>(config.compact_every) == 0 &&
        !(*live)->Compact().ok()) {
      outcome = Outcome::kInvalid;
      break;
    }
    if (!view.Refresh(live->get(), UnixNowUs()).ok()) {
      outcome = Outcome::kInvalid;
      break;
    }
    std::shared_ptr<const ViewSnapshot> cur = view.Current();
    if (cur == nullptr) {
      outcome = Outcome::kInvalid;
      break;
    }
    if (not_counted != nullptr) *not_counted = cur->not_counted;

    TGraphBuilder builder(Ctx());
    for (size_t b = 0; b <= i; ++b) {
      for (const ingest::Event& event : batches[b]) {
        ingest::ApplyEventToBuilder(event, &builder);
      }
    }
    Result<VeGraph> offline_ve = builder.Finish((*live)->horizon());
    if (!offline_ve.ok()) {
      outcome = Outcome::kInvalid;
      break;
    }
    Result<TGraph> offline =
        config.pipeline.Run(TGraph::FromVe(*offline_ve, true));
    if (!offline.ok()) {
      outcome = Outcome::kInvalid;
      break;
    }
    Result<TGraph> published = cur->Graph();
    if (!published.ok() ||
        testing::Canonical(*published) != testing::Canonical(*offline)) {
      outcome = Outcome::kFail;
      if (first_fail != nullptr) *first_fail = i;
      if (why != nullptr) {
        *why = "view diverged from offline recompute at batch " +
               std::to_string(i) + " (view version " +
               std::to_string(cur->version) + ", applied_deltas " +
               std::to_string(cur->applied_deltas) + ", full_rebuilds " +
               std::to_string(cur->full_rebuilds) + ")";
      }
    }
  }
  (void)(*live)->Close();
  std::filesystem::remove_all(dir);
  return outcome;
}

/// Greedy delta-debugging: truncation happened before the call (the
/// caller passes the failing prefix); here we repeatedly drop whole
/// batches, then single events, keeping any candidate on which `check`
/// still fails, until a fixpoint. Candidates that turn kInvalid are
/// rejected, so the result is always a valid, still-failing stream.
Stream Shrink(Stream stream,
              const std::function<Outcome(const Stream&)>& check) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = stream.size(); i-- > 0;) {
      Stream candidate = stream;
      candidate.erase(candidate.begin() + static_cast<long>(i));
      if (check(candidate) == Outcome::kFail) {
        stream = std::move(candidate);
        progress = true;
      }
    }
    for (size_t i = stream.size(); i-- > 0;) {
      for (size_t j = stream[i].size(); j-- > 0;) {
        Stream candidate = stream;
        candidate[i].erase(candidate[i].begin() + static_cast<long>(j));
        if (candidate[i].empty()) {
          candidate.erase(candidate.begin() + static_cast<long>(i));
        }
        if (check(candidate) == Outcome::kFail) {
          stream = std::move(candidate);
          progress = true;
          if (i >= stream.size()) break;
          j = std::min(j, stream[i].size());
        }
      }
    }
  }
  return stream;
}

std::string RenderStream(const Stream& stream) {
  std::string out;
  for (size_t i = 0; i < stream.size(); ++i) {
    out += "# batch " + std::to_string(i) + "\n";
    for (const ingest::Event& event : stream[i]) {
      out += event.ToString() + "\n";
    }
  }
  return out;
}

/// Derives a deterministic maintenance configuration from the seed,
/// cycling through pipelines, aggregate lists (COUNT, SUM, AVG, MIN and
/// MAX drawn independently, sometimes made opaque), integer-only or
/// fractional weights, fallback pressure (max_suffix_fraction 0
/// recomputes every epoch), and compaction interleavings.
Config ConfigForSeed(uint64_t seed) {
  Config config;
  Rng rng(seed * 7919 + 1);
  const AggregateSpec kinds[] = {{"n", AggKind::kCount, ""},
                                 {"total", AggKind::kSum, "weight"},
                                 {"mean", AggKind::kAvg, "weight"},
                                 {"low", AggKind::kMin, "weight"},
                                 {"high", AggKind::kMax, "weight"}};
  std::vector<AggregateSpec> aggregates;
  std::string names;
  for (const AggregateSpec& kind : kinds) {
    if (rng.NextBounded(2) == 0) continue;
    aggregates.push_back(kind);
    names += (names.empty() ? "" : ",") + kind.output_property;
  }
  Pipeline zoom;
  zoom.AZoom(GroupZoom(aggregates));
  if (rng.NextBounded(5) == 0) {
    zoom = testing::WithoutAggregateSpecs(zoom);
    names += " opaque";
  }
  const std::string azoom = "azoom(" + names + ")";
  config.fractional_weights = rng.NextBounded(2) == 0;
  switch (seed % 4) {
    case 0:
      config.pipeline = zoom;
      config.pipeline_name = azoom;
      break;
    case 1:
      config.pipeline.WZoom(WZoomSpec{
          WindowSpec::TimePoints(static_cast<int64_t>(3 + seed % 4))});
      config.pipeline_name = "wzoom" + std::to_string(3 + seed % 4);
      break;
    case 2:
      config.pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(4)});
      config.pipeline.Then(zoom.steps().front());
      config.pipeline.Convert(Representation::kOg);
      config.pipeline_name = "wzoom4+" + azoom + "+og";
      break;
    default: {
      const Representation rep =
          seed % 8 == 3 ? Representation::kOgc : Representation::kRg;
      config.pipeline = zoom;
      config.pipeline.Convert(rep);
      config.pipeline_name = azoom + "+" + RepresentationName(rep);
      break;
    }
  }
  const double fractions[] = {1.0, 0.0, 0.5};
  config.max_suffix_fraction = fractions[(seed / 4) % 3];
  config.compact_every = static_cast<int>((seed / 12) % 3);
  return config;
}

TEST(ViewProperty, MaintainedViewEqualsRecomputeUnderFuzzedStreams) {
  // Why the views were not counting, over all seeds: every named
  // fallback must fire, and counting itself ("").
  std::set<std::string> reasons;
  for (uint64_t seed = 100; seed < 140; ++seed) {
    Config config = ConfigForSeed(seed);
    Stream stream = FuzzStream(seed, 40, config.fractional_weights);
    size_t first_fail = 0;
    std::string why;
    std::string not_counted;
    Outcome outcome =
        CheckStream(stream, config, &first_fail, &why, &not_counted);
    ASSERT_NE(outcome, Outcome::kInvalid)
        << "generator produced an invalid stream for seed " << seed;
    reasons.insert(not_counted);
    if (outcome == Outcome::kPass) continue;

    // Counterexample: shrink to a minimal failing stream and report it.
    stream.resize(first_fail + 1);
    Stream minimal = Shrink(
        std::move(stream),
        [&config](const Stream& s) { return CheckStream(s, config); });
    size_t events = 0;
    for (const auto& batch : minimal) events += batch.size();
    ADD_FAILURE() << "seed " << seed << " (pipeline "
                  << config.pipeline_name << ", max_suffix_fraction "
                  << config.max_suffix_fraction << ", compact_every "
                  << config.compact_every << "): " << why
                  << "\nminimal failing stream (" << minimal.size()
                  << " batches, " << events << " events):\n"
                  << RenderStream(minimal);
  }
  for (const char* reason :
       {"", "min-max-aggregate", "hand-built-aggregator", "non-integer-value",
        "slice-or-wzoom", "convert-to-ogc", "max-suffix-fraction-0"}) {
    EXPECT_EQ(reasons.count(reason), 1u)
        << "no seed exercised not_counted='" << reason << "'";
  }
}

// The shrinker itself needs a test it can fail (it only runs for real on
// regressions): against a synthetic predicate, it must reduce a fuzzed
// stream to the exact minimal form.

TEST(ViewProperty, ShrinkerFindsMinimalStreamForSyntheticPredicate) {
  // Predicate: the stream contains at least 3 add-edge events. The unique
  // minimal failing form is 3 add-edge events and nothing else.
  auto at_least_three_edges = [](const Stream& stream) {
    size_t edges = 0;
    for (const auto& batch : stream) {
      for (const ingest::Event& event : batch) {
        if (event.kind == ingest::EventKind::kAddEdge) ++edges;
      }
    }
    return edges >= 3 ? Outcome::kFail : Outcome::kPass;
  };
  Stream stream = FuzzStream(42, 60);
  ASSERT_EQ(at_least_three_edges(stream), Outcome::kFail)
      << "seed 42 generated fewer than 3 edges; pick another seed";
  Stream minimal = Shrink(std::move(stream), at_least_three_edges);
  size_t events = 0;
  for (const auto& batch : minimal) {
    for (const ingest::Event& event : batch) {
      ++events;
      EXPECT_EQ(event.kind, ingest::EventKind::kAddEdge)
          << RenderStream(minimal);
    }
  }
  EXPECT_EQ(events, 3u) << RenderStream(minimal);
}

TEST(ViewProperty, ShrinkerPreservesInvalidityBoundary) {
  // An invalid candidate must never be accepted as a counterexample:
  // CheckStream reports kInvalid for it, and Shrink keeps the last valid
  // failing stream instead. Reversing a multi-batch stream makes Append
  // reject it (timestamps must be strictly increasing).
  Config config = ConfigForSeed(100);
  Stream stream = FuzzStream(123, 30);
  EXPECT_EQ(CheckStream(stream, config), Outcome::kPass);
  Stream reversed(stream.rbegin(), stream.rend());
  EXPECT_EQ(CheckStream(reversed, config), Outcome::kInvalid);
}

}  // namespace
}  // namespace tgraph::views
