// The headline harness of the view subsystem: after EVERY ingested batch,
// a maintained view must equal an offline recompute of its pipeline over
// the full event history — across all four representations (RG, VE, OG,
// OGC), for fuzzed streams with removals, re-adds, and property splits.
//
// Three oracles back each assertion:
//  - a from-scratch pipeline run over an offline TGraphBuilder build of
//    the event prefix (canonical VE comparison),
//  - a second MaterializedView forced to full-recompute every epoch
//    (max_suffix_fraction = 0), and
//  - a suffix-path twin: the same pipeline with its aggregators' spec
//    lists cleared, so it cannot count and re-runs the suffix instead.
// The view under test counts whenever its pipeline qualifies; its
// rendered output must be byte-identical to both twins' — renders carry
// no version or epoch precisely so this holds.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "ingest/event.h"
#include "ingest/live_graph.h"
#include "test_util.h"
#include "view_test_util.h"
#include "views/view.h"

namespace tgraph::views {
namespace {

using testing::FreshDir;
using testing::FuzzStream;
using testing::GroupZoom;
using testing::OfflineBuild;
using testing::UnixNowUs;
namespace fs = std::filesystem;

// --- the harness -----------------------------------------------------------

struct RunStats {
  uint64_t applied_deltas = 0;
  uint64_t counted_deltas = 0;
  uint64_t full_rebuilds = 0;
};

/// Ingests `batches` one by one; after each, refreshes the view under
/// test, the always-recompute oracle and the suffix-path twin, and asserts
///  view == offline recompute (canonical content),
///  view.rendered == ReferenceRender(offline recompute) and
///  view.rendered == oracle.rendered == twin.rendered (byte-identical).
/// When the pipeline qualifies for counting, every epoch with new events
/// after a view's first build must be counted. `compact_every` > 0
/// interleaves LSM compactions; `reopen_every` > 0 closes and reopens the
/// live graph and registers fresh views, as a restarted server does.
/// (void: ASSERT_* needs a void-returning function; counters come back
/// via `stats`.)
void RunDifferential(const std::string& tag, Pipeline pipeline,
                     const std::vector<std::vector<ingest::Event>>& batches,
                     RunStats* stats = nullptr, int compact_every = 0,
                     int reopen_every = 0) {
  std::string dir = FreshDir(tag);
  ingest::LiveGraph::Options live_options;
  live_options.delta_events_threshold = 0;
  live_options.sync = false;
  // Keep the horizon near the data: wZoom windows tile the full lifetime,
  // and the default horizon is 10^12.
  live_options.horizon = 500;
  Result<std::unique_ptr<ingest::LiveGraph>> live =
      ingest::LiveGraph::Open(testing::Ctx(), dir, live_options);
  TG_CHECK(live.ok()) << live.status();

  ViewDefinition def;
  def.name = "v";
  def.source = dir;
  const bool counts = CountingFallback(pipeline.Optimized()).empty();
  const Pipeline twin_pipeline = testing::WithoutAggregateSpecs(pipeline);
  // Without an aZoom the twin would be the view itself.
  const bool has_azoom = std::any_of(
      pipeline.steps().begin(), pipeline.steps().end(),
      [](const Pipeline::Step& step) {
        return std::holds_alternative<Pipeline::AZoomStep>(step);
      });
  std::unique_ptr<MaterializedView> view;
  std::unique_ptr<MaterializedView> oracle;
  std::unique_ptr<MaterializedView> twin;
  auto register_views = [&] {
    view = std::make_unique<MaterializedView>(testing::Ctx(), def, pipeline,
                                              MaterializedView::Options{});
    MaterializedView::Options oracle_options;
    oracle_options.max_suffix_fraction = 0.0;  // recompute every epoch
    oracle = std::make_unique<MaterializedView>(testing::Ctx(), def,
                                                pipeline, oracle_options);
    if (has_azoom) {
      twin = std::make_unique<MaterializedView>(
          testing::Ctx(), def, twin_pipeline, MaterializedView::Options{});
    }
  };
  register_views();

  const TimePoint horizon = (*live)->horizon();
  const Representation rep = view->representation();
  uint64_t version = 0;
  uint64_t counted = 0;
  uint64_t earlier_counted = 0;  // by views registered before a reopen
  // Refreshes the three views at the current epoch and checks them
  // against the offline recompute of the first `prefix` batches.
  // `new_events`: the epoch folded events the views have not seen.
  auto check = [&](size_t prefix, const std::string& where,
                   bool new_events) {
    ASSERT_TRUE(view->Refresh(live->get(), UnixNowUs()).ok()) << where;
    ASSERT_TRUE(oracle->Refresh(live->get(), UnixNowUs()).ok()) << where;
    if (twin != nullptr) {
      ASSERT_TRUE(twin->Refresh(live->get(), UnixNowUs()).ok()) << where;
    }

    std::shared_ptr<const ViewSnapshot> cur = view->Current();
    ASSERT_NE(cur, nullptr) << where;
    EXPECT_EQ(cur->version, ++version) << where;

    Result<TGraph> offline = pipeline.Run(
        TGraph::FromVe(OfflineBuild(batches, prefix, horizon), true));
    ASSERT_TRUE(offline.ok()) << where << ": " << offline.status();
    Result<TGraph> published = cur->Graph();
    ASSERT_TRUE(published.ok()) << where << ": " << published.status();
    EXPECT_EQ(testing::Canonical(*published), testing::Canonical(*offline))
        << where << ": view diverged from offline recompute";

    // The per-entity render cache must reproduce the reference render of
    // the offline recompute byte for byte, and so must both twins.
    Result<TGraph> offline_ve = offline->As(Representation::kVe);
    ASSERT_TRUE(offline_ve.ok()) << where << ": " << offline_ve.status();
    EXPECT_EQ(cur->rendered, testing::ReferenceRender(
                                 "v", rep, offline_ve->ve().Coalesce()))
        << where << ": render != reference render";
    std::shared_ptr<const ViewSnapshot> oracle_cur = oracle->Current();
    ASSERT_NE(oracle_cur, nullptr);
    EXPECT_EQ(cur->rendered, oracle_cur->rendered)
        << where << ": incremental render != recompute render";
    if (twin != nullptr) {
      std::shared_ptr<const ViewSnapshot> twin_cur = twin->Current();
      ASSERT_NE(twin_cur, nullptr);
      EXPECT_EQ(cur->rendered, twin_cur->rendered)
          << where << ": incremental render != suffix-path render";
      EXPECT_EQ(twin_cur->counted_deltas, 0u) << where;
      EXPECT_NE(twin_cur->not_counted, "") << where;
    }

    if (counts) {
      if (new_events && cur->version > 1) ++counted;
      EXPECT_EQ(cur->counted_deltas, counted)
          << where << ": an epoch was not counted";
      EXPECT_EQ(cur->full_rebuilds, 1u) << where;
      EXPECT_EQ(cur->not_counted, "") << where;
    }
    if (stats != nullptr) {
      stats->applied_deltas = cur->applied_deltas;
      stats->counted_deltas = earlier_counted + cur->counted_deltas;
      stats->full_rebuilds = cur->full_rebuilds;
    }
  };

  for (size_t i = 0; i < batches.size(); ++i) {
    const std::string where = tag + " batch " + std::to_string(i);
    Result<uint64_t> seq = (*live)->Append(batches[i]);
    ASSERT_TRUE(seq.ok()) << where << ": " << seq.status();
    // Compactions alternate between folding an epoch the views have not
    // seen yet and publishing a compaction-only epoch after they have.
    const bool compact =
        compact_every > 0 && (i + 1) % compact_every == 0;
    const bool compact_unseen =
        compact && ((i + 1) / compact_every) % 2 == 1;
    if (compact_unseen) {
      ASSERT_TRUE((*live)->Compact().ok()) << where;
    }
    check(i + 1, where, /*new_events=*/true);
    if (::testing::Test::HasFatalFailure()) return;
    if (compact && !compact_unseen) {
      ASSERT_TRUE((*live)->Compact().ok()) << where;
      check(i + 1, where + " (compaction-only epoch)", false);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if (reopen_every > 0 && (i + 1) % reopen_every == 0) {
      ASSERT_TRUE((*live)->Close().ok()) << where;
      live = ingest::LiveGraph::Open(testing::Ctx(), dir, live_options);
      ASSERT_TRUE(live.ok()) << where << ": " << live.status();
      earlier_counted += view->Current()->counted_deltas;
      register_views();
      version = 0;
      counted = 0;
      check(i + 1, where + " (reopened)", false);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ASSERT_TRUE((*live)->Close().ok());
  fs::remove_all(dir);
}

const Representation kReps[] = {Representation::kRg, Representation::kVe,
                                Representation::kOg, Representation::kOgc};

TEST(ViewDifferential, AZoomAcrossRepresentationsAndSeeds) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto batches = FuzzStream(seed, 60);
    for (Representation rep : kReps) {
      Pipeline pipeline;
      pipeline.AZoom(GroupZoom());
      pipeline.Convert(rep);
      std::string tag = std::string("azoom_") + RepresentationName(rep) +
                        "_s" + std::to_string(seed);
      RunStats stats;
      RunDifferential(tag, pipeline, batches, &stats);
      // The instantaneous pipeline must actually exercise the splice
      // path, not pass trivially by recomputing every epoch.
      EXPECT_GT(stats.applied_deltas, 0u) << tag;
    }
  }
}

TEST(ViewDifferential,
     CountingTwinCountsEveryEpochAcrossCompactionsAndReopens) {
  // COUNT, SUM and AVG over integer weights: the counting path applies
  // every epoch (RunDifferential checks that), through compaction-only
  // epochs, compactions that fold unseen epochs, and restarts, and stays
  // byte-identical to the recompute and suffix-path twins.
  for (uint64_t seed : {9u, 10u}) {
    auto batches = FuzzStream(seed, 70);
    for (Representation rep :
         {Representation::kVe, Representation::kOg, Representation::kRg}) {
      Pipeline pipeline;
      pipeline.AZoom(GroupZoom({{"n", AggKind::kCount, ""},
                                {"total", AggKind::kSum, "weight"},
                                {"mean", AggKind::kAvg, "weight"}}));
      pipeline.Convert(rep);
      const std::string tag = std::string("counting_") +
                              RepresentationName(rep) + "_s" +
                              std::to_string(seed);
      ASSERT_EQ(CountingFallback(pipeline.Optimized()), "") << tag;
      RunStats stats;
      RunDifferential(tag, pipeline, batches, &stats, /*compact_every=*/3,
                      /*reopen_every=*/7);
      EXPECT_GT(stats.counted_deltas, 10u) << tag;
    }
  }
}

TEST(ViewDifferential, WZoomAcrossRepresentationsAndSeeds) {
  for (uint64_t seed : {4u, 5u}) {
    auto batches = FuzzStream(seed, 60);
    for (Representation rep : kReps) {
      Pipeline pipeline;
      pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(4)});
      pipeline.Convert(rep);
      std::string tag = std::string("wzoom_") + RepresentationName(rep) +
                        "_s" + std::to_string(seed);
      RunDifferential(tag, pipeline, batches);
    }
  }
}

TEST(ViewDifferential, ChainedZoomsWithCompactionInterleaved) {
  // wZoom feeding aZoom, with an LSM compaction every other batch: the
  // view must stay equal to the offline recompute across base+delta
  // boundary moves (compaction folds epochs the view has already seen —
  // and some it hasn't).
  for (uint64_t seed : {6u, 7u}) {
    auto batches = FuzzStream(seed, 50);
    Pipeline pipeline;
    pipeline.WZoom(WZoomSpec{WindowSpec::TimePoints(3)});
    pipeline.AZoom(GroupZoom());
    RunDifferential("chained_s" + std::to_string(seed), pipeline, batches,
                    /*stats=*/nullptr, /*compact_every=*/2);
  }
}

TEST(ViewDifferential, ChangesWindowFallsBackYetStaysCorrect) {
  // CHANGES windows are never incrementally maintainable; the view must
  // take the fallback path every epoch and still match the recompute.
  auto batches = FuzzStream(8, 40);
  Pipeline pipeline;
  pipeline.WZoom(WZoomSpec{WindowSpec::Changes(3)});
  RunStats stats;
  RunDifferential("changes", pipeline, batches, &stats);
  EXPECT_EQ(stats.applied_deltas, 0u);
  EXPECT_GE(stats.full_rebuilds, batches.size());
}

}  // namespace
}  // namespace tgraph::views
