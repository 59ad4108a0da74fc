#include "views/view.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tgraph/incremental.h"
#include "tgraph/ve.h"

namespace tgraph::views {

namespace {

int64_t UnixNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MaterializedView::MaterializedView(dataflow::ExecutionContext* ctx,
                                   ViewDefinition definition,
                                   Pipeline pipeline, Options options)
    : ctx_(ctx),
      definition_(std::move(definition)),
      pipeline_(pipeline.Optimized()),
      final_rep_(incremental::FinalRepresentation(pipeline_,
                                                 Representation::kVe)),
      options_(std::move(options)) {}

Result<TGraph> ViewSnapshot::Graph() const {
  Published& published = *published_;
  std::call_once(published.once, [&] {
    TGraph graph = TGraph::FromVe(content.ToVe(published.ctx),
                                  /*coalesced=*/true);
    published.graph = graph.As(published.rep);
    if (published.graph.ok()) published.graph->Materialize();
  });
  return published.graph;
}

std::shared_ptr<ViewSnapshot> MaterializedView::MakeSnapshot(
    ViewContent content) const {
  // Render once at publish: canonical sorted VE lines hashed into a
  // content fingerprint. The text carries no version or epoch, so the
  // incremental and full-recompute paths — and a post-restart rebuild —
  // produce byte-identical output for identical content.
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(content.Hash()));
  const Interval lifetime = content.lifetime();
  std::ostringstream out;
  out << "view " << definition_.name << " ["
      << RepresentationName(final_rep_) << "] lifetime [" << lifetime.start
      << "," << lifetime.end << "): " << content.vertex_records()
      << " vertex records, " << content.edge_records() << " edge records\n"
      << "content " << hex << "\n";
  auto snapshot =
      std::make_shared<ViewSnapshot>(ctx_, final_rep_, std::move(content));
  snapshot->rendered = out.str();
  return snapshot;
}

Result<std::shared_ptr<ViewSnapshot>> MaterializedView::FullRebuild(
    const TGraph& source, const ViewSnapshot* prev,
    const std::string& reason) const {
  obs::Span span("views.full_rebuild", "views");
  TG_ASSIGN_OR_RETURN(TGraph output, pipeline_.Run(source));
  TG_ASSIGN_OR_RETURN(TGraph output_ve, output.As(Representation::kVe));
  std::shared_ptr<ViewSnapshot> next =
      MakeSnapshot(ViewContent::Build(output_ve.ve()));
  next->applied_deltas = prev != nullptr ? prev->applied_deltas : 0;
  next->full_rebuilds = (prev != nullptr ? prev->full_rebuilds : 0) + 1;
  next->last_fallback = reason;
  return next;
}

Result<std::shared_ptr<ViewSnapshot>> MaterializedView::ApplyDelta(
    const TGraph& source, const ViewSnapshot& prev, TimePoint cut) const {
  obs::Span span("views.apply_delta", "views");
  TGraph suffix_source =
      source.Slice(Interval(cut, source.lifetime().end));
  TG_ASSIGN_OR_RETURN(TGraph output, pipeline_.Run(suffix_source));
  TG_ASSIGN_OR_RETURN(TGraph output_ve, output.As(Representation::kVe));
  std::shared_ptr<ViewSnapshot> next =
      MakeSnapshot(prev.content.Splice(output_ve.ve(), cut));
  next->applied_deltas = prev.applied_deltas + 1;
  next->full_rebuilds = prev.full_rebuilds;
  next->last_fallback = prev.last_fallback;
  return next;
}

Status MaterializedView::Refresh(ingest::LiveGraph* live,
                                 int64_t published_unix_us) {
  static obs::Counter* refreshes = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kViewRefreshes);
  static obs::Counter* applied = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kViewAppliedDeltas);
  static obs::Counter* rebuilds = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kViewFullRebuilds);
  static obs::Histogram* apply_micros =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kViewApplyMicros);
  static obs::Histogram* staleness_micros =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::metric_names::kViewStalenessMicros);

  std::unique_lock<std::mutex> lock(apply_mu_);
  std::shared_ptr<const ingest::LiveSnapshot> snap = live->snapshot();
  std::shared_ptr<const ViewSnapshot> cur = Current();
  // Refresh calls race (epoch listeners, the compactor, query-triggered
  // refreshes); whoever arrives with a stale epoch under the apply lock
  // leaves — versions only move forward.
  if (cur != nullptr && cur->source_epoch >= snap->epoch()) {
    return Status::OK();
  }

  obs::Span span("views.refresh", "views");
  const auto started = std::chrono::steady_clock::now();
  TG_ASSIGN_OR_RETURN(const VeGraph* source_ve, snap->Graph());
  // The live graph's VE is its folded state, coalesced per entity (the
  // ingest differential tests pin that property).
  TGraph source = TGraph::FromVe(*source_ve, /*coalesced=*/true);
  const TimePoint watermark = snap->watermark();

  std::shared_ptr<ViewSnapshot> next;
  std::string fallback_fired;  // non-empty => on_fallback after unlock
  if (cur == nullptr) {
    TG_ASSIGN_OR_RETURN(next, FullRebuild(source, nullptr, "initial"));
    rebuilds->Increment();
  } else if (watermark == cur->watermark) {
    // No new events (a compaction-only epoch): the content is unchanged,
    // so share content/graph/rendering and just advance version+epoch.
    next = std::make_shared<ViewSnapshot>(*cur);
  } else {
    // The earliest timestamp this delta could touch. When compaction
    // folded epochs we never saw into the base, the delta partition no
    // longer addresses them — but every folded event was at or above
    // cur->watermark + 1, which is therefore always a sound lower bound.
    TimePoint t_min;
    if (snap->base_watermark() > cur->watermark) {
      t_min = cur->watermark + 1;
    } else {
      t_min = std::numeric_limits<TimePoint>::max();
      for (const auto& batch : snap->delta().batches()) {
        for (const ingest::Event& event : batch->events) {
          if (event.at > cur->watermark) t_min = std::min(t_min, event.at);
        }
      }
      if (t_min == std::numeric_limits<TimePoint>::max()) {
        t_min = cur->watermark + 1;
      }
    }
    // Plan against the data span [start, watermark] rather than the raw
    // lifetime: the lifetime runs to the ingest horizon (typically far
    // past the last event), which would make every suffix look like
    // ~100% of the view and trip the suffix-fraction fallback forever.
    const Interval data_span(
        source.lifetime().start,
        std::min(source.lifetime().end, watermark + 1));
    incremental::DeltaPlan plan =
        incremental::PlanDelta(pipeline_, data_span, t_min,
                               options_.max_suffix_fraction);
    std::string reason = plan.fallback_reason;
    if (plan.incremental) {
      Result<std::shared_ptr<ViewSnapshot>> spliced =
          ApplyDelta(source, *cur, plan.cut);
      if (spliced.ok()) {
        next = *std::move(spliced);
        applied->Increment();
      } else {
        reason = "apply-error: " + spliced.status().message();
      }
    }
    if (next == nullptr) {
      TG_ASSIGN_OR_RETURN(next, FullRebuild(source, cur.get(), reason));
      rebuilds->Increment();
      fallback_fired = reason;
    }
  }

  next->version = (cur != nullptr ? cur->version : 0) + 1;
  next->source_epoch = snap->epoch();
  next->watermark = watermark;
  next->refreshed_unix_us = UnixNowUs();
  current_.store(std::shared_ptr<const ViewSnapshot>(std::move(next)),
                 std::memory_order_release);

  refreshes->Increment();
  apply_micros->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count());
  staleness_micros->Record(
      std::max<int64_t>(0, UnixNowUs() - published_unix_us));

  lock.unlock();
  if (!fallback_fired.empty() && options_.on_fallback) {
    options_.on_fallback(definition_.name, fallback_fired);
  }
  return Status::OK();
}

}  // namespace tgraph::views
