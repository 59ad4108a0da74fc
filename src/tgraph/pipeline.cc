#include "tgraph/pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgraph {

namespace {

// Records one optimizer rewrite: the aggregate counter, a per-rule
// counter, and an INFO log naming the rule — so "what did the optimizer
// buy" is answerable from a trace or a log alone.
void NoteRuleFired(const char* rule) {
  static obs::Counter* total = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kOptimizerRulesFired);
  total->Increment();
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("pipeline.optimizer.rule.") + rule)
      ->Increment();
  TG_LOG(INFO) << "pipeline optimizer fired rule: " << rule;
}

}  // namespace

bool Pipeline::ZoomReorderSafe(const WZoomSpec& spec) {
  auto exists_like = [](const Quantifier& quantifier) {
    return quantifier.threshold() == 0.0 && quantifier.strict();
  };
  return exists_like(spec.vertex_quantifier) &&
         exists_like(spec.edge_quantifier);
}

Pipeline Pipeline::Optimized(const Hints& hints) const {
  std::vector<Step> steps = steps_;

  // Rule 1 — lazy coalescing: an explicit Coalesce is redundant everywhere
  // (aZoom^T tolerates uncoalesced input; wZoom^T and conversion to a
  // compact representation coalesce internally via the facade), except as
  // the very last step, where it fixes the final result's form.
  for (size_t i = 0; i + 1 < steps.size();) {
    if (std::holds_alternative<CoalesceStep>(steps[i])) {
      steps.erase(steps.begin() + static_cast<int64_t>(i));
      NoteRuleFired("lazy_coalesce");
    } else {
      ++i;
    }
  }

  // Rule 2 — slice pushdown: aZoom^T evaluates per snapshot, so slicing
  // commutes with it; doing the slice first shrinks the zoom's input.
  bool moved = true;
  while (moved) {
    moved = false;
    for (size_t i = 0; i + 1 < steps.size(); ++i) {
      if (std::holds_alternative<AZoomStep>(steps[i]) &&
          std::holds_alternative<SliceStep>(steps[i + 1])) {
        std::swap(steps[i], steps[i + 1]);
        NoteRuleFired("slice_pushdown");
        moved = true;
      }
    }
  }

  // Rule 3 — operator reordering (Section 5.3): with change-free vertex
  // attributes and existential quantification on both sides, wZoom^T and
  // aZoom^T commute, and aZoom-first is the faster order for growth-only
  // data (Figure 17).
  if (hints.attributes_stable) {
    moved = true;
    while (moved) {
      moved = false;
      for (size_t i = 0; i + 1 < steps.size(); ++i) {
        const auto* wzoom = std::get_if<WZoomStep>(&steps[i]);
        if (wzoom == nullptr ||
            !std::holds_alternative<AZoomStep>(steps[i + 1])) {
          continue;
        }
        if (!ZoomReorderSafe(wzoom->spec)) continue;
        std::swap(steps[i], steps[i + 1]);
        NoteRuleFired("azoom_before_wzoom");
        moved = true;
      }
    }
  }

  // Rule 4 — representation stability (Figure 16): bouncing between
  // representations mid-chain never recovers the conversion cost (the
  // paper's finding, confirmed by bench/ablation_optimizer), so mid-chain
  // Convert steps are removed. A final, user-requested conversion shapes
  // the result and is preserved — as is any mid-chain conversion to OGC:
  // OGC is lossy (attribute values collapse to types), so dropping it
  // would change what downstream steps see, not just how fast they run.
  // The optimizer deliberately does NOT insert an up-front conversion:
  // when the input arrives in VE, paying a VE->OG conversion for a single
  // zoom costs more than it saves.
  if (hints.drop_mid_chain_conversions && !steps.empty()) {
    std::optional<ConvertStep> final_convert;
    if (const auto* convert = std::get_if<ConvertStep>(&steps.back())) {
      final_convert = *convert;
      steps.pop_back();
    }
    std::vector<Step> kept;
    kept.reserve(steps.size());
    // Whether the graph is OGC at this point in the chain. Per the hint's
    // contract the input is not; only an explicit Convert changes it. A
    // conversion *off* OGC is semantic — it restores aZoom support — so
    // it survives even though its target is lossless.
    bool rep_is_ogc = false;
    for (Step& step : steps) {
      if (const auto* convert = std::get_if<ConvertStep>(&step)) {
        if (convert->target == Representation::kOgc) {
          rep_is_ogc = true;
          kept.push_back(std::move(step));
        } else if (rep_is_ogc) {
          rep_is_ogc = false;
          kept.push_back(std::move(step));
        } else {
          NoteRuleFired("drop_conversion");
        }
        continue;
      }
      kept.push_back(std::move(step));
    }
    steps = std::move(kept);
    if (final_convert.has_value()) steps.push_back(*final_convert);
  }

  Pipeline optimized;
  optimized.steps_ = std::move(steps);
  return optimized;
}

namespace {

/// Per step kind, in Step's order (opt::OpKind lists the kinds in the
/// same order): the trace span and the EXPLAIN stage label.
constexpr struct {
  const char* span;
  const char* label;
} kStepNames[] = {{"pipeline.step.azoom", "AZOOM"},
                  {"pipeline.step.wzoom", "WZOOM"},
                  {"pipeline.step.slice", "SLICE"},
                  {"pipeline.step.coalesce", "COALESCE"},
                  {"pipeline.step.convert", "CONVERT"}};

Result<TGraph> RunStep(const Pipeline::Step& step, const TGraph& input) {
  obs::Span span(kStepNames[step.index()].span, "pipeline");
  if (const auto* azoom = std::get_if<Pipeline::AZoomStep>(&step)) {
    return input.AZoom(azoom->spec);
  }
  if (const auto* wzoom = std::get_if<Pipeline::WZoomStep>(&step)) {
    return input.WZoom(wzoom->spec);
  }
  if (const auto* slice = std::get_if<Pipeline::SliceStep>(&step)) {
    return input.Slice(slice->range);
  }
  if (std::holds_alternative<Pipeline::CoalesceStep>(step)) {
    return input.Coalesce();
  }
  return input.As(std::get<Pipeline::ConvertStep>(step).target);
}

}  // namespace

Result<TGraph> Pipeline::Run(const TGraph& input,
                             const RunOptions& options) const {
  TG_SPAN("pipeline.run", "pipeline");
  // One stage per step; a stats observation is read off its step's stage,
  // so a run that only records stats collects its stages here.
  obs::ExplainCollector own_stages;
  obs::ExplainCollector* stages = options.explain;
  if (stages == nullptr && options.stats != nullptr) stages = &own_stages;
  TGraph current = input;
  for (const Step& step : steps_) {
    if (options.interrupt) TG_RETURN_IF_ERROR(options.interrupt());
    const Representation rep = current.representation();
    std::string detail = std::string("[") + RepresentationName(rep) + "]";
    if (&step == &steps_.front() && !options.input_name.empty()) {
      detail = options.input_name + " " + detail;
    }
    if (const auto* convert = std::get_if<ConvertStep>(&step)) {
      detail += std::string(" -> ") + RepresentationName(convert->target);
    }
    // Rows are counted outside the stage's clock on the way in and inside
    // it on the way out. The step's output is materialized inside its own
    // stage, collected or not, so its shuffles are never charged to
    // whatever reads the result next.
    const int64_t rows_in = stages != nullptr ? current.Materialize() : -1;
    {
      obs::ExplainCollector::Scope stage(
          stages, kStepNames[step.index()].label, std::move(detail));
      TG_ASSIGN_OR_RETURN(current, RunStep(step, current));
      const int64_t rows_out = current.Materialize();
      if (stages != nullptr) stage.set_rows(rows_in, rows_out);
    }
    if (options.stats != nullptr) {
      const obs::StageStats& stage = stages->stages().back();
      options.stats->Observe(
          static_cast<opt::OpKind>(step.index()), rep,
          opt::Observation{stage.wall_us, stage.shuffle_bytes, stage.rows_in,
                           stage.rows_out});
    }
  }
  return current;
}

std::string Pipeline::Explain() const {
  std::string out;
  int index = 1;
  for (const Step& step : steps_) {
    out += std::to_string(index++) + ". ";
    if (const auto* azoom = std::get_if<AZoomStep>(&step)) {
      out += "aZoom";
      if (!azoom->spec.edge_type.empty()) {
        out += " edge_type=" + azoom->spec.edge_type;
      }
    } else if (const auto* wzoom = std::get_if<WZoomStep>(&step)) {
      out += "wZoom window=" + wzoom->spec.window.ToString() +
             " nodes=" + wzoom->spec.vertex_quantifier.ToString() +
             " edges=" + wzoom->spec.edge_quantifier.ToString();
    } else if (const auto* slice = std::get_if<SliceStep>(&step)) {
      out += "slice " + slice->range.ToString();
    } else if (std::holds_alternative<CoalesceStep>(step)) {
      out += "coalesce";
    } else if (const auto* convert = std::get_if<ConvertStep>(&step)) {
      out += std::string("convert to ") + RepresentationName(convert->target);
    }
    out += "\n";
  }
  return out;
}

}  // namespace tgraph
