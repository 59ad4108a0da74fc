#include "tql/pipeline_build.h"

#include <utility>

namespace tgraph::tql {

AZoomSpec BuildAZoomSpec(const AZoomExpr& expr) {
  AZoomSpec spec;
  spec.group_of = GroupByProperty(expr.group_by);
  std::vector<AggregateSpec> aggregates;
  for (const AggregateClause& agg : expr.aggregates) {
    aggregates.push_back(AggregateSpec{agg.output, agg.kind, agg.input});
  }
  std::string new_type = expr.new_type.empty() ? expr.group_by : expr.new_type;
  spec.aggregator =
      MakeAggregator(new_type, expr.group_by, std::move(aggregates));
  spec.edge_type = expr.edge_type;
  return spec;
}

WZoomSpec BuildWZoomSpec(const WZoomExpr& expr) {
  WZoomSpec spec{expr.by_changes ? WindowSpec::Changes(expr.window)
                                 : WindowSpec::TimePoints(expr.window),
                 expr.nodes,
                 expr.edges,
                 {},
                 {}};
  for (const ResolveClause& resolve : expr.resolves) {
    spec.vertex_resolve.overrides.emplace_back(resolve.attribute,
                                               resolve.resolver);
    spec.edge_resolve.overrides.emplace_back(resolve.attribute,
                                             resolve.resolver);
  }
  return spec;
}

std::optional<Pipeline::Step> LowerExpr(const Expr& expr) {
  if (const auto* azoom = std::get_if<AZoomExpr>(&expr)) {
    return Pipeline::AZoomStep{BuildAZoomSpec(*azoom)};
  }
  if (const auto* wzoom = std::get_if<WZoomExpr>(&expr)) {
    return Pipeline::WZoomStep{BuildWZoomSpec(*wzoom)};
  }
  if (const auto* slice = std::get_if<SliceExpr>(&expr)) {
    return Pipeline::SliceStep{Interval(slice->from, slice->to)};
  }
  if (std::holds_alternative<CoalesceExpr>(expr)) {
    return Pipeline::CoalesceStep{};
  }
  if (const auto* convert = std::get_if<ConvertExpr>(&expr)) {
    return Pipeline::ConvertStep{convert->target};
  }
  return std::nullopt;
}

Result<Pipeline> BuildViewPipeline(const std::vector<Expr>& stages) {
  Pipeline pipeline;
  for (const Expr& stage : stages) {
    std::optional<Pipeline::Step> step = LowerExpr(stage);
    if (!step.has_value()) {
      return Status::InvalidArgument(
          "view stages must be AZOOM, WZOOM, SLICE, COALESCE, or CONVERT");
    }
    pipeline.Then(*std::move(step));
  }
  if (pipeline.steps().empty()) {
    return Status::InvalidArgument("a view needs at least one stage");
  }
  return pipeline;
}

}  // namespace tgraph::tql
