#ifndef TGRAPH_TQL_PIPELINE_BUILD_H_
#define TGRAPH_TQL_PIPELINE_BUILD_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "tgraph/pipeline.h"
#include "tgraph/zoom_spec.h"
#include "tql/ast.h"

namespace tgraph::tql {

/// The one lowering of TQL operator expressions to pipeline steps, shared
/// by the interpreter (`SET g = AZOOM ...` chains) and the view registry
/// (`CREATE VIEW ... AS AZOOM ...`), so the two can never drift apart
/// semantically.

/// The AZoomSpec an AZOOM clause denotes (grouping, aggregates, types).
AZoomSpec BuildAZoomSpec(const AZoomExpr& expr);

/// The WZoomSpec a WZOOM clause denotes (window, quantifiers, resolves).
WZoomSpec BuildWZoomSpec(const WZoomExpr& expr);

/// The pipeline step an AZOOM/WZOOM/SLICE/COALESCE/CONVERT expression
/// denotes; nullopt for expressions that are not pipeline steps (a bare
/// name, SUBGRAPH).
std::optional<Pipeline::Step> LowerExpr(const Expr& expr);

/// Lowers a view's stage chain to a tgraph::Pipeline. Stages must be
/// sourceless AZOOM/WZOOM/SLICE/COALESCE/CONVERT expressions (the parser
/// guarantees this for CREATE VIEW; anything else is InvalidArgument).
Result<Pipeline> BuildViewPipeline(const std::vector<Expr>& stages);

}  // namespace tgraph::tql

#endif  // TGRAPH_TQL_PIPELINE_BUILD_H_
