#include "tql/canonical.h"

#include <cinttypes>
#include <cstdio>

#include "tql/parser.h"

namespace tgraph::tql {

namespace {

/// Quotes a string literal the way the lexer expects it back: single
/// quotes, with embedded quotes doubled ('').
std::string QuoteString(const std::string& text) {
  std::string out = "'";
  for (char c : text) {
    out.push_back(c);
    if (c == '\'') out.push_back('\'');
  }
  out.push_back('\'');
  return out;
}

/// Shortest round-trip double rendering (%.17g always round-trips IEEE
/// doubles; shorter forms are preferred when exact).
std::string FormatDouble(double value) {
  char buffer[64];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    double parsed = 0;
    std::sscanf(buffer, "%lf", &parsed);
    if (parsed == value) break;
  }
  return buffer;
}

std::string FormatLiteral(const PropertyValue& value) {
  switch (value.type()) {
    case PropertyValue::Type::kInt:
      return std::to_string(value.AsInt());
    case PropertyValue::Type::kDouble:
      return FormatDouble(value.AsDouble());
    case PropertyValue::Type::kBool:
      return value.AsBool() ? "TRUE" : "FALSE";
    case PropertyValue::Type::kString:
      return QuoteString(value.AsString());
  }
  return "";
}

const char* ComparisonOpName(Comparison::Op op) {
  switch (op) {
    case Comparison::Op::kEq:
      return "=";
    case Comparison::Op::kNe:
      return "!=";
    case Comparison::Op::kLt:
      return "<";
    case Comparison::Op::kLe:
      return "<=";
    case Comparison::Op::kGt:
      return ">";
    case Comparison::Op::kGe:
      return ">=";
    case Comparison::Op::kHas:
      return "HAS";
  }
  return "?";
}

std::string FormatPredicate(const WherePredicate& predicate) {
  std::string out;
  for (size_t i = 0; i < predicate.size(); ++i) {
    if (i > 0) out += " AND ";
    const Comparison& c = predicate[i];
    if (c.op == Comparison::Op::kHas) {
      out += "HAS(" + c.key + ")";
    } else {
      out += c.key + " " + ComparisonOpName(c.op) + " " +
             FormatLiteral(c.literal);
    }
  }
  return out;
}

std::string FormatQuantifier(const Quantifier& q) {
  if (q.threshold() == 1.0 && !q.strict()) return "ALL";
  if (q.threshold() == 0.5 && q.strict()) return "MOST";
  if (q.threshold() == 0.0 && q.strict()) return "EXISTS";
  return "ATLEAST " + FormatDouble(q.threshold());
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kAvg:
      return "AVG";
  }
  return "?";
}

const char* ResolverName(Resolver resolver) {
  switch (resolver) {
    case Resolver::kFirst:
      return "FIRST";
    case Resolver::kLast:
      return "LAST";
    case Resolver::kAny:
      return "ANY";
  }
  return "?";
}

/// " source" for graph-bound expressions, "" for a view stage (sourceless
/// — it consumes the previous stage).
std::string FormatSource(const std::string& source) {
  return source.empty() ? "" : " " + source;
}

std::string FormatExpr(const Expr& expr) {
  if (const auto* ref = std::get_if<RefExpr>(&expr)) {
    return ref->source;
  }
  if (const auto* azoom = std::get_if<AZoomExpr>(&expr)) {
    std::string out =
        "AZOOM" + FormatSource(azoom->source) + " BY " + azoom->group_by;
    for (size_t i = 0; i < azoom->aggregates.size(); ++i) {
      const AggregateClause& agg = azoom->aggregates[i];
      out += i == 0 ? " AGGREGATE " : ", ";
      out += std::string(AggKindName(agg.kind)) + "(" + agg.input + ") AS " +
             agg.output;
    }
    if (!azoom->new_type.empty() && azoom->new_type != azoom->group_by) {
      out += " TYPE " + QuoteString(azoom->new_type);
    }
    if (!azoom->edge_type.empty()) {
      out += " EDGE TYPE " + QuoteString(azoom->edge_type);
    }
    return out;
  }
  if (const auto* wzoom = std::get_if<WZoomExpr>(&expr)) {
    std::string out = "WZOOM" + FormatSource(wzoom->source) + " WINDOW " +
                      std::to_string(wzoom->window) +
                      (wzoom->by_changes ? " CHANGES" : " POINTS");
    out += " NODES " + FormatQuantifier(wzoom->nodes);
    out += " EDGES " + FormatQuantifier(wzoom->edges);
    for (size_t i = 0; i < wzoom->resolves.size(); ++i) {
      const ResolveClause& resolve = wzoom->resolves[i];
      out += i == 0 ? " RESOLVE " : ", ";
      out += resolve.attribute + " " + ResolverName(resolve.resolver);
    }
    return out;
  }
  if (const auto* slice = std::get_if<SliceExpr>(&expr)) {
    return "SLICE" + FormatSource(slice->source) + " FROM " +
           std::to_string(slice->from) + " TO " + std::to_string(slice->to);
  }
  if (const auto* subgraph = std::get_if<SubgraphExpr>(&expr)) {
    std::string out = "SUBGRAPH " + subgraph->source;
    if (!subgraph->vertex_predicate.empty()) {
      out += " WHERE " + FormatPredicate(subgraph->vertex_predicate);
    }
    if (!subgraph->edge_predicate.empty()) {
      out += " EDGES WHERE " + FormatPredicate(subgraph->edge_predicate);
    }
    return out;
  }
  if (const auto* coalesce = std::get_if<CoalesceExpr>(&expr)) {
    return "COALESCE" + FormatSource(coalesce->source);
  }
  if (const auto* convert = std::get_if<ConvertExpr>(&expr)) {
    return "CONVERT" + FormatSource(convert->source) + " TO " +
           RepresentationName(convert->target);
  }
  return "";
}

}  // namespace

std::string Canonicalize(const Statement& statement) {
  if (const auto* load = std::get_if<LoadStatement>(&statement)) {
    std::string out = "LOAD " + QuoteString(load->path);
    if (load->range.has_value()) {
      out += " FROM " + std::to_string(load->range->start) + " TO " +
             std::to_string(load->range->end);
    }
    return out + " AS " + load->name;
  }
  if (const auto* generate = std::get_if<GenerateStatement>(&statement)) {
    std::string out = "GENERATE " + generate->dataset + "(";
    for (size_t i = 0; i < generate->params.size(); ++i) {
      if (i > 0) out += ", ";
      out += generate->params[i].first + " = " +
             FormatDouble(generate->params[i].second);
    }
    return out + ") AS " + generate->name;
  }
  if (const auto* set = std::get_if<SetStatement>(&statement)) {
    return "SET " + set->name + " = " + FormatExpr(set->expr);
  }
  if (const auto* store = std::get_if<StoreStatement>(&statement)) {
    return "STORE " + store->name + " TO " + QuoteString(store->path) +
           (store->sort == storage::SortOrder::kStructuralLocality
                ? " SORT STRUCTURAL"
                : " SORT TEMPORAL");
  }
  if (const auto* info = std::get_if<InfoStatement>(&statement)) {
    return "INFO " + info->name;
  }
  if (const auto* snapshot = std::get_if<SnapshotStatement>(&statement)) {
    return "SNAPSHOT " + snapshot->name + " AT " +
           std::to_string(snapshot->at) + " LIMIT " +
           std::to_string(snapshot->limit);
  }
  if (const auto* drop = std::get_if<DropStatement>(&statement)) {
    return "DROP " + drop->name;
  }
  if (std::get_if<ListStatement>(&statement) != nullptr) {
    return "LIST";
  }
  if (const auto* create = std::get_if<CreateViewStatement>(&statement)) {
    std::string out =
        "CREATE VIEW " + create->name + " ON " + QuoteString(create->path) +
        " AS ";
    for (size_t i = 0; i < create->stages.size(); ++i) {
      if (i > 0) out += " THEN ";
      out += FormatExpr(create->stages[i]);
    }
    return out;
  }
  if (const auto* drop_view = std::get_if<DropViewStatement>(&statement)) {
    return "DROP VIEW " + drop_view->name;
  }
  if (std::get_if<ShowViewsStatement>(&statement) != nullptr) {
    return "SHOW VIEWS";
  }
  if (const auto* view = std::get_if<ViewStatement>(&statement)) {
    return "VIEW " + view->name;
  }
  if (const auto* explain = std::get_if<ExplainStatement>(&statement)) {
    return "EXPLAIN ANALYZE " + Canonicalize(*explain->inner);
  }
  return "";
}

Result<std::string> CanonicalizeScript(const std::string& script) {
  TG_ASSIGN_OR_RETURN(std::vector<Statement> statements, Parse(script));
  return CanonicalizeScript(statements);
}

std::string CanonicalizeScript(const std::vector<Statement>& statements) {
  std::string out;
  for (const Statement& statement : statements) {
    out += Canonicalize(statement);
    out += ";\n";
  }
  return out;
}

bool IsCacheable(const Statement& statement) {
  // STORE has filesystem side effects; EXPLAIN ANALYZE must re-execute to
  // measure, so serving it from the result cache would defeat its purpose.
  // View DDL mutates the registry, and SHOW VIEWS reports versions and
  // staleness that advance without any TQL write. VIEW itself *is*
  // cacheable — the server folds the view's version into the cache key,
  // exactly as it folds live snapshot epochs in for LOAD.
  return std::get_if<StoreStatement>(&statement) == nullptr &&
         std::get_if<ExplainStatement>(&statement) == nullptr &&
         std::get_if<CreateViewStatement>(&statement) == nullptr &&
         std::get_if<DropViewStatement>(&statement) == nullptr &&
         std::get_if<ShowViewsStatement>(&statement) == nullptr;
}

bool IsCacheableScript(const std::vector<Statement>& statements) {
  for (const Statement& statement : statements) {
    if (!IsCacheable(statement)) return false;
  }
  return true;
}

}  // namespace tgraph::tql
