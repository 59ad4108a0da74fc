#include "tql/interpreter.h"

#include <set>

#include "gen/generators.h"
#include "gen/stats.h"
#include "obs/trace.h"
#include "tgraph/algebra.h"
#include "tql/canonical.h"
#include "tql/parser.h"
#include "tql/pipeline_build.h"

namespace tgraph::tql {

using obs::ExplainCollector;

namespace {

double ParamOr(const GenerateStatement& statement, const char* key,
               double fallback) {
  for (const auto& [name, value] : statement.params) {
    if (name == key) return value;
  }
  return fallback;
}

// Evaluates one comparison against a property set.
bool Matches(const Comparison& comparison, const Properties& props) {
  const PropertyValue* value = props.Find(comparison.key);
  if (comparison.op == Comparison::Op::kHas) return value != nullptr;
  if (value == nullptr) return false;
  switch (comparison.op) {
    case Comparison::Op::kEq:
      return *value == comparison.literal;
    case Comparison::Op::kNe:
      return !(*value == comparison.literal);
    case Comparison::Op::kLt:
      return *value < comparison.literal;
    case Comparison::Op::kLe:
      return *value <= comparison.literal;
    case Comparison::Op::kGt:
      return *value > comparison.literal;
    case Comparison::Op::kGe:
      return *value >= comparison.literal;
    case Comparison::Op::kHas:
      break;
  }
  return false;
}

bool MatchesAll(const WherePredicate& predicate, const Properties& props) {
  for (const Comparison& comparison : predicate) {
    if (!Matches(comparison, props)) return false;
  }
  return true;
}

const std::string& SourceOf(const Expr& expr) {
  return std::visit(
      [](const auto& e) -> const std::string& { return e.source; }, expr);
}

/// The names a statement reads or binds. Each statement names at most its
/// own binding or operand in a `name` field, plus a SET's source. (View
/// names count too, which can only keep a chain from forming.)
std::set<std::string> NamesOf(const Statement& statement) {
  if (const auto* explain = std::get_if<ExplainStatement>(&statement)) {
    return NamesOf(*explain->inner);
  }
  if (const auto* set = std::get_if<SetStatement>(&statement)) {
    return {set->name, SourceOf(set->expr)};
  }
  return std::visit(
      [](const auto& s) -> std::set<std::string> {
        if constexpr (requires { s.name; }) {
          return {s.name};
        } else {
          return {};
        }
      },
      statement);
}

/// The SET statement if it lowers to a pipeline step, else null.
const SetStatement* LowerableSet(const Statement& statement) {
  const auto* set = std::get_if<SetStatement>(&statement);
  return set != nullptr && LowerExpr(set->expr).has_value() ? set : nullptr;
}

int64_t RecordCount(const TGraph& graph) {
  return static_cast<int64_t>(graph.NumVertexRecords() +
                              graph.NumEdgeRecords());
}

/// "source [REP]" — the stage detail for operators over a bound graph.
std::string StageDetail(const std::string& source, Representation rep) {
  return source + " [" + RepresentationName(rep) + "]";
}

Status NoViewCatalog() {
  return Status::InvalidArgument(
      "no view catalog: materialized views are maintained by tgraphd "
      "(connect with --connect)");
}

}  // namespace

Result<std::string> Interpreter::ExecuteScript(const std::string& script) {
  TG_ASSIGN_OR_RETURN(std::vector<Statement> statements, Parse(script));
  return ExecuteScript(statements);
}

Result<std::string> Interpreter::ExecuteScript(
    const std::vector<Statement>& statements) {
  // A name that only the SET binding it and the SET reading it mention can
  // stay unbound unobserved. LIST reads every name, so it blocks chains.
  std::map<std::string, int> mentions;
  bool lists = false;
  for (const Statement& statement : statements) {
    lists |= std::holds_alternative<ListStatement>(statement);
    for (const std::string& name : NamesOf(statement)) ++mentions[name];
  }
  // Whether statement i + 1 consumes statement i inside one chain.
  auto chains = [&](size_t i) {
    if (lists || i + 1 >= statements.size()) return false;
    const SetStatement* producer = LowerableSet(statements[i]);
    const SetStatement* consumer = LowerableSet(statements[i + 1]);
    return producer != nullptr && consumer != nullptr &&
           SourceOf(consumer->expr) == producer->name &&
           mentions[producer->name] == 2;
  };
  std::string output;
  for (size_t i = 0; i < statements.size(); ++i) {
    if (interrupt_check_) TG_RETURN_IF_ERROR(interrupt_check_());
    if (!chains(i)) {
      TG_ASSIGN_OR_RETURN(std::string line, Execute(statements[i]));
      output += line;
      continue;
    }
    std::vector<const SetStatement*> chain = {
        &std::get<SetStatement>(statements[i])};
    while (chains(i)) chain.push_back(&std::get<SetStatement>(statements[++i]));
    TG_ASSIGN_OR_RETURN(std::string lines, ExecuteChain(chain));
    output += lines;
  }
  return output;
}

Result<TGraph> Interpreter::Lookup(const std::string& name) const {
  auto it = env_.find(name);
  if (it == env_.end()) {
    return Status::NotFound("no graph named '" + name +
                            "' (LIST shows bound names)");
  }
  return it->second;
}

Result<std::string> Interpreter::ExecuteChain(
    const std::vector<const SetStatement*>& sets) {
  Pipeline chain;
  for (const SetStatement* set : sets) chain.Then(*LowerExpr(set->expr));
  TG_ASSIGN_OR_RETURN(TGraph input, Lookup(SourceOf(sets.front()->expr)));
  // On an OGC input a conversion is semantic (aZoom errors on OGC but
  // runs after a conversion), so every one the script wrote is kept — the
  // guard OptimizedWithCost applies too.
  Pipeline::Hints hints;
  hints.drop_mid_chain_conversions =
      input.representation() != Representation::kOgc;
  Pipeline::RunOptions options;
  options.explain = explain_;
  options.input_name = SourceOf(sets.front()->expr);
  options.stats = stats_;
  options.interrupt = interrupt_check_;
  TG_ASSIGN_OR_RETURN(TGraph result,
                      chain.Optimized(hints).Run(input, options));
  std::string output;
  for (const SetStatement* set : sets) {
    env_.erase(set->name);
    output += "set " + set->name + "\n";
  }
  env_.insert_or_assign(sets.back()->name, std::move(result));
  return output;
}

Result<TGraph> Interpreter::Evaluate(const Expr& expr) {
  if (const auto* ref = std::get_if<RefExpr>(&expr)) {
    return Lookup(ref->source);
  }
  if (const auto* subgraph = std::get_if<SubgraphExpr>(&expr)) {
    TG_ASSIGN_OR_RETURN(TGraph graph, Lookup(subgraph->source));
    ExplainCollector::Scope stage(
        explain_, "SUBGRAPH",
        StageDetail(subgraph->source, graph.representation()));
    const int64_t rows_in = explain_ != nullptr ? RecordCount(graph) : 0;
    TG_ASSIGN_OR_RETURN(TGraph as_ve, graph.As(Representation::kVe));
    WherePredicate vertex_predicate = subgraph->vertex_predicate;
    WherePredicate edge_predicate = subgraph->edge_predicate;
    VeGraph result = SubgraphVe(
        as_ve.ve(),
        [vertex_predicate](VertexId, const Properties& props) {
          return MatchesAll(vertex_predicate, props);
        },
        [edge_predicate](EdgeId, VertexId, VertexId, const Properties& props) {
          return MatchesAll(edge_predicate, props);
        });
    TGraph out = TGraph::FromVe(std::move(result), /*coalesced=*/true);
    stage.set_rows(rows_in, RecordCount(out));
    return out;
  }
  return Status::Internal("pipeline steps run through ExecuteChain");
}

Result<std::string> Interpreter::Execute(const Statement& statement) {
  if (const auto* load = std::get_if<LoadStatement>(&statement)) {
    ExplainCollector::Scope stage(explain_, "LOAD",
                                  load->name + " '" + load->path + "'");
    if (loader_) {
      TG_ASSIGN_OR_RETURN(TGraph graph, loader_(*load));
      stage.set_rows(-1, RecordCount(graph));
      env_.insert_or_assign(load->name, std::move(graph));
      return "loaded " + load->name + " from '" + load->path + "'\n";
    }
    storage::LoadOptions options;
    options.time_range = load->range;
    TG_ASSIGN_OR_RETURN(VeGraph graph,
                        storage::LoadVeGraph(ctx_, load->path, options));
    TGraph bound = TGraph::FromVe(std::move(graph), /*coalesced=*/true);
    stage.set_rows(-1, RecordCount(bound));
    env_.insert_or_assign(load->name, std::move(bound));
    return "loaded " + load->name + " from '" + load->path + "'\n";
  }
  if (const auto* generate = std::get_if<GenerateStatement>(&statement)) {
    ExplainCollector::Scope stage(explain_, "GENERATE",
                                  generate->name + " " + generate->dataset);
    double scale = ParamOr(*generate, "scale", 1.0);
    uint64_t seed = static_cast<uint64_t>(ParamOr(*generate, "seed", 42));
    VeGraph graph;
    if (generate->dataset == "wikitalk") {
      gen::WikiTalkConfig config;
      config.num_users = static_cast<int64_t>(config.num_users * scale);
      config.num_months =
          static_cast<int64_t>(ParamOr(*generate, "months", 60));
      config.seed = seed;
      graph = gen::GenerateWikiTalk(ctx_, config);
    } else if (generate->dataset == "snb") {
      gen::SnbConfig config;
      config.num_persons = static_cast<int64_t>(config.num_persons * scale);
      config.num_months =
          static_cast<int64_t>(ParamOr(*generate, "months", 36));
      config.seed = seed;
      graph = gen::GenerateSnb(ctx_, config);
    } else if (generate->dataset == "ngrams") {
      gen::NGramsConfig config;
      config.num_words = static_cast<int64_t>(config.num_words * scale);
      config.appearances_per_year *= scale;
      config.num_years =
          static_cast<int64_t>(ParamOr(*generate, "years", 100));
      config.seed = seed;
      graph = gen::GenerateNGrams(ctx_, config);
    } else {
      return Status::InvalidArgument("unknown dataset '" + generate->dataset +
                                     "' (use wikitalk, snb, or ngrams)");
    }
    TGraph bound = TGraph::FromVe(std::move(graph), /*coalesced=*/true);
    stage.set_rows(-1, RecordCount(bound));
    env_.insert_or_assign(generate->name, std::move(bound));
    return "generated " + generate->name + " (" + generate->dataset + ")\n";
  }
  if (const auto* set = std::get_if<SetStatement>(&statement)) {
    if (LowerableSet(statement) != nullptr) return ExecuteChain({set});
    TG_ASSIGN_OR_RETURN(TGraph graph, Evaluate(set->expr));
    env_.insert_or_assign(set->name, std::move(graph));
    return "set " + set->name + "\n";
  }
  if (const auto* store = std::get_if<StoreStatement>(&statement)) {
    TG_ASSIGN_OR_RETURN(TGraph graph, Lookup(store->name));
    ExplainCollector::Scope stage(explain_, "STORE",
                                  store->name + " '" + store->path + "'");
    stage.set_rows(RecordCount(graph), -1);
    TG_ASSIGN_OR_RETURN(TGraph as_ve, graph.As(Representation::kVe));
    storage::GraphWriteOptions options;
    options.sort_order = store->sort;
    TG_RETURN_IF_ERROR(
        storage::WriteVeStore(as_ve.Coalesce().ve(), store->path, options));
    return "stored " + store->name + " to '" + store->path + "'\n";
  }
  if (const auto* info = std::get_if<InfoStatement>(&statement)) {
    TG_ASSIGN_OR_RETURN(TGraph graph, Lookup(info->name));
    ExplainCollector::Scope stage(
        explain_, "INFO", StageDetail(info->name, graph.representation()));
    stage.set_rows(RecordCount(graph), -1);
    TG_ASSIGN_OR_RETURN(TGraph as_ve, graph.As(Representation::kVe));
    gen::DatasetStats stats = gen::ComputeStats(as_ve.ve());
    return info->name + " [" +
           std::string(RepresentationName(graph.representation())) +
           (graph.coalesced() ? ", coalesced" : "") + "] lifetime " +
           graph.lifetime().ToString() + ": " + stats.ToString() + "\n";
  }
  if (const auto* snapshot = std::get_if<SnapshotStatement>(&statement)) {
    TG_ASSIGN_OR_RETURN(TGraph graph, Lookup(snapshot->name));
    ExplainCollector::Scope stage(
        explain_, "SNAPSHOT",
        StageDetail(snapshot->name, graph.representation()) + " AT " +
            std::to_string(snapshot->at));
    stage.set_rows(RecordCount(graph), -1);
    TG_ASSIGN_OR_RETURN(TGraph as_ve, graph.As(Representation::kVe));
    sg::PropertyGraph state = as_ve.ve().SnapshotAt(snapshot->at);
    std::string out = snapshot->name + " at " + std::to_string(snapshot->at) +
                      ": " + std::to_string(state.NumVertices()) +
                      " vertices, " + std::to_string(state.NumEdges()) +
                      " edges\n";
    for (const sg::Vertex& v : state.vertices().Take(snapshot->limit)) {
      out += "  v" + std::to_string(v.vid) + " " + v.properties.ToString() +
             "\n";
    }
    for (const sg::Edge& e : state.edges().Take(snapshot->limit)) {
      out += "  e" + std::to_string(e.eid) + " " + std::to_string(e.src) +
             "->" + std::to_string(e.dst) + " " + e.properties.ToString() +
             "\n";
    }
    return out;
  }
  if (const auto* drop = std::get_if<DropStatement>(&statement)) {
    if (env_.erase(drop->name) == 0) {
      return Status::NotFound("no graph named '" + drop->name + "'");
    }
    return "dropped " + drop->name + "\n";
  }
  if (const auto* create = std::get_if<CreateViewStatement>(&statement)) {
    if (views_ == nullptr) return NoViewCatalog();
    ExplainCollector::Scope stage(explain_, "CREATE VIEW", create->name);
    return views_->CreateView(*create);
  }
  if (const auto* drop_view = std::get_if<DropViewStatement>(&statement)) {
    if (views_ == nullptr) return NoViewCatalog();
    ExplainCollector::Scope stage(explain_, "DROP VIEW", drop_view->name);
    return views_->DropView(drop_view->name);
  }
  if (std::get_if<ShowViewsStatement>(&statement) != nullptr) {
    if (views_ == nullptr) return NoViewCatalog();
    ExplainCollector::Scope stage(explain_, "SHOW VIEWS", "");
    return views_->ShowViews();
  }
  if (const auto* view = std::get_if<ViewStatement>(&statement)) {
    if (views_ == nullptr) return NoViewCatalog();
    ExplainCollector::Scope stage(explain_, "VIEW", view->name);
    return views_->QueryView(view->name);
  }
  if (const auto* explain = std::get_if<ExplainStatement>(&statement)) {
    // Swap in a fresh collector for the inner statement so the report
    // covers exactly this statement; the outer collector (the server's
    // slow-query log) still sees the stages afterwards.
    ExplainCollector nested;
    ExplainCollector* saved = explain_;
    explain_ = &nested;
    const int64_t start_us = obs::Tracer::NowMicros();
    Result<std::string> inner = Execute(*explain->inner);
    const int64_t total_us = obs::Tracer::NowMicros() - start_us;
    explain_ = saved;
    if (saved != nullptr) {
      for (const obs::StageStats& stage : nested.stages()) saved->Add(stage);
    }
    TG_RETURN_IF_ERROR(inner.status());
    return nested.Render(Canonicalize(*explain->inner), total_us) + *inner;
  }
  if (std::get_if<ListStatement>(&statement) != nullptr) {
    if (env_.empty()) return std::string("no graphs bound\n");
    std::string out;
    for (const auto& [name, graph] : env_) {
      out += name + " [" +
             std::string(RepresentationName(graph.representation())) +
             "] lifetime " + graph.lifetime().ToString() + "\n";
    }
    return out;
  }
  return Status::Internal("unhandled statement");
}

}  // namespace tgraph::tql
