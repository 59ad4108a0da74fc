#include "views/registry.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <utility>
#include <variant>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "tql/canonical.h"
#include "tql/parser.h"
#include "tql/pipeline_build.h"

namespace tgraph::views {

namespace {

int64_t UnixNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

obs::Gauge* ViewCountGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge(obs::metric_names::kViewCount);
  return gauge;
}

}  // namespace

ViewRegistry::ViewRegistry(dataflow::ExecutionContext* ctx,
                           ingest::LiveGraphRegistry* live, Options options)
    : ctx_(ctx), live_(live), options_(std::move(options)) {}

Status ViewRegistry::LoadFromDisk() {
  if (options_.views_path.empty()) return Status::OK();
  std::ifstream in(options_.views_path);
  if (!in.is_open()) return Status::OK();  // no file yet: no views
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) {
    return Status::IoError("reading views file " + options_.views_path);
  }
  TG_ASSIGN_OR_RETURN(std::vector<tql::Statement> statements,
                      tql::Parse(text.str()));
  for (const tql::Statement& statement : statements) {
    const auto* create = std::get_if<tql::CreateViewStatement>(&statement);
    if (create == nullptr) {
      return Status::InvalidArgument(
          "views file " + options_.views_path +
          " contains a statement other than CREATE VIEW");
    }
    Result<std::string> registered = CreateView(*create);
    if (!registered.ok()) return registered.status();
  }
  return Status::OK();
}

Result<std::string> ViewRegistry::CreateView(
    const tql::CreateViewStatement& create) {
  // Validate the stage list up front: a definition that cannot build a
  // pipeline is rejected at DDL time, not at first refresh.
  TG_ASSIGN_OR_RETURN(Pipeline pipeline, tql::BuildViewPipeline(create.stages));

  ViewDefinition definition;
  definition.name = create.name;
  definition.source = create.path;
  definition.stages = create.stages;
  definition.canonical = tql::Canonicalize(tql::Statement{create});

  MaterializedView::Options view_options;
  view_options.max_suffix_fraction = options_.max_suffix_fraction;
  if (options_.on_invalidate) {
    // A fallback recompute replaces served content, so previously cached
    // results for this view (and only this view) must go.
    std::function<void(const std::string&)> invalidate = options_.on_invalidate;
    view_options.on_fallback = [invalidate](const std::string& name,
                                            const std::string& /*reason*/) {
      invalidate(name);
    };
  }
  auto view = std::make_shared<MaterializedView>(
      ctx_, std::move(definition), std::move(pipeline),
      std::move(view_options));

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = views_.emplace(create.name, std::move(view));
    if (!inserted) {
      return Status::AlreadyExists("view '" + create.name +
                                   "' already exists (DROP VIEW it first)");
    }
    Status saved = SaveLocked();
    if (!saved.ok()) {
      views_.erase(create.name);
      return saved;
    }
    ViewCountGauge()->Set(static_cast<int64_t>(views_.size()));
  }
  return "created view " + create.name + " on '" + create.path + "'\n";
}

Result<std::string> ViewRegistry::DropView(const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = views_.find(name);
    if (it == views_.end()) {
      return Status::NotFound("no view named '" + name + "'");
    }
    std::shared_ptr<MaterializedView> dropped = std::move(it->second);
    views_.erase(it);
    Status saved = SaveLocked();
    if (!saved.ok()) {
      views_.emplace(name, std::move(dropped));
      return saved;
    }
    ViewCountGauge()->Set(static_cast<int64_t>(views_.size()));
  }
  if (options_.on_invalidate) options_.on_invalidate(name);
  return "dropped view " + name + "\n";
}

Result<std::string> ViewRegistry::ShowViews() {
  std::vector<std::shared_ptr<MaterializedView>> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all.reserve(views_.size());
    for (const auto& [name, view] : views_) all.push_back(view);
  }
  if (all.empty()) return std::string("no views\n");
  std::ostringstream out;
  for (const std::shared_ptr<MaterializedView>& view : all) {
    const ViewDefinition& definition = view->definition();
    out << definition.name << " ON '" << definition.source << "' ["
        << RepresentationName(view->representation()) << "]";
    std::shared_ptr<const ViewSnapshot> snapshot = view->Current();
    if (snapshot == nullptr) {
      out << " unmaterialized";
    } else {
      out << " version=" << snapshot->version
          << " epoch=" << snapshot->source_epoch
          << " watermark=" << snapshot->watermark
          << " applied=" << snapshot->applied_deltas
          << " counted=" << snapshot->counted_deltas
          << " rebuilds=" << snapshot->full_rebuilds << " staleness_us="
          << std::max<int64_t>(0, UnixNowUs() - snapshot->refreshed_unix_us);
      if (!snapshot->not_counted.empty()) {
        out << " not_counted=" << snapshot->not_counted;
      }
    }
    out << "\n";
  }
  return out.str();
}

Result<std::string> ViewRegistry::QueryView(const std::string& name,
                                            uint64_t* version) {
  static obs::Counter* queries = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kViewQueries);
  std::shared_ptr<MaterializedView> view = Find(name);
  if (view == nullptr) {
    return Status::NotFound("no view named '" + name + "'");
  }
  TG_ASSIGN_OR_RETURN(ingest::LiveGraph * live,
                      live_->GetOrOpen(view->definition().source));
  std::shared_ptr<const ViewSnapshot> snapshot = view->Current();
  if (snapshot == nullptr || snapshot->source_epoch < live->epoch()) {
    TG_RETURN_IF_ERROR(view->Refresh(live, UnixNowUs()));
    snapshot = view->Current();
  }
  if (snapshot == nullptr) {
    return Status::Internal("view '" + name + "' failed to materialize");
  }
  queries->Increment();
  if (version != nullptr) *version = snapshot->version;
  return snapshot->rendered;
}

void ViewRegistry::OnEpoch(const std::string& dir, uint64_t epoch) {
  const int64_t published_unix_us = UnixNowUs();
  std::vector<std::shared_ptr<MaterializedView>> affected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, view] : views_) {
      if (view->definition().source == dir) affected.push_back(view);
    }
  }
  if (affected.empty()) return;
  ingest::LiveGraph* live = live_->Find(dir);
  if (live == nullptr) return;  // source closed between publish and here
  for (const std::shared_ptr<MaterializedView>& view : affected) {
    Status refreshed = view->Refresh(live, published_unix_us);
    if (!refreshed.ok()) {
      TG_LOG(WARN) << "view " << view->definition().name << " at epoch "
                    << epoch << ": " << refreshed.message();
    }
  }
}

std::shared_ptr<MaterializedView> ViewRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() ? nullptr : it->second;
}

uint64_t ViewRegistry::CurrentVersion(const std::string& name) const {
  std::shared_ptr<MaterializedView> view = Find(name);
  if (view == nullptr) return 0;
  std::shared_ptr<const ViewSnapshot> snapshot = view->Current();
  return snapshot == nullptr ? 0 : snapshot->version;
}

size_t ViewRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return views_.size();
}

Status ViewRegistry::SaveLocked() {
  if (options_.views_path.empty()) return Status::OK();
  std::string text;
  for (const auto& [name, view] : views_) {
    text += view->definition().canonical;
    text += ";\n";
  }
  // Durable before the DDL is acknowledged.
  return WriteFileAtomic(options_.views_path, text);
}

}  // namespace tgraph::views
