#ifndef TGRAPH_VIEWS_REGISTRY_H_
#define TGRAPH_VIEWS_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "ingest/live_graph.h"
#include "tql/interpreter.h"
#include "views/view.h"

namespace tgraph::views {

/// \brief tgraphd's catalog of materialized views (the tentpole of the
/// view subsystem): implements the TQL ViewCatalog surface (CREATE VIEW /
/// DROP VIEW / SHOW VIEWS / VIEW) and keeps every registered view fresh
/// by subscribing to ingest epoch publishes.
///
/// Definitions persist as a TQL script of canonicalized CREATE VIEW
/// statements (`options.views_path`, rewritten atomically on every DDL),
/// so a restarted server re-registers the same views and rebuilds their
/// state from the compacted store + WAL tail the first time each view is
/// queried or its source publishes an epoch.
///
/// Thread safety: the registry map is guarded by one mutex held only for
/// lookups and DDL; maintenance work runs outside it under each view's
/// own apply lock, so refreshing one view never blocks queries or DDL on
/// another.
class ViewRegistry : public tql::ViewCatalog {
 public:
  struct Options {
    /// Where definitions persist; empty disables persistence (tests).
    std::string views_path;
    /// Forwarded to every view (see MaterializedView::Options).
    double max_suffix_fraction = 0.75;
    /// Invoked after DROP VIEW and after any fallback recompute that
    /// replaced served state — tgraphd evicts the view's result-cache
    /// entries here (tag "view:<name>"), and only that view's entries.
    std::function<void(const std::string& name)> on_invalidate;
  };

  ViewRegistry(dataflow::ExecutionContext* ctx,
               ingest::LiveGraphRegistry* live, Options options);

  /// Registers the definitions found in `options.views_path` (missing
  /// file = no views). View state is not rebuilt here; it materializes
  /// lazily on first query or source epoch.
  Status LoadFromDisk();

  // tql::ViewCatalog — the four view verbs.
  Result<std::string> CreateView(const tql::CreateViewStatement& create) override;
  Result<std::string> DropView(const std::string& name) override;
  Result<std::string> ShowViews() override;
  Result<std::string> QueryView(const std::string& name) override {
    return QueryView(name, nullptr);
  }

  /// VIEW <name> with the served snapshot's version reported back —
  /// tgraphd folds it into result-cache keys the way LOAD folds in
  /// directory versions.
  Result<std::string> QueryView(const std::string& name, uint64_t* version);

  /// Ingest epoch subscription: refreshes every view registered on
  /// `dir`, which LiveGraph spells as NormalPath does, like view sources.
  /// Called synchronously from LiveGraph's publish path (Append and the
  /// compactor), outside the live graph's locks.
  void OnEpoch(const std::string& dir, uint64_t epoch);

  /// The registered view, or nullptr. The returned object stays valid
  /// after a concurrent DROP (shared ownership).
  std::shared_ptr<MaterializedView> Find(const std::string& name) const;

  /// The current published version of `name`, 0 when the view does not
  /// exist or has not materialized yet. Cheap (no refresh).
  uint64_t CurrentVersion(const std::string& name) const;

  size_t size() const;

 private:
  Status SaveLocked();  // requires mu_

  dataflow::ExecutionContext* ctx_;
  ingest::LiveGraphRegistry* live_;
  const Options options_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<MaterializedView>> views_;
};

}  // namespace tgraph::views

#endif  // TGRAPH_VIEWS_REGISTRY_H_
