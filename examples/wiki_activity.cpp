// Analyzing a volatile communication network (the WikiTalk-style workload):
// quantifier-controlled temporal zoom to find strong connections, columnar
// storage round-trip with time-ranged loading and filter pushdown, and a
// Pregel analysis of a snapshot (the paper's future-work extension).

#include <filesystem>
#include <iostream>
#include <map>

#include "gen/generators.h"
#include "gen/stats.h"
#include "obs/trace.h"
#include "sg/algorithms.h"
#include "storage/graph_io.h"
#include "tgraph/tgraph.h"

using namespace tgraph;  // NOLINT — example brevity

int main() {
  dataflow::ExecutionContext ctx;

  gen::WikiTalkConfig config;
  config.num_users = 20000;
  config.num_months = 60;
  config.events_per_user_month = 0.6;
  VeGraph wiki = gen::GenerateWikiTalk(&ctx, config);
  std::cout << "WikiTalk-like dataset: " << gen::ComputeStats(wiki).ToString()
            << "\n\n";
  TGraph graph = TGraph::FromVe(wiki, /*coalesced=*/true);

  // "To observe strong connections over a volatile evolving graph we may
  // include nodes that span the entire window and edges that span a large
  // portion of the window" (Section 2.3): nodes=all, edges=most.
  WZoomSpec strong{WindowSpec::TimePoints(6), Quantifier::All(),
                   Quantifier::Most(), {}, {}};
  TGraph strong_halves = *graph.WZoom(strong);
  WZoomSpec any{WindowSpec::TimePoints(6), Quantifier::Exists(),
                Quantifier::Exists(), {}, {}};
  TGraph any_halves = *graph.WZoom(any);
  std::cout << "half-year windows, edges=most (strong ties): "
            << strong_halves.NumEdgeRecords() << " edge states\n";
  std::cout << "half-year windows, edges=exists (any contact): "
            << any_halves.NumEdgeRecords() << " edge states\n\n";

  // Store round-trip with a date-range load. Structural sort clusters
  // each snapshot's rows, so zone-map pushdown skips most partitions.
  std::string dir =
      (std::filesystem::temp_directory_path() / "wiki_example").string();
  storage::GraphWriteOptions write_options;
  write_options.sort_order = storage::SortOrder::kStructuralLocality;
  write_options.row_group_size = 4096;
  TG_CHECK_OK(storage::WriteVeStore(wiki, dir, write_options));
  storage::LoadOptions load_options;
  load_options.time_range = Interval(24, 36);  // one year of history
  obs::QueryCounterScope load_work;  // what this load decoded and pruned
  Result<VeGraph> year = storage::LoadVeGraph(&ctx, dir, load_options);
  TG_CHECK_OK(year.status());
  const obs::QueryCounterValues work = load_work.Delta();
  const int64_t decoded = work[obs::QueryCounter::kStorePartitionsDecoded];
  std::cout << "loaded year [24,36): " << year->NumEdgeRecords()
            << " edge states; pushdown decoded " << decoded << "/"
            << decoded + work[obs::QueryCounter::kStorePartitionsPruned]
            << " partitions\n\n";

  // Pregel-style analytics on the communication graph of that year
  // (Section 7 names this as the system's next extension).
  sg::PropertyGraph mid_year = year->SnapshotAt(30);
  auto components = sg::ConnectedComponents(mid_year);
  std::map<sg::VertexId, int64_t> sizes;
  for (auto& [vid, component] : components.Collect()) ++sizes[component];
  int64_t largest = 0;
  for (auto& [component, size] : sizes) largest = std::max(largest, size);
  std::cout << "snapshot at month 30: " << mid_year.NumVertices()
            << " users, " << mid_year.NumEdges() << " active threads, "
            << sizes.size() << " components, largest = " << largest << "\n";
  return 0;
}
