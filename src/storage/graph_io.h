#ifndef TGRAPH_STORAGE_GRAPH_IO_H_
#define TGRAPH_STORAGE_GRAPH_IO_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "tgraph/og.h"
#include "tgraph/ogc.h"
#include "tgraph/rg.h"
#include "tgraph/ve.h"

namespace tgraph::storage {

/// \brief On-disk sort order, which decides what kind of locality the store
/// preserves (Section 4, "Data loading"):
///  - temporal locality: sort by (entity id, start) — an entity's history
///    of changes is stored together (the VE default);
///  - structural locality: sort by (start, entity id) — each snapshot's
///    records are stored together (the RG default, which the paper found
///    loads RG ~30% faster).
enum class SortOrder { kTemporalLocality, kStructuralLocality };

const char* SortOrderName(SortOrder order);

struct GraphWriteOptions {
  SortOrder sort_order = SortOrder::kTemporalLocality;
  /// Rows per store partition: the unit of parallel loading and of
  /// zone-map skipping.
  int64_t row_group_size = 16 * 1024;
  /// Container version: 3 (the default) picks a per-segment encoding with
  /// raw fallback. 2 writes the raw v2 layout byte-identically to older
  /// releases; it is a library-only reference for compatibility tests and
  /// the compression ablation's raw baseline (docs/FORMAT.md §5.4).
  uint32_t store_version = 3;
};

struct LoadOptions {
  /// When set, only states overlapping this range are loaded (clipped to
  /// it), using filter pushdown on the start/end (or first/last) columns.
  std::optional<Interval> time_range;
  /// Evaluate the partitions' zone maps to skip partitions before touching
  /// them. Disabling only removes the skipping — every partition is
  /// scanned and the loaded graph is identical.
  bool pushdown = true;
};

// --- Graph directories (tgraph-store v3, docs/FORMAT.md) -------------------
//
// A graph directory holds one `<dir>/graph.tgs` store container with
// every table of one representation:
//  - VE, the flat default schema (Section 4): `vertices` (vid, start, end,
//    props) and `edges` (eid, src, dst, start, end, props);
//  - OG/OGC, the nested formats (Section 4: "significantly faster to
//    pre-compute nested versions of the graphs ... storing the first and
//    last time a vertex/edge existed as a separate column" for pushdown).
// Loads mmap the container, prune partitions by zone map, and decode the
// survivors partition-parallel (v3 segments lazily, v2 segments
// zero-copy). Every table scan counts its pruned and decoded partitions
// as store.partitions_{pruned,decoded}, in the process registry and in
// the running query's counter block (obs::AddQueryCounter). Loading a
// representation the store does not hold fails with an IoError naming
// the missing table.

class StoreReader;

/// `<dir>/graph.tgs`, the store container path inside a graph directory.
std::string StorePath(const std::string& dir);

/// Writes `graph` as `<dir>/graph.tgs` (creating `dir`) through
/// WriteFileAtomic, so a reader that mapped the previous file keeps
/// reading it intact.
Status WriteVeStore(const VeGraph& graph, const std::string& dir,
                    const GraphWriteOptions& options = {});
Status WriteOgStore(const OgGraph& graph, const std::string& dir,
                    const GraphWriteOptions& options = {});
Status WriteOgcStore(const OgcGraph& graph, const std::string& dir,
                     const GraphWriteOptions& options = {});
/// Writes a VE store container to an explicit file `path` instead of the
/// directory's canonical `graph.tgs`, appending `extra_metadata` to the
/// footer. The streaming-ingest compactor uses this to emit partition
/// generations (`gen-NNNNNN.tgs`, docs/FORMAT.md) that carry the ingest
/// watermark, horizon, and last folded WAL sequence number.
Status WriteVeStoreFile(
    const VeGraph& graph, const std::string& path,
    const GraphWriteOptions& options,
    const std::vector<std::pair<std::string, std::string>>& extra_metadata);

/// Open `StorePath(dir)` and load it with the matching *FromStore loader.
Result<VeGraph> LoadVeGraph(dataflow::ExecutionContext* ctx,
                            const std::string& dir,
                            const LoadOptions& options = {});
/// Loads the VE tables and materializes the snapshot sequence. Fastest
/// from structurally sorted stores.
Result<RgGraph> LoadRgGraph(dataflow::ExecutionContext* ctx,
                            const std::string& dir,
                            const LoadOptions& options = {});
Result<OgGraph> LoadOgGraph(dataflow::ExecutionContext* ctx,
                            const std::string& dir,
                            const LoadOptions& options = {});
Result<OgcGraph> LoadOgcGraph(dataflow::ExecutionContext* ctx,
                              const std::string& dir,
                              const LoadOptions& options = {});

/// Store-backed loaders taking an already-open (possibly shared) reader:
/// tgraphd's catalog opens one StoreReader per directory and serves every
/// ranged load off the same mapping.
Result<VeGraph> LoadVeGraphFromStore(dataflow::ExecutionContext* ctx,
                                     const StoreReader& store,
                                     const LoadOptions& options = {});
Result<RgGraph> LoadRgGraphFromStore(dataflow::ExecutionContext* ctx,
                                     const StoreReader& store,
                                     const LoadOptions& options = {});
Result<OgGraph> LoadOgGraphFromStore(dataflow::ExecutionContext* ctx,
                                     const StoreReader& store,
                                     const LoadOptions& options = {});
Result<OgcGraph> LoadOgcGraphFromStore(dataflow::ExecutionContext* ctx,
                                       const StoreReader& store,
                                       const LoadOptions& options = {});

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_GRAPH_IO_H_
