#ifndef TGRAPH_STORAGE_STORE_WRITER_H_
#define TGRAPH_STORAGE_STORE_WRITER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/store_format.h"
#include "storage/table.h"

namespace tgraph::storage {

/// \brief Options controlling tgraph-store file layout.
struct StoreWriterOptions {
  /// Rows per partition: the unit of both parallel loading and zone-map
  /// skipping on the read side.
  int64_t partition_rows = 16 * 1024;
  /// Container version to emit: kStoreVersionV3 (the default) selects a
  /// per-segment encoding by measured statistics with a mandatory raw
  /// fallback; kStoreVersion writes the raw v2 layout byte-identically to
  /// the pre-v3 writer (old readers keep working on new output).
  uint32_t version = kStoreVersionV3;
  /// Free-form footer metadata (lifetime, sort order, representation).
  std::vector<std::pair<std::string, std::string>> metadata;
};

/// \brief Writes a tgraph-store v2/v3 container: header, 8-byte-aligned
/// column segments (one per table/partition/column), and a sealed footer.
///
/// In v2 mode segments are raw — int64 and double columns are raw
/// little-endian arrays so the mmap'd reader can reinterpret them in
/// place with zero decode work. In v3 mode each segment independently
/// picks the cheapest of its applicable encodings (docs/FORMAT.md §5)
/// using statistics measured over the partition's actual values, keeping
/// raw whenever encoding does not strictly shrink the segment. The writer
/// buffers the whole file in memory and flushes it on Close (graph files
/// are built once, read many times).
class StoreWriter {
 public:
  static Result<std::unique_ptr<StoreWriter>> Open(
      const std::string& path, StoreWriterOptions options = {});
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Declares a table; returns its handle for Append. All tables must be
  /// declared before the first Append.
  int AddTable(const std::string& name, Schema schema);

  /// Appends rows to `table`, flushing full partitions as they accumulate.
  /// The batch schema must match the table's schema.
  Status Append(int table, const RecordBatch& batch);

  /// Flushes tail partitions, writes the footer + trailer, and persists
  /// the file through WriteFileAtomic: a reader that already mapped an
  /// older file at the same path keeps its bytes. Must be called; the
  /// destructor does not finalize.
  Status Close();

 private:
  explicit StoreWriter(std::string path, StoreWriterOptions options);

  Status FlushPartition(int table);

  std::string path_;
  StoreWriterOptions options_;
  std::string file_data_;
  StoreFooter footer_;
  std::vector<RecordBatch> buffers_;  // one per table
  bool closed_ = false;
};

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_STORE_WRITER_H_
