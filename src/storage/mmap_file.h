#ifndef TGRAPH_STORAGE_MMAP_FILE_H_
#define TGRAPH_STORAGE_MMAP_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tgraph::storage {

/// \brief A read-only memory-mapped file.
///
/// The zero-copy substrate of the tgraph-store v2 reader: the file's bytes
/// are mapped, not read, so opening is O(metadata) and the page cache is
/// shared between every process (and every StoreReader) mapping the same
/// file. Pages fault in lazily as column segments are touched — the
/// mechanism that lets zone-map pushdown skip disk I/O, not just decode
/// work.
class MmapFile {
 public:
  /// Maps `path` read-only. Empty files map successfully (data().empty()).
  static Result<MmapFile> Open(const std::string& path);

  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  std::string_view data() const {
    return std::string_view(static_cast<const char*>(base_), size_);
  }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }
  /// The FileIdentity of the file that was mapped (from fstat(2)); a
  /// rename over `path()` after Open does not change it.
  const std::string& identity() const { return identity_; }

  /// Hints the kernel that the whole mapping will be read soon
  /// (madvise(MADV_WILLNEED)); best-effort, ignored on failure.
  void PrefetchAll() const;

 private:
  void* base_ = nullptr;
  size_t size_ = 0;
  std::string path_;
  std::string identity_;
};

}  // namespace tgraph::storage

#endif  // TGRAPH_STORAGE_MMAP_FILE_H_
