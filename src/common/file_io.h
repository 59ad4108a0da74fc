#ifndef TGRAPH_COMMON_FILE_IO_H_
#define TGRAPH_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace tgraph {

/// Reads the whole file at `path`. NotFound when it does not exist,
/// IoError on any other failure.
Result<std::string> ReadFile(const std::string& path);

/// The one way a file is written durably: `contents` go to a fresh
/// `<path>.<pid>.<n>.tmp`, which is fsync'd and renamed over `path`, and
/// then the directory is fsync'd. A reader sees the old file or the new
/// one, never a mix. A reader that already mapped the old file keeps
/// the old inode and its bytes. A crash leaves at most an orphan `*.tmp`
/// beside `path`; the temp file is removed on every error this call sees.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Best-effort fsync of the directory containing `path`, making a
/// creation or rename durable (some filesystems refuse directory fsync).
void FsyncParentDir(const std::string& path);

}  // namespace tgraph

#endif  // TGRAPH_COMMON_FILE_IO_H_
