#ifndef TGRAPH_COMMON_FILE_IO_H_
#define TGRAPH_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

struct stat;

namespace tgraph {

/// The one spelling of a directory path that keys per-directory state:
/// lexically normal ("./d", "d/" and "d/x/.." all become "d") and without
/// a trailing separator. No filesystem access, so a relative and an
/// absolute spelling of one directory stay distinct, and so do two paths
/// through a symlink.
std::string NormalPath(const std::string& path);

/// The identity of the version of a file `st` describes,
/// "<device>.<inode>.<size>.<mtime ns>". A rewrite through WriteFileAtomic
/// renames a new inode into place, and a rewrite in place changes the size
/// or the mtime, so two versions of one path have different identities.
std::string FileIdentity(const struct stat& st);

/// FileIdentity of the file at `path`; IoError when it cannot be stat'd.
Result<std::string> StatIdentity(const std::string& path);

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
