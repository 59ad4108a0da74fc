#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

namespace tgraph {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::IoError(std::string(op) + " '" + path +
                         "': " + std::strerror(errno));
}

/// A temp name no other writer of `path` in this or another process
/// picks, so concurrent rewrites of one file never share a temp file.
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
  return path + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".tmp";
}

}  // namespace

std::string NormalPath(const std::string& path) {
  std::string normal = std::filesystem::path(path).lexically_normal().string();
  if (normal.size() > 1 && normal.back() == '/') normal.pop_back();
  return normal;
}

std::string FileIdentity(const struct stat& st) {
  return std::to_string(st.st_dev) + "." + std::to_string(st.st_ino) + "." +
         std::to_string(st.st_size) + "." +
         std::to_string(static_cast<int64_t>(st.st_mtim.tv_sec) *
                            1'000'000'000 +
                        st.st_mtim.tv_nsec);
}

Result<std::string> StatIdentity(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
  return FileIdentity(st);
}

Result<std::string> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at '" + path + "'");
    return Errno("open", path);
  }
  std::string data;
  char buf[64 * 1024];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = Errno("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp = TempPathFor(path);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", tmp);
  Status status;
  size_t off = 0;
  while (status.ok() && off < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      if (errno != EINTR) status = Errno("write", tmp);
      continue;
    }
    off += static_cast<size_t>(n);
  }
  if (status.ok() && ::fsync(fd) != 0) status = Errno("fsync", tmp);
  ::close(fd);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Errno("rename", tmp);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  FsyncParentDir(path);
  return Status::OK();
}

void FsyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

}  // namespace tgraph
