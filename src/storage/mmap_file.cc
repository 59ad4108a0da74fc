#include "storage/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/file_io.h"

namespace tgraph::storage {

Result<MmapFile> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::IoError("cannot stat " + path + ": " +
                           std::strerror(saved));
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IoError(path + " is not a regular file");
  }
  MmapFile file;
  file.path_ = path;
  file.identity_ = FileIdentity(st);
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ > 0) {
    void* base = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      int saved = errno;
      ::close(fd);
      return Status::IoError("cannot mmap " + path + ": " +
                             std::strerror(saved));
    }
    file.base_ = base;
  }
  // The mapping keeps its own reference to the file; the descriptor is no
  // longer needed.
  ::close(fd);
  return file;
}

MmapFile::~MmapFile() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)),
      identity_(std::move(other.identity_)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(base_, size_);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
    identity_ = std::move(other.identity_);
  }
  return *this;
}

void MmapFile::PrefetchAll() const {
  if (base_ != nullptr) ::madvise(base_, size_, MADV_WILLNEED);
}

}  // namespace tgraph::storage
