#include "ingest/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/file_io.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "storage/serde.h"

namespace tgraph::ingest {

namespace {

using storage::GetVarint;
using storage::PutVarint;

void PutU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

uint32_t GetU32(const char* p) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(p[i]);
  }
  return value;
}

uint64_t GetU64(const char* p) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<uint8_t>(p[i]);
  }
  return value;
}

std::string EncodeHeader(const WalHeader& header) {
  std::string out;
  out.append(kWalMagic, sizeof(kWalMagic));
  PutU32(&out, kWalVersion);
  PutU32(&out, kWalFlagLittleEndian);
  PutU64(&out, static_cast<uint64_t>(header.horizon));
  PutU64(&out, header.base_seq);
  return out;
}

std::string EncodeRecord(uint64_t seq, const std::vector<Event>& events) {
  std::string payload;
  PutVarint(&payload, seq);
  EncodeEvents(events, &payload);
  std::string frame;
  frame.reserve(kWalRecordFrameSize + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, HashBytesFast(payload));
  frame += payload;
  return frame;
}

Status WriteAll(int fd, std::string_view data, const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write '" + path + "': " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SyncFd(int fd, const std::string& path) {
  if (::fdatasync(fd) != 0) {
    return Status::IoError("fdatasync '" + path + "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Result<WalReplay> ReplayWalFile(const std::string& path) {
  TG_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  WalReplay replay;
  if (data.size() < kWalHeaderSize) {
    // A header shorter than 32 bytes can only be a crash during file
    // creation, before anything was acknowledged: recover as empty. The
    // exception is a non-empty file that does not even start with our
    // magic — that is not a torn tgraph-wal, and clobbering it would
    // destroy someone else's data.
    if (!data.empty() &&
        std::memcmp(data.data(), kWalMagic,
                    std::min(data.size(), sizeof(kWalMagic))) != 0) {
      return Status::IoError("'" + path + "' is not a tgraph-wal v1 file");
    }
    replay.torn_tail = !data.empty();
    replay.valid_bytes = 0;
    return replay;
  }
  if (std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IoError("'" + path + "' is not a tgraph-wal v1 file");
  }
  const uint32_t version = GetU32(data.data() + 8);
  if (version != kWalVersion) {
    return Status::IoError("unsupported tgraph-wal version " +
                           std::to_string(version));
  }
  const uint32_t flags = GetU32(data.data() + 12);
  if ((flags & kWalFlagLittleEndian) == 0 ||
      (flags & ~kWalFlagLittleEndian) != 0) {
    return Status::IoError("unsupported tgraph-wal flags " +
                           std::to_string(flags));
  }
  replay.header.horizon = static_cast<TimePoint>(GetU64(data.data() + 16));
  replay.header.base_seq = GetU64(data.data() + 24);
  replay.valid_bytes = kWalHeaderSize;

  uint64_t last_seq = replay.header.base_seq;
  size_t pos = kWalHeaderSize;
  while (pos < data.size()) {
    if (data.size() - pos < kWalRecordFrameSize) {
      replay.torn_tail = true;  // crash mid-frame: the batch was never acked
      break;
    }
    const uint32_t len = GetU32(data.data() + pos);
    if (len > kMaxWalRecordBytes) {
      return Status::IoError("WAL record length " + std::to_string(len) +
                             " exceeds the " +
                             std::to_string(kMaxWalRecordBytes) + " byte cap");
    }
    if (data.size() - pos - kWalRecordFrameSize < len) {
      replay.torn_tail = true;  // crash mid-payload
      break;
    }
    const uint64_t checksum = GetU64(data.data() + pos + 4);
    std::string_view payload(data.data() + pos + kWalRecordFrameSize, len);
    if (HashBytesFast(payload) != checksum) {
      // A complete record with a bad checksum is corruption of data that
      // was acknowledged — unlike a torn tail, silently dropping it would
      // lose writes, so recovery must stop and say so.
      return Status::IoError("WAL record at offset " + std::to_string(pos) +
                             " fails its checksum");
    }
    size_t payload_pos = 0;
    WalRecord record;
    TG_ASSIGN_OR_RETURN(record.seq, GetVarint(payload, &payload_pos));
    TG_ASSIGN_OR_RETURN(record.events, DecodeEvents(payload, &payload_pos));
    if (payload_pos != payload.size()) {
      return Status::IoError("WAL record at offset " + std::to_string(pos) +
                             " has trailing garbage");
    }
    if (record.seq <= last_seq) {
      return Status::IoError("WAL sequence regressed: record " +
                             std::to_string(record.seq) + " after " +
                             std::to_string(last_seq));
    }
    last_seq = record.seq;
    pos += kWalRecordFrameSize + len;
    replay.valid_bytes = pos;
    replay.records.push_back(std::move(record));
  }
  return replay;
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                       const WalHeader& create_header,
                                       bool sync, WalReplay* replay) {
  static obs::Counter* replayed = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kIngestWalReplayedRecords);

  Result<WalReplay> scanned = ReplayWalFile(path);
  bool fresh = false;
  if (!scanned.ok()) {
    if (!scanned.status().IsNotFound()) return scanned.status();
    fresh = true;
  } else if (scanned->valid_bytes == 0) {
    fresh = true;  // empty or torn-header file: recreate
  }

  std::unique_ptr<Wal> wal(new Wal(path, sync));
  int flags = O_RDWR | O_CREAT | O_CLOEXEC;
  wal->fd_ = ::open(path.c_str(), flags, 0644);
  if (wal->fd_ < 0) {
    return Status::IoError("open '" + path + "': " + std::strerror(errno));
  }

  if (fresh) {
    wal->header_ = create_header;
    if (::ftruncate(wal->fd_, 0) != 0) {
      return Status::IoError("ftruncate '" + path +
                             "': " + std::strerror(errno));
    }
    TG_RETURN_IF_ERROR(WriteAll(wal->fd_, EncodeHeader(create_header), path));
    TG_RETURN_IF_ERROR(SyncFd(wal->fd_, path));
    FsyncParentDir(path);
    wal->bytes_ = kWalHeaderSize;
    if (replay != nullptr) {
      *replay = WalReplay{};
      replay->header = create_header;
      replay->valid_bytes = kWalHeaderSize;
    }
    return wal;
  }

  wal->header_ = scanned->header;
  wal->bytes_ = scanned->valid_bytes;
  replayed->Add(static_cast<int64_t>(scanned->records.size()));
  // Drop a torn tail so appends continue from the valid prefix instead of
  // burying garbage between records.
  if (scanned->torn_tail) {
    if (::ftruncate(wal->fd_, static_cast<off_t>(scanned->valid_bytes)) != 0) {
      return Status::IoError("ftruncate '" + path +
                             "': " + std::strerror(errno));
    }
    TG_RETURN_IF_ERROR(SyncFd(wal->fd_, path));
  }
  if (::lseek(wal->fd_, static_cast<off_t>(scanned->valid_bytes), SEEK_SET) <
      0) {
    return Status::IoError("lseek '" + path + "': " + std::strerror(errno));
  }
  if (replay != nullptr) *replay = *std::move(scanned);
  return wal;
}

Wal::~Wal() { (void)Close(); }

Status Wal::Append(uint64_t seq, const std::vector<Event>& events,
                   size_t* bytes_out) {
  static obs::Counter* appends = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kIngestWalAppends);
  static obs::Counter* wal_bytes = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kIngestWalBytes);

  if (fd_ < 0) return Status::Internal("WAL is closed");
  if (poisoned_) {
    return Status::IoError("WAL at '" + path_ +
                           "' is poisoned by an earlier failed append; "
                           "reopen to recover");
  }
  const std::string frame = EncodeRecord(seq, events);
  Status written = WriteAll(fd_, frame, path_);
  if (written.ok()) {
    if (sync_) {
      Status synced = SyncFd(fd_, path_);
      if (!synced.ok()) {
        // After a failed fdatasync the kernel may have marked dirty pages
        // clean without persisting them, so no later sync can be trusted
        // to cover this file again (the "fsyncgate" failure mode): refuse
        // every further append until the WAL is reopened from a clean fd.
        poisoned_ = true;
        return Status::IoError("append to '" + path_ + "' failed (" +
                               synced.message() +
                               "); WAL poisoned until reopened");
      }
    }
  } else {
    // A failed or partial write leaves a torn frame after the valid
    // prefix with the fd offset past it; a later successful append would
    // then bury acknowledged records behind garbage that replay either
    // truncates away (losing them) or trips over (IoError). Roll the
    // file back to the last acknowledged byte — and if even that fails,
    // poison the log so no further append can widen the damage.
    if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(bytes_), SEEK_SET) < 0) {
      poisoned_ = true;
      return Status::IoError(
          "append to '" + path_ + "' failed (" + written.message() +
          ") and rollback to offset " + std::to_string(bytes_) +
          " also failed: " + std::strerror(errno) +
          "; WAL poisoned until reopened");
    }
    return written;
  }
  bytes_ += frame.size();
  appends->Increment();
  wal_bytes->Add(static_cast<int64_t>(frame.size()));
  if (bytes_out != nullptr) *bytes_out = frame.size();
  return Status::OK();
}

Status Wal::Rotate(const WalHeader& header,
                   const std::vector<WalRecord>& records) {
  std::string contents = EncodeHeader(header);
  for (const WalRecord& record : records) {
    contents += EncodeRecord(record.seq, record.events);
  }
  TG_RETURN_IF_ERROR(WriteFileAtomic(path_, contents));
  // The old fd now points at an unlinked inode; reopen the live file.
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::IoError("reopen '" + path_ + "': " + std::strerror(errno));
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return Status::IoError("lseek '" + path_ + "': " + std::strerror(errno));
  }
  header_ = header;
  bytes_ = contents.size();
  poisoned_ = false;  // the file was rewritten from scratch on a fresh fd
  return Status::OK();
}

Status Wal::Close() {
  if (fd_ < 0) return Status::OK();
  Status status = sync_ ? SyncFd(fd_, path_) : Status::OK();
  ::close(fd_);
  fd_ = -1;
  return status;
}

}  // namespace tgraph::ingest
