#ifndef TGRAPH_INGEST_WAL_H_
#define TGRAPH_INGEST_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "ingest/event.h"

namespace tgraph::ingest {

/// tgraph-wal v1 — the record-framed, checksummed write-ahead log of the
/// streaming ingest path. The normative byte spec lives in docs/FORMAT.md;
/// in one sentence: a fixed 32-byte header (magic, version, flags,
/// horizon, base sequence number) followed by length-prefixed records,
/// each sealed with a HashBytesFast checksum over its payload:
///
///   [header 32B] ([u32 payload_len][u64 checksum][payload])*
///   payload := varint seq, varint event_count, event*
///
/// A record is the durability unit: one acknowledged ingest batch is one
/// record, written with a single write(2) and (by default) fdatasync'd
/// before the ack. Replay accepts any valid prefix — a torn final record
/// (crash mid-append) is dropped silently because its batch was never
/// acknowledged, while a checksum mismatch on a complete record is
/// corruption of acknowledged data and surfaces as IoError.

inline constexpr char kWalMagic[8] = {'T', 'G', 'W', 'A', 'L', '0', '0', '1'};
inline constexpr uint32_t kWalVersion = 1;
/// Header flag bit: fixed-width integers are little-endian (always set).
inline constexpr uint32_t kWalFlagLittleEndian = 0x1;
/// magic(8) + version(u32) + flags(u32) + horizon(u64) + base_seq(u64).
inline constexpr size_t kWalHeaderSize = 32;
/// len(u32) + checksum(u64) preceding every record payload.
inline constexpr size_t kWalRecordFrameSize = 12;
/// Upper bound on one record's payload; larger length prefixes are
/// rejected before allocation (the bytes are adversarial until proven
/// otherwise), matching the wire protocol's frame cap.
inline constexpr uint32_t kMaxWalRecordBytes = 64u << 20;

struct WalHeader {
  /// The live graph's end of time: every event is strictly before it, and
  /// entities still alive are closed at it when the graph materializes.
  TimePoint horizon = 0;
  /// Sequence number of the last record folded into the base store when
  /// this file was created (0 for a brand-new graph). Records in this
  /// file always carry larger sequence numbers; replay additionally
  /// filters against the base generation's own last_seq metadata, which
  /// is what makes a crash between compaction and log truncation replay
  /// duplicates harmlessly.
  uint64_t base_seq = 0;
};

/// One replayed record: an acknowledged ingest batch.
struct WalRecord {
  uint64_t seq = 0;
  std::vector<Event> events;
};

/// The outcome of scanning a WAL file front to back.
struct WalReplay {
  WalHeader header;
  std::vector<WalRecord> records;
  /// Byte length of the valid prefix (header + intact records).
  uint64_t valid_bytes = 0;
  /// True when trailing bytes past the valid prefix were dropped (a torn
  /// final record or a torn header on an otherwise empty file).
  bool torn_tail = false;
};

/// Reads and validates `path` without modifying it. NotFound when the
/// file does not exist; IoError on bad magic/version/flags, a checksum
/// mismatch, an undecodable payload, or a non-increasing sequence number.
/// Truncation mid-record is NOT an error: replay stops at the valid
/// prefix and reports torn_tail.
Result<WalReplay> ReplayWalFile(const std::string& path);

/// \brief Appender for one tgraph-wal v1 file.
///
/// Open() creates the file (header + fsync) when absent, or replays the
/// existing one — returning the acknowledged records through *replay —
/// and truncates a torn tail so appends continue from the valid prefix.
/// Append() is not thread-safe; the ingest layer serializes writers.
class Wal {
 public:
  static Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                           const WalHeader& create_header,
                                           bool sync, WalReplay* replay);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends one record with a single write(2) and, when `sync` was set,
  /// fdatasync's before returning: an OK status is the durability ack.
  /// `bytes_out` (optional) reports the appended frame size.
  ///
  /// A failed append never leaves a torn frame for later appends to bury:
  /// the file is rolled back to the last acknowledged byte. If that
  /// rollback fails — or fdatasync fails, after which the kernel may have
  /// dropped dirty pages without persisting them — the WAL is *poisoned*:
  /// every further Append returns IoError until the file is reopened
  /// (Open re-scans the valid prefix) or Rotate rewrites it from scratch.
  Status Append(uint64_t seq, const std::vector<Event>& events,
                size_t* bytes_out = nullptr);

  /// Atomically replaces the log with a fresh file holding `header` and
  /// `records` (the delta batches not yet folded into the base) through
  /// WriteFileAtomic. This is the compactor's "truncate the WAL" step; a
  /// crash before the rename leaves the old log, whose already-folded
  /// records replay as harmless duplicates.
  Status Rotate(const WalHeader& header, const std::vector<WalRecord>& records);

  const WalHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  uint64_t bytes() const { return bytes_; }

  Status Close();

 private:
  Wal(std::string path, bool sync) : path_(std::move(path)), sync_(sync) {}

  std::string path_;
  bool sync_ = true;
  int fd_ = -1;
  WalHeader header_;
  uint64_t bytes_ = 0;  ///< Current valid file length.
  /// Set when a failed append could not be rolled back (or a fdatasync
  /// failed): the bytes past bytes_ are untrustworthy, so appends are
  /// refused until Open or Rotate re-establishes a clean file.
  bool poisoned_ = false;
};

}  // namespace tgraph::ingest

#endif  // TGRAPH_INGEST_WAL_H_
