#ifndef TGRAPH_INGEST_DELTA_H_
#define TGRAPH_INGEST_DELTA_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "ingest/event.h"
#include "tgraph/builder.h"

namespace tgraph::ingest {

/// One acknowledged ingest batch held in memory: the in-RAM twin of a WAL
/// record.
struct DeltaBatch {
  uint64_t seq = 0;
  std::vector<Event> events;
};

/// \brief The in-memory delta partition: every acknowledged batch that has
/// not yet been written to a base generation. (Its events are already in
/// the folded state; the delta is what WAL rotation keeps.)
///
/// A DeltaPartition is IMMUTABLE — Append and Suffix return new partitions
/// sharing the untouched batches. The live graph publishes the current
/// partition inside an immutable Snapshot, so concurrent readers traverse
/// it with no locking at all: a reader's view is frozen at the instant it
/// grabbed the snapshot, and writers only ever swap in a fresh partition.
class DeltaPartition {
 public:
  /// The shared empty partition.
  static std::shared_ptr<const DeltaPartition> Empty();

  /// A new partition with `batch` appended (cheap: shares prior batches).
  std::shared_ptr<const DeltaPartition> Append(DeltaBatch batch) const;

  /// A new partition keeping only batches with seq > `after_seq` — the
  /// compactor's "freeze a prefix, keep the suffix" step.
  std::shared_ptr<const DeltaPartition> Suffix(uint64_t after_seq) const;

  const std::vector<std::shared_ptr<const DeltaBatch>>& batches() const {
    return batches_;
  }
  bool empty() const { return batches_.empty(); }
  size_t event_count() const { return event_count_; }
  /// Sequence number of the newest batch; 0 when empty.
  uint64_t last_seq() const {
    return batches_.empty() ? 0 : batches_.back()->seq;
  }
  /// Largest event timestamp across all batches; INT64_MIN when empty.
  TimePoint max_event_time() const { return max_event_time_; }

 private:
  std::vector<std::shared_ptr<const DeltaBatch>> batches_;
  size_t event_count_ = 0;
  TimePoint max_event_time_ = std::numeric_limits<TimePoint>::min();
};

/// Replays one ingest event into a TGraphBuilder — the single translation
/// point between the wire/WAL event model and the builder's API, used by
/// the per-batch fold and the offline differential tests alike (so both
/// paths fold events identically by construction).
void ApplyEventToBuilder(const Event& event, TGraphBuilder* builder);

}  // namespace tgraph::ingest

#endif  // TGRAPH_INGEST_DELTA_H_
