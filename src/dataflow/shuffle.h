#ifndef TGRAPH_DATAFLOW_SHUFFLE_H_
#define TGRAPH_DATAFLOW_SHUFFLE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dataflow/context.h"
#include "dataflow/hashing.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file
/// The shuffle primitive behind all wide operators, extracted from
/// dataset.h and extended with skew-aware rebalancing.
///
/// Real evolving graphs are power-law: a hub vertex (WikiTalk
/// administrators, NGrams stop-words) carries orders of magnitude more
/// edges than the median, so a plain hash shuffle routes all of its
/// records into one partition and that partition's worker drags the whole
/// stage. The rebalanced shuffle runs in two phases:
///
///  1. **Sketch**: while the map side still owns its partitions, a
///     fixed-size per-partition key-frequency sketch (FrequentSketch)
///     estimates heavy hitters. Sketches merge into a ShufflePlan: every
///     key hash whose estimated record count exceeds
///     `skew_threshold x (total / num_partitions)` — the same mean the
///     `dataflow.shuffle.partition_size` histogram tracks — becomes a
///     *hot key* and is assigned dedicated sub-partitions appended after
///     the base partitions.
///  2. **Route**: non-hot records hash into the base partitions as
///     before; hot records are routed by HotRouting:
///       - kSpread: round-robin across the key's sub-partitions. The
///         consuming operator must merge per-key state across the
///         sub-partitions afterwards (two-level aggregation: GroupByKey
///         concatenates value vectors, ReduceByKey combines partials,
///         Distinct re-dedups).
///       - kIsolate: all records to one dedicated partition. Keeps the
///         co-location invariant with no merge step (PartitionBy).
///       - kReplicate: a copy to every sub-partition of the hot key.
///         Used for the build side of Join/SemiJoin so that the spread
///         probe side still finds all of its matches.
///
/// Observability: `dataflow.shuffle.partition_size` always records the
/// *pre-rebalance* (plain hash) partition sizes, and
/// `dataflow.shuffle.partition_size_rebalanced` the actual post-rebalance
/// sizes whenever a plan fired, so before/after skew is directly
/// comparable in `--metrics` output. `dataflow.shuffle.hot_keys` /
/// `.splits` / `.rebalanced` count detections.

namespace tgraph::dataflow {

/// The physical result of a dataflow stage: a list of record partitions.
template <typename T>
using Partitions = std::vector<std::vector<T>>;

namespace internal_shuffle {

/// How hot-key records are routed to their sub-partitions.
enum class HotRouting {
  kSpread,     ///< round-robin across sub-partitions; operator merges after
  kIsolate,    ///< one dedicated partition per hot key (co-location holds)
  kReplicate,  ///< copy to every sub-partition (join build side)
};

/// One detected heavy hitter and its dedicated output range.
struct HotKey {
  uint64_t hash = 0;
  int64_t estimated_count = 0;
  int splits = 1;       ///< number of dedicated sub-partitions
  size_t first_sub = 0;  ///< absolute index of the first sub-partition
};

/// The routing table of one rebalanced shuffle: `num_base` hash
/// partitions followed by each hot key's dedicated sub-partitions.
struct ShufflePlan {
  size_t num_base = 0;
  int64_t total_records = 0;
  std::vector<HotKey> hot;  ///< sorted by hash, unique hashes

  bool rebalanced() const { return !hot.empty(); }

  size_t total_partitions() const {
    size_t total = num_base;
    for (const HotKey& h : hot) total += static_cast<size_t>(h.splits);
    return total;
  }

  /// The hot entry for `hash`, or nullptr if the hash is not hot.
  const HotKey* Find(uint64_t hash) const {
    if (hot.empty()) return nullptr;
    auto it = std::lower_bound(
        hot.begin(), hot.end(), hash,
        [](const HotKey& h, uint64_t target) { return h.hash < target; });
    if (it == hot.end() || it->hash != hash) return nullptr;
    return &*it;
  }
};

/// \brief A fixed-size key-frequency sketch: cells indexed by the top
/// bits of the key hash, each running the Boyer-Moore majority rule. A
/// key hot enough to skew a partition (>= threshold x the mean partition
/// size) dominates its cell's traffic by orders of magnitude, so it
/// survives as the cell's candidate with an estimate no smaller than
/// (true count - other traffic in the cell). Estimates are lower bounds,
/// which only ever under-splits — never mis-routes.
///
/// O(1) per record, ~16 KiB per map partition, mergeable by summing
/// candidate counts per hash.
class FrequentSketch {
 public:
  static constexpr int kCellBits = 10;
  static constexpr size_t kNumCells = size_t{1} << kCellBits;

  struct Candidate {
    uint64_t hash = 0;
    int64_t count = 0;
  };

  void Add(uint64_t hash) {
    Cell& cell = cells_[hash >> (64 - kCellBits)];
    if (cell.hash == hash) {
      ++cell.count;
    } else if (cell.count == 0) {
      cell.hash = hash;
      cell.count = 1;
    } else {
      --cell.count;
    }
  }

  /// Appends every cell's surviving candidate whose scaled count is at
  /// least `min_count`, scaling by `scale` (the sampling stride the cell
  /// counts were collected at). The floor prunes the noise floor a
  /// balanced key distribution leaves in every cell — without it a
  /// uniform shuffle hands the planner ~kNumCells junk candidates per map
  /// partition, and merging them costs more than the sketch pass itself.
  void AppendCandidates(std::vector<Candidate>* out, int64_t scale = 1,
                        int64_t min_count = 0) const {
    for (const Cell& cell : cells_) {
      int64_t scaled = cell.count * scale;
      if (scaled > 0 && scaled >= min_count) {
        out->push_back({cell.hash, scaled});
      }
    }
  }

 private:
  struct Cell {
    uint64_t hash = 0;
    int64_t count = 0;
  };
  std::array<Cell, kNumCells> cells_{};
};

/// Builds the routing plan from merged sketch candidates. `allow_spread`
/// false caps every hot key at one sub-partition (HotRouting::kIsolate
/// consumers). Candidates may contain duplicate hashes (one per map
/// partition); they are summed. Defined in shuffle.cc.
ShufflePlan BuildShufflePlan(size_t num_base, int64_t total_records,
                             std::vector<FrequentSketch::Candidate> candidates,
                             const ShuffleOptions& options, bool allow_spread);

/// Shared shuffle accounting, attributed to the running query
/// (obs::AddQueryCounter): record and approximate byte volume — record
/// count times the record's static size, so payloads behind pointers are
/// not included.
void NoteShuffle(int64_t records, size_t record_size);

/// Records pre-rebalance (plain hash) partition sizes into the skew
/// histogram, and — when the plan fired — post-rebalance sizes plus the
/// hot-key detection counters. `sizes[p]` is the actual record count of
/// output partition p. Defined in shuffle.cc.
void NoteShufflePartitions(const ShufflePlan& plan,
                           const std::vector<int64_t>& sizes);

/// Partitions at least this large are stride-sampled by the sketch pass.
/// A key hot enough to matter (a constant fraction of the shuffle) is
/// dense in any stride-8 sample, and the estimates are scaled back by the
/// stride — the sketch stays a lower bound in expectation while the scan
/// cost on big inputs drops ~8x, keeping the rebalancer's overhead on
/// well-balanced shuffles in the low single-digit percent.
inline constexpr size_t kSketchSampleThreshold = 16384;
inline constexpr size_t kSketchSampleStride = 8;

/// \brief The records one shuffle routes. In place: partitions the
/// shuffle reads and copies records out of. Owned: partitions it moves
/// records out of, either handed over or produced by the shuffle's own
/// first pass — `produce(p, &part)` runs inside that pass's task for
/// partition p, which is how a narrow chain feeding the shuffle runs in
/// the shuffle's tasks instead of in a stage of its own.
template <typename T>
class MapSide {
 public:
  using Produce = std::function<void(size_t, std::vector<T>*)>;

  explicit MapSide(const Partitions<T>& parts)
      : in_place_(&parts), size_(parts.size()) {}
  explicit MapSide(Partitions<T>&& parts)
      : owned_(std::move(parts)), size_(owned_.size()) {}
  MapSide(size_t num_partitions, Produce produce)
      : owned_(num_partitions),
        produce_(std::move(produce)),
        size_(num_partitions) {}

  size_t size() const { return size_; }
  /// False until the first pass over a produced side has run.
  bool ready() const { return produce_ == nullptr; }
  /// Whether records may be moved out of the partitions.
  bool owned() const { return in_place_ == nullptr; }

  /// Partition p (ready sides, or inside ForEachPartition).
  const std::vector<T>& operator[](size_t p) const {
    return in_place_ != nullptr ? (*in_place_)[p] : owned_[p];
  }
  /// Partition p of an owned side, to move records out of.
  std::vector<T>& owned_part(size_t p) { return owned_[p]; }

  /// Record count over all partitions (ready sides).
  int64_t total() const {
    int64_t total = 0;
    for (size_t p = 0; p < size_; ++p) {
      total += static_cast<int64_t>((*this)[p].size());
    }
    return total;
  }

  /// Runs fn(p, partition p) for every partition in one stage. The first
  /// pass over a produced side fills each partition in its task first, in
  /// a vector of the task's own that it then moves into place.
  template <typename Fn>
  void ForEachPartition(ExecutionContext* ctx, const Fn& fn) {
    ctx->ParallelFor(size_, [&](size_t p) {
      if (produce_ != nullptr) {
        std::vector<T> part;
        produce_(p, &part);
        owned_[p] = std::move(part);
      }
      fn(p, (*this)[p]);
    });
    produce_ = nullptr;
  }

 private:
  const Partitions<T>* in_place_ = nullptr;
  Partitions<T> owned_;
  Produce produce_;
  size_t size_ = 0;
};

/// Phase 1: sketches key-hash frequencies of `input` in parallel and
/// appends each partition's heavy-hitter candidates to `candidates`;
/// returns the exact total record count. Skips the sketch (returning only
/// the count) when `sketch` is false — callers pass false when rebalancing
/// is disabled so the disabled path does no extra work. A side that is
/// not ready yet is produced in this pass either way.
///
/// `min_fraction` is the per-partition candidate floor as a fraction of
/// the partition's record count; callers derive it from the hot-key
/// threshold (skew_threshold / (2 * num_base)). A globally hot key's
/// records are spread across map partitions roughly in proportion to
/// partition size, so its per-partition count clears the floor with a 2x
/// margin; a borderline key that doesn't simply stays on the legacy
/// hash path — under-detection degrades balance, never correctness.
template <typename T, typename KeyOf>
int64_t SketchKeys(ExecutionContext* ctx, MapSide<T>& input,
                   const KeyOf& key_of,
                   std::vector<FrequentSketch::Candidate>* candidates,
                   bool sketch, double min_fraction = 0.0) {
  if (input.ready()) {
    const int64_t total = input.total();
    if (!sketch || total == 0) return total;
  }
  TG_SPAN("dataflow.shuffle.sketch", "dataflow");
  std::vector<std::unique_ptr<FrequentSketch>> sketches(input.size());
  std::vector<size_t> strides(input.size(), 1);
  input.ForEachPartition(ctx, [&](size_t p, const std::vector<T>& part) {
    if (!sketch || part.empty()) return;
    auto cells = std::make_unique<FrequentSketch>();
    const size_t stride =
        part.size() >= kSketchSampleThreshold ? kSketchSampleStride : 1;
    for (size_t i = 0; i < part.size(); i += stride) {
      cells->Add(RouteHash(key_of(part[i])));
    }
    strides[p] = stride;
    sketches[p] = std::move(cells);
  });
  for (size_t p = 0; p < sketches.size(); ++p) {
    if (sketches[p] == nullptr) continue;
    int64_t min_count = static_cast<int64_t>(
        min_fraction * static_cast<double>(input[p].size()));
    sketches[p]->AppendCandidates(candidates,
                                  static_cast<int64_t>(strides[p]), min_count);
  }
  return input.total();
}

/// The per-partition candidate floor matching the hot-key threshold,
/// with a 2x safety margin (see SketchKeys).
inline double CandidateFloor(const ShuffleOptions& options, size_t num_base) {
  if (num_base == 0) return 0.0;
  return std::max(1.0, options.skew_threshold) /
         (2.0 * static_cast<double>(num_base));
}

/// Phase 1 (combined): sketch + plan for a single-input shuffle.
template <typename T, typename KeyOf>
ShufflePlan PlanShuffle(ExecutionContext* ctx, MapSide<T>& input,
                        size_t num_base, const KeyOf& key_of,
                        bool allow_spread) {
  const ShuffleOptions& options = ctx->shuffle_options();
  std::vector<FrequentSketch::Candidate> candidates;
  bool sketch = options.enable && num_base > 1;
  int64_t total = SketchKeys(ctx, input, key_of, &candidates, sketch,
                             CandidateFloor(options, num_base));
  return BuildShufflePlan(num_base, total, std::move(candidates), options,
                          allow_spread);
}

/// PlanShuffle over partitions read in place.
template <typename T, typename KeyOf>
ShufflePlan PlanShuffle(ExecutionContext* ctx, const Partitions<T>& input,
                        size_t num_base, const KeyOf& key_of,
                        bool allow_spread) {
  MapSide<T> side(input);
  return PlanShuffle(ctx, side, num_base, key_of, allow_spread);
}

/// Marks a destination that stands for every sub-partition of one hot key
/// (HotRouting::kReplicate); the low bits hold the key's index in the plan.
inline constexpr uint32_t kReplicatedDest = uint32_t{1} << 31;

/// Phase 2: routes every record of `input` according to `plan`. Output
/// partition b holds the records routed to b, input partition by input
/// partition, each in record order. With an empty (non-rebalanced) plan
/// this is the plain hash shuffle by `RouteHash(key) % num_base`.
///
/// A counting pass first records each record's destination and counts
/// records per (input, output) pair; every output partition is then
/// allocated once, at its final size, and each input partition moves (an
/// owned side) or copies (in place) its records straight into their
/// slots. Both passes run in parallel over input partitions, and the
/// result depends on the input partitioning alone, not on the thread
/// count or schedule. Records must be default-constructible and
/// assignable.
template <typename T, typename KeyOf>
Partitions<T> ShuffleWithPlan(ExecutionContext* ctx, MapSide<T>& input,
                              const ShufflePlan& plan, const KeyOf& key_of,
                              HotRouting routing) {
  TG_CHECK_GT(plan.num_base, 0u);
  TG_SPAN("dataflow.shuffle", "dataflow");
  const size_t num_in = input.size();
  const size_t num_out = plan.total_partitions();
  TG_CHECK_LT(num_out, size_t{kReplicatedDest});
  // Counting pass: dest[p][i] is record i's output partition, and
  // offsets[p][b] the number of records input p sends to output b.
  std::vector<std::vector<uint32_t>> dest(num_in);
  std::vector<std::vector<size_t>> offsets(num_in);
  input.ForEachPartition(ctx, [&](size_t p, const std::vector<T>& part) {
    std::vector<size_t> count(num_out, 0);
    std::vector<uint32_t> to(part.size());
    // Round-robin cursor per hot key, offset by the partition index so
    // the first sub-partition is not systematically favored. Deterministic
    // in (input partitioning, record order), not in thread schedule.
    std::vector<uint32_t> cursor(plan.hot.size(), static_cast<uint32_t>(p));
    for (size_t i = 0; i < part.size(); ++i) {
      const uint64_t h = RouteHash(key_of(part[i]));
      const HotKey* hk = plan.Find(h);
      size_t d = h % plan.num_base;
      if (hk != nullptr) {
        const size_t index = static_cast<size_t>(hk - plan.hot.data());
        const auto splits = static_cast<uint32_t>(hk->splits);
        switch (routing) {
          case HotRouting::kSpread:
            d = hk->first_sub + cursor[index]++ % splits;
            break;
          case HotRouting::kIsolate:
            d = hk->first_sub;
            break;
          case HotRouting::kReplicate:
            for (uint32_t s = 0; s < splits; ++s) ++count[hk->first_sub + s];
            to[i] = kReplicatedDest | static_cast<uint32_t>(index);
            continue;
        }
      }
      ++count[d];
      to[i] = static_cast<uint32_t>(d);
    }
    dest[p] = std::move(to);
    offsets[p] = std::move(count);
  });
  // Each output partition lists input 0's records first, then input 1's:
  // turn the counts into each input's first slot in every output.
  Partitions<T> out(num_out);
  int64_t moved = 0;
  for (size_t b = 0; b < num_out; ++b) {
    size_t next = 0;
    for (size_t p = 0; p < num_in; ++p) {
      const size_t count = offsets[p][b];
      offsets[p][b] = next;
      next += count;
    }
    out[b].resize(next);
    moved += static_cast<int64_t>(next);
  }
  NoteShuffle(moved, sizeof(T));
  ctx->ParallelFor(num_in, [&](size_t p) {
    std::vector<size_t>& slot = offsets[p];
    // `part` is mutable when owned, so std::move moves; const when read
    // in place, so it copies.
    auto route = [&](auto& part) {
      for (size_t i = 0; i < part.size(); ++i) {
        const uint32_t d = dest[p][i];
        if ((d & kReplicatedDest) == 0) {
          out[d][slot[d]++] = std::move(part[i]);
          continue;
        }
        const HotKey& hk = plan.hot[d & ~kReplicatedDest];
        for (int s = 0; s < hk.splits; ++s) {
          const size_t b = hk.first_sub + static_cast<size_t>(s);
          out[b][slot[b]++] = std::as_const(part[i]);
        }
      }
    };
    if (input.owned()) {
      route(input.owned_part(p));
    } else {
      route(input[p]);
    }
  });
  std::vector<int64_t> sizes(out.size());
  for (size_t b = 0; b < out.size(); ++b) {
    sizes[b] = static_cast<int64_t>(out[b].size());
  }
  NoteShufflePartitions(plan, sizes);
  return out;
}

/// ShuffleWithPlan over partitions read in place: copies the records.
template <typename T, typename KeyOf>
Partitions<T> ShuffleWithPlan(ExecutionContext* ctx, const Partitions<T>& input,
                              const ShufflePlan& plan, const KeyOf& key_of,
                              HotRouting routing) {
  MapSide<T> side(input);
  return ShuffleWithPlan(ctx, side, plan, key_of, routing);
}

/// ShuffleWithPlan over partitions the caller owns: moves the records.
template <typename T, typename KeyOf>
Partitions<T> ShuffleWithPlan(ExecutionContext* ctx, Partitions<T>&& input,
                              const ShufflePlan& plan, const KeyOf& key_of,
                              HotRouting routing) {
  MapSide<T> side(std::move(input));
  return ShuffleWithPlan(ctx, side, plan, key_of, routing);
}

}  // namespace internal_shuffle
}  // namespace tgraph::dataflow

#endif  // TGRAPH_DATAFLOW_SHUFFLE_H_
