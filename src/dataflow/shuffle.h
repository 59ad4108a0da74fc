#ifndef TGRAPH_DATAFLOW_SHUFFLE_H_
#define TGRAPH_DATAFLOW_SHUFFLE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
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

/// Phase 1: sketches key-hash frequencies of `input` in parallel and
/// appends each partition's heavy-hitter candidates to `candidates`;
/// returns the exact total record count. Skips the sketch pass (returning
/// only the count) when `sketch` is false — callers pass false when
/// rebalancing is disabled so the disabled path does no extra work.
///
/// `min_fraction` is the per-partition candidate floor as a fraction of
/// the partition's record count; callers derive it from the hot-key
/// threshold (skew_threshold / (2 * num_base)). A globally hot key's
/// records are spread across map partitions roughly in proportion to
/// partition size, so its per-partition count clears the floor with a 2x
/// margin; a borderline key that doesn't simply stays on the legacy
/// hash path — under-detection degrades balance, never correctness.
template <typename T, typename KeyOf>
int64_t SketchKeys(ExecutionContext* ctx, const Partitions<T>& input,
                   const KeyOf& key_of,
                   std::vector<FrequentSketch::Candidate>* candidates,
                   bool sketch, double min_fraction = 0.0) {
  int64_t total = 0;
  for (const auto& part : input) total += static_cast<int64_t>(part.size());
  if (!sketch || total == 0) return total;
  TG_SPAN("dataflow.shuffle.sketch", "dataflow");
  std::vector<std::unique_ptr<FrequentSketch>> sketches(input.size());
  std::vector<size_t> strides(input.size(), 1);
  ctx->ParallelFor(input.size(), [&](size_t p) {
    if (input[p].empty()) return;
    sketches[p] = std::make_unique<FrequentSketch>();
    size_t stride =
        input[p].size() >= kSketchSampleThreshold ? kSketchSampleStride : 1;
    strides[p] = stride;
    for (size_t i = 0; i < input[p].size(); i += stride) {
      sketches[p]->Add(DfHash(key_of(input[p][i])));
    }
  });
  for (size_t p = 0; p < sketches.size(); ++p) {
    if (sketches[p] == nullptr) continue;
    int64_t min_count = static_cast<int64_t>(
        min_fraction * static_cast<double>(input[p].size()));
    sketches[p]->AppendCandidates(candidates,
                                  static_cast<int64_t>(strides[p]), min_count);
  }
  return total;
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
ShufflePlan PlanShuffle(ExecutionContext* ctx, const Partitions<T>& input,
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

/// Phase 2: routes every record of `input` according to `plan` and
/// concatenates per-bucket runs in input-partition order. With an empty
/// (non-rebalanced) plan this is exactly the legacy hash shuffle. The
/// bucketing stage runs in parallel over input partitions and the
/// concatenation stage in parallel over output partitions; both are
/// deterministic in the input partitioning, independent of thread count
/// and scheduling.
template <typename T, typename KeyOf>
Partitions<T> ShuffleWithPlan(ExecutionContext* ctx, const Partitions<T>& input,
                              const ShufflePlan& plan, const KeyOf& key_of,
                              HotRouting routing) {
  TG_CHECK_GT(plan.num_base, 0u);
  TG_SPAN("dataflow.shuffle", "dataflow");
  const size_t num_out = plan.total_partitions();
  std::vector<Partitions<T>> bucketed(input.size());
  std::vector<int64_t> routed(input.size(), 0);
  ctx->ParallelFor(input.size(), [&](size_t p) {
    bucketed[p].resize(num_out);
    // Round-robin cursor per hot key, offset by the partition index so
    // the first sub-partition is not systematically favored. Deterministic
    // in (input partitioning, record order), not in thread schedule.
    std::vector<uint32_t> cursor(plan.hot.size(),
                                 static_cast<uint32_t>(p));
    int64_t count = 0;
    for (const T& record : input[p]) {
      uint64_t h = DfHash(key_of(record));
      const HotKey* hk = plan.Find(h);
      if (hk == nullptr) {
        bucketed[p][h % plan.num_base].push_back(record);
        ++count;
        continue;
      }
      size_t index = static_cast<size_t>(hk - plan.hot.data());
      switch (routing) {
        case HotRouting::kSpread: {
          size_t sub = cursor[index]++ % static_cast<uint32_t>(hk->splits);
          bucketed[p][hk->first_sub + sub].push_back(record);
          ++count;
          break;
        }
        case HotRouting::kIsolate:
          bucketed[p][hk->first_sub].push_back(record);
          ++count;
          break;
        case HotRouting::kReplicate:
          for (int s = 0; s < hk->splits; ++s) {
            bucketed[p][hk->first_sub + static_cast<size_t>(s)].push_back(
                record);
          }
          count += hk->splits;
          break;
      }
    }
    routed[p] = count;
  });
  int64_t moved = 0;
  for (int64_t r : routed) moved += r;
  NoteShuffle(moved, sizeof(T));

  Partitions<T> out(num_out);
  ctx->ParallelFor(num_out, [&](size_t b) {
    size_t total = 0;
    for (size_t p = 0; p < bucketed.size(); ++p) total += bucketed[p][b].size();
    out[b].reserve(total);
    for (size_t p = 0; p < bucketed.size(); ++p) {
      auto& bucket = bucketed[p][b];
      std::move(bucket.begin(), bucket.end(), std::back_inserter(out[b]));
      bucket.clear();
    }
  });
  std::vector<int64_t> sizes(out.size());
  for (size_t b = 0; b < out.size(); ++b) {
    sizes[b] = static_cast<int64_t>(out[b].size());
  }
  NoteShufflePartitions(plan, sizes);
  return out;
}

/// The legacy single-call shuffle: plan + route in one step, spreading
/// hot keys. Callers that need the plan (to merge per-key state across
/// sub-partitions) call PlanShuffle/ShuffleWithPlan separately.
template <typename T, typename KeyOf>
Partitions<T> ShuffleBy(ExecutionContext* ctx, const Partitions<T>& input,
                        size_t num_out, const KeyOf& key_of,
                        HotRouting routing = HotRouting::kIsolate) {
  TG_CHECK_GT(num_out, 0u);
  bool allow_spread = routing == HotRouting::kSpread;
  ShufflePlan plan = PlanShuffle(ctx, input, num_out, key_of, allow_spread);
  return ShuffleWithPlan(ctx, input, plan, key_of, routing);
}

}  // namespace internal_shuffle
}  // namespace tgraph::dataflow

#endif  // TGRAPH_DATAFLOW_SHUFFLE_H_
