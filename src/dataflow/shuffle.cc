#include "dataflow/shuffle.h"

#include <cmath>
#include <unordered_map>

#include "obs/trace.h"

namespace tgraph::dataflow::internal_shuffle {

namespace {

/// Hot keys are capped so a pathological input (thousands of keys just
/// over the threshold) cannot explode the partition count; the cap keeps
/// the hottest keys, which dominate the imbalance.
constexpr size_t kMaxHotKeys = 32;

}  // namespace

ShufflePlan BuildShufflePlan(size_t num_base, int64_t total_records,
                             std::vector<FrequentSketch::Candidate> candidates,
                             const ShuffleOptions& options, bool allow_spread) {
  ShufflePlan plan;
  plan.num_base = num_base;
  plan.total_records = total_records;
  if (!options.enable || candidates.empty() || num_base < 2 ||
      total_records < options.min_records) {
    return plan;
  }

  // Merge per-partition candidates: the same hot hash lands in the same
  // sketch cell of every partition, so summing per hash recovers a
  // (lower-bound) global estimate.
  std::unordered_map<uint64_t, int64_t> merged;
  merged.reserve(candidates.size());
  for (const FrequentSketch::Candidate& c : candidates) {
    merged[c.hash] += c.count;
  }

  double mean_partition =
      static_cast<double>(total_records) / static_cast<double>(num_base);
  double threshold = std::max(1.0, options.skew_threshold) * mean_partition;
  std::vector<HotKey> hot;
  for (const auto& [hash, count] : merged) {
    if (static_cast<double>(count) <= threshold) continue;
    HotKey hk;
    hk.hash = hash;
    hk.estimated_count = count;
    if (allow_spread) {
      // Enough sub-partitions to bring each one near the mean.
      double ideal = std::ceil(static_cast<double>(count) / mean_partition);
      hk.splits = static_cast<int>(
          std::clamp(ideal, 2.0, static_cast<double>(
                                     std::max(2, options.max_splits))));
    } else {
      hk.splits = 1;
    }
    hot.push_back(hk);
  }
  if (hot.empty()) return plan;
  if (hot.size() > kMaxHotKeys) {
    std::nth_element(hot.begin(), hot.begin() + kMaxHotKeys, hot.end(),
                     [](const HotKey& a, const HotKey& b) {
                       return a.estimated_count > b.estimated_count;
                     });
    hot.resize(kMaxHotKeys);
  }
  std::sort(hot.begin(), hot.end(),
            [](const HotKey& a, const HotKey& b) { return a.hash < b.hash; });
  size_t next_sub = num_base;
  for (HotKey& hk : hot) {
    hk.first_sub = next_sub;
    next_sub += static_cast<size_t>(hk.splits);
  }
  plan.hot = std::move(hot);
  return plan;
}

void NoteShuffle(int64_t records, size_t record_size) {
  obs::AddQueryCounter(obs::QueryCounter::kShuffles, 1);
  obs::AddQueryCounter(obs::QueryCounter::kShuffleRecords, records);
  obs::AddQueryCounter(obs::QueryCounter::kShuffleBytes,
                       records * static_cast<int64_t>(record_size));
}

void NoteShufflePartitions(const ShufflePlan& plan,
                           const std::vector<int64_t>& sizes) {
  static obs::Histogram* pre = obs::MetricsRegistry::Global().GetHistogram(
      obs::metric_names::kShufflePartitionSize);
  if (!plan.rebalanced()) {
    for (int64_t size : sizes) pre->Record(size);
    return;
  }
  // Pre-rebalance view: fold each hot key's sub-partition records back
  // into the base partition a plain hash shuffle would have used, so the
  // legacy histogram keeps describing the *input* skew.
  std::vector<int64_t> legacy(plan.num_base, 0);
  for (size_t b = 0; b < plan.num_base; ++b) legacy[b] = sizes[b];
  for (const HotKey& hk : plan.hot) {
    int64_t count = 0;
    for (int s = 0; s < hk.splits; ++s) {
      count += sizes[hk.first_sub + static_cast<size_t>(s)];
    }
    legacy[hk.hash % plan.num_base] += count;
  }
  for (int64_t size : legacy) pre->Record(size);

  static obs::Histogram* post = obs::MetricsRegistry::Global().GetHistogram(
      obs::metric_names::kShufflePartitionSizeRebalanced);
  for (int64_t size : sizes) post->Record(size);
  static obs::Counter* splits = obs::MetricsRegistry::Global().GetCounter(
      obs::metric_names::kShuffleSplits);
  obs::AddQueryCounter(obs::QueryCounter::kShufflesRebalanced, 1);
  obs::AddQueryCounter(obs::QueryCounter::kShuffleHotKeys,
                       static_cast<int64_t>(plan.hot.size()));
  int64_t total_splits = 0;
  for (const HotKey& hk : plan.hot) total_splits += hk.splits;
  splits->Add(total_splits);
}

}  // namespace tgraph::dataflow::internal_shuffle
