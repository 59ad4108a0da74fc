#ifndef TGRAPH_DATAFLOW_DATASET_H_
#define TGRAPH_DATAFLOW_DATASET_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dataflow/context.h"
#include "dataflow/hashing.h"
#include "dataflow/shuffle.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgraph::dataflow {

namespace internal_dataset {

template <typename T>
struct PairTraits {
  static constexpr bool is_pair = false;
};
template <typename K, typename V>
struct PairTraits<std::pair<K, V>> {
  static constexpr bool is_pair = true;
  using Key = K;
  using Value = V;
};

}  // namespace internal_dataset

/// \brief A node in a dataflow plan DAG producing partitions of T.
///
/// Nodes materialize at most once; the result is cached so that plans with
/// shared sub-expressions (e.g. a vertex relation consumed by both a
/// grouping branch and an edge-redirection join) compute each stage once.
/// After computing, a node releases its captured inputs so that upstream
/// intermediate results become reclaimable as soon as no Dataset handle
/// references them.
template <typename T>
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// Returns the (computed or cached) output partitions.
  const Partitions<T>& Materialize(ExecutionContext* ctx) {
    std::call_once(once_, [&] {
      cache_ = Compute(ctx);
      Release();
    });
    return cache_;
  }

 protected:
  virtual Partitions<T> Compute(ExecutionContext* ctx) = 0;
  /// Drops references to inputs after Compute; default no-op.
  virtual void Release() {}

 private:
  std::once_flag once_;
  Partitions<T> cache_;
};

/// \brief A plan node defined by a closure. All operators produce these; the
/// closure captures the input nodes (as shared_ptrs) and is destroyed after
/// it runs, releasing the lineage.
template <typename T>
class LambdaNode final : public PlanNode<T> {
 public:
  using ComputeFn = std::function<Partitions<T>(ExecutionContext*)>;
  explicit LambdaNode(ComputeFn fn) : fn_(std::move(fn)) {}

 protected:
  Partitions<T> Compute(ExecutionContext* ctx) override { return fn_(ctx); }
  void Release() override { fn_ = nullptr; }

 private:
  ComputeFn fn_;
};

namespace internal_dataset {

/// Splits `data` into `num_partitions` contiguous, evenly sized chunks.
template <typename T>
Partitions<T> Chunk(std::vector<T> data, int num_partitions) {
  TG_CHECK_GT(num_partitions, 0);
  size_t n = data.size();
  size_t parts = static_cast<size_t>(num_partitions);
  Partitions<T> out(parts);
  size_t base = n / parts;
  size_t extra = n % parts;
  size_t offset = 0;
  for (size_t p = 0; p < parts; ++p) {
    size_t len = base + (p < extra ? 1 : 0);
    out[p].reserve(len);
    for (size_t i = 0; i < len; ++i) {
      out[p].push_back(std::move(data[offset + i]));
    }
    offset += len;
  }
  return out;
}

/// Merges per-key state across each hot key's sub-partitions into its
/// first sub-partition (the reduce side of two-level aggregation after a
/// HotRouting::kSpread shuffle). Entries are pair<K, S>;
/// `append(S* dst, S&& src)` merges two entries with equal keys. Each hot
/// key's sub-partitions hold only records of one key hash, so the number
/// of distinct keys per sub-partition is tiny (hash collisions only) and
/// a linear key scan beats a hash table.
template <typename K, typename S, typename Append>
void MergeHotGroups(ExecutionContext* ctx,
                    const internal_shuffle::ShufflePlan& plan,
                    Partitions<std::pair<K, S>>* out, const Append& append) {
  if (!plan.rebalanced()) return;
  TG_SPAN("dataflow.shuffle.merge", "dataflow");
  ctx->ParallelFor(plan.hot.size(), [&](size_t i) {
    const internal_shuffle::HotKey& hk = plan.hot[i];
    if (hk.splits <= 1) return;
    auto& head = (*out)[hk.first_sub];
    for (int s = 1; s < hk.splits; ++s) {
      auto& sub = (*out)[hk.first_sub + static_cast<size_t>(s)];
      for (auto& entry : sub) {
        auto it = std::find_if(
            head.begin(), head.end(),
            [&](const std::pair<K, S>& e) { return e.first == entry.first; });
        if (it == head.end()) {
          head.push_back(std::move(entry));
        } else {
          append(&it->second, std::move(entry.second));
        }
      }
      sub.clear();
    }
  });
}

/// Re-deduplicates each hot key's sub-partitions into the first one
/// (Distinct's merge step: every sub-partition is already locally
/// deduplicated, so the union per hot key is small).
template <typename T>
void MergeHotDistinct(ExecutionContext* ctx,
                      const internal_shuffle::ShufflePlan& plan,
                      Partitions<T>* out) {
  if (!plan.rebalanced()) return;
  TG_SPAN("dataflow.shuffle.merge", "dataflow");
  ctx->ParallelFor(plan.hot.size(), [&](size_t i) {
    const internal_shuffle::HotKey& hk = plan.hot[i];
    if (hk.splits <= 1) return;
    auto& head = (*out)[hk.first_sub];
    std::unordered_set<T, DfHasher<T>> seen(head.begin(), head.end());
    for (int s = 1; s < hk.splits; ++s) {
      auto& sub = (*out)[hk.first_sub + static_cast<size_t>(s)];
      for (T& record : sub) {
        if (seen.insert(record).second) head.push_back(std::move(record));
      }
      sub.clear();
    }
  });
}

}  // namespace internal_dataset

/// \brief A distributed-style collection of records of type T — the engine's
/// RDD equivalent.
///
/// A Dataset is an immutable handle onto a lazy plan node; transformations
/// build new nodes, actions (Collect, Count, Reduce) trigger execution on
/// the owning ExecutionContext's worker pool. Narrow transformations
/// (Map/Filter/FlatMap/MapPartitions) parallelize per partition with no data
/// movement; wide transformations (GroupByKey, ReduceByKey, Join, SemiJoin,
/// CoGroup, Distinct, PartitionByKey) hash-shuffle between stages. Every
/// wide transformation rides the skew-aware shuffle (dataflow/shuffle.h):
/// hot keys detected by a map-side sketch are split across dedicated
/// sub-partitions and re-merged per operator, so results are identical to
/// the plain hash shuffle (see ExecutionContext::shuffle_options to tune
/// or disable).
///
/// Key-value operators are available whenever T is a std::pair<K, V> with a
/// DfHash-able, equality-comparable K.
template <typename T>
class Dataset {
 public:
  using ValueType = T;

  /// An empty, invalid handle; assign before use.
  Dataset() = default;

  Dataset(ExecutionContext* ctx, std::shared_ptr<PlanNode<T>> node)
      : ctx_(ctx), node_(std::move(node)) {}

  /// Wraps an in-memory vector, splitting it into `num_partitions` chunks
  /// (context default if 0).
  static Dataset FromVector(ExecutionContext* ctx, std::vector<T> data,
                            int num_partitions = 0) {
    int parts = num_partitions > 0 ? num_partitions : ctx->default_parallelism();
    auto node = std::make_shared<LambdaNode<T>>(
        [data = std::move(data), parts](ExecutionContext*) mutable {
          return internal_dataset::Chunk(std::move(data), parts);
        });
    return Dataset(ctx, std::move(node));
  }

  /// Wraps pre-partitioned data as-is.
  static Dataset FromPartitions(ExecutionContext* ctx, Partitions<T> parts) {
    auto node = std::make_shared<LambdaNode<T>>(
        [parts = std::move(parts)](ExecutionContext*) mutable {
          return std::move(parts);
        });
    return Dataset(ctx, std::move(node));
  }

  ExecutionContext* context() const { return ctx_; }
  bool valid() const { return node_ != nullptr; }

  // ---------------------------------------------------------------------
  // Narrow transformations (no shuffle)
  // ---------------------------------------------------------------------

  /// Record-wise transform. U is deduced from the callable.
  template <typename Fn, typename U = std::invoke_result_t<Fn, const T&>>
  Dataset<U> Map(Fn fn) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<U>>(
        [input, fn = std::move(fn)](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          Partitions<U> out(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            out[p].reserve(in[p].size());
            for (const T& record : in[p]) out[p].push_back(fn(record));
          });
          return out;
        });
    return Dataset<U>(ctx_, std::move(node));
  }

  /// Keeps records for which `pred` returns true.
  template <typename Pred>
  Dataset<T> Filter(Pred pred) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, pred = std::move(pred)](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          Partitions<T> out(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            for (const T& record : in[p]) {
              if (pred(record)) out[p].push_back(record);
            }
          });
          return out;
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Record-wise transform emitting zero or more outputs per input via an
  /// out-parameter (avoids a vector allocation per record).
  /// `fn(const T&, std::vector<U>*)`.
  template <typename U, typename Fn>
  Dataset<U> FlatMap(Fn fn) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<U>>(
        [input, fn = std::move(fn)](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          Partitions<U> out(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            for (const T& record : in[p]) fn(record, &out[p]);
          });
          return out;
        });
    return Dataset<U>(ctx_, std::move(node));
  }

  /// Whole-partition transform: `fn(const std::vector<T>&, std::vector<U>*)`.
  template <typename U, typename Fn>
  Dataset<U> MapPartitions(Fn fn) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<U>>(
        [input, fn = std::move(fn)](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          Partitions<U> out(in.size());
          ctx->ParallelFor(in.size(),
                           [&](size_t p) { fn(in[p], &out[p]); });
          return out;
        });
    return Dataset<U>(ctx_, std::move(node));
  }

  /// Like MapPartitions, with the partition index as the first argument
  /// (e.g. to fork deterministic per-partition RNG streams).
  template <typename U, typename Fn>
  Dataset<U> MapPartitionsWithIndex(Fn fn) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<U>>(
        [input, fn = std::move(fn)](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          Partitions<U> out(in.size());
          ctx->ParallelFor(in.size(),
                           [&](size_t p) { fn(p, in[p], &out[p]); });
          return out;
        });
    return Dataset<U>(ctx_, std::move(node));
  }

  /// Concatenation of two datasets (partitions of both, in order).
  Dataset<T> Union(const Dataset<T>& other) const {
    TG_CHECK_EQ(ctx_, other.ctx_);
    auto left = node_;
    auto right = other.node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [left, right](ExecutionContext* ctx) {
          const Partitions<T>& a = left->Materialize(ctx);
          const Partitions<T>& b = right->Materialize(ctx);
          Partitions<T> out;
          out.reserve(a.size() + b.size());
          out.insert(out.end(), a.begin(), a.end());
          out.insert(out.end(), b.begin(), b.end());
          return out;
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  // ---------------------------------------------------------------------
  // Repartitioning
  // ---------------------------------------------------------------------

  /// Rebalances into `num_partitions` evenly sized partitions.
  Dataset<T> Repartition(int num_partitions = 0) const {
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          std::vector<T> all = Flatten(in);
          internal_shuffle::NoteShuffle(static_cast<int64_t>(all.size()),
                                        sizeof(T));
          return internal_dataset::Chunk(std::move(all), parts);
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Hash-partitions records so equal keys land in the same partition.
  /// `key_of(const T&)` must return a DfHash-able key. This is how the VE
  /// representation "reconstructs temporal locality at runtime" (Section 3).
  /// Hot keys get a dedicated partition each (HotRouting::kIsolate), so
  /// the output may hold more than `num_partitions` partitions; equal keys
  /// are still always co-located.
  template <typename KeyOf>
  Dataset<T> PartitionBy(KeyOf key_of, int num_partitions = 0) const {
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, key_of = std::move(key_of), parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          return internal_shuffle::ShuffleBy(
              ctx, in, static_cast<size_t>(parts), key_of,
              internal_shuffle::HotRouting::kIsolate);
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Pairs every record with a key: Dataset<pair<K, T>>.
  template <typename Fn, typename K = std::invoke_result_t<Fn, const T&>>
  Dataset<std::pair<K, T>> KeyBy(Fn fn) const {
    return Map([fn = std::move(fn)](const T& record) {
      return std::pair<K, T>(fn(record), record);
    });
  }

  /// Removes duplicates (by DfHash/==) via a shuffle. A heavily repeated
  /// record is spread over sub-partitions, deduplicated locally, and
  /// re-deduplicated across its sub-partitions in a cheap merge step.
  Dataset<T> Distinct(int num_partitions = 0) const {
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          auto key = [](const T& record) -> const T& { return record; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, in, static_cast<size_t>(parts), key, /*allow_spread=*/true);
          Partitions<T> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, in, plan, key, internal_shuffle::HotRouting::kSpread);
          Partitions<T> out(shuffled.size());
          ctx->ParallelFor(shuffled.size(), [&](size_t p) {
            std::unordered_set<T, DfHasher<T>> seen;
            seen.reserve(shuffled[p].size());
            for (T& record : shuffled[p]) {
              if (seen.insert(record).second) out[p].push_back(record);
            }
          });
          internal_dataset::MergeHotDistinct(ctx, plan, &out);
          return out;
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Gathers, sorts by `less`, and redistributes contiguously (a total
  /// order across partitions).
  template <typename Less>
  Dataset<T> SortBy(Less less, int num_partitions = 0) const {
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, less = std::move(less), parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          std::vector<T> all = Flatten(in);
          std::stable_sort(all.begin(), all.end(), less);
          return internal_dataset::Chunk(std::move(all), parts);
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  // ---------------------------------------------------------------------
  // Key-value (wide) transformations — enabled when T is std::pair<K, V>
  // ---------------------------------------------------------------------

  /// Groups values by key: Dataset<pair<K, vector<V>>>. A hot key is
  /// spread over sub-partitions, partially grouped in each (without the
  /// per-record hash-map probe — a sub-partition holds a single key hash,
  /// so grouping is an equality scan over a handful of entries), then the
  /// partial value vectors are concatenated in a merge step.
  template <typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto GroupByKey(int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    using Out = std::pair<K, std::vector<V>>;
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = node_;
    auto node = std::make_shared<LambdaNode<Out>>(
        [input, parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          auto key = [](const T& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, in, static_cast<size_t>(parts), key, /*allow_spread=*/true);
          Partitions<T> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, in, plan, key, internal_shuffle::HotRouting::kSpread);
          Partitions<Out> out(shuffled.size());
          ctx->ParallelFor(shuffled.size(), [&](size_t p) {
            if (p >= plan.num_base) {
              // Hot sub-partition: one key hash; group by equality scan.
              for (T& kv : shuffled[p]) {
                auto it = std::find_if(out[p].begin(), out[p].end(),
                                       [&](const Out& group) {
                                         return group.first == kv.first;
                                       });
                if (it == out[p].end()) {
                  out[p].emplace_back(kv.first, std::vector<V>{});
                  it = std::prev(out[p].end());
                  it->second.reserve(shuffled[p].size());
                }
                it->second.push_back(std::move(kv.second));
              }
              return;
            }
            std::unordered_map<K, std::vector<V>, DfHasher<K>> groups;
            groups.reserve(shuffled[p].size());
            for (T& kv : shuffled[p]) {
              groups[kv.first].push_back(std::move(kv.second));
            }
            out[p].reserve(groups.size());
            for (auto& [key, values] : groups) {
              out[p].emplace_back(key, std::move(values));
            }
          });
          internal_dataset::MergeHotGroups(
              ctx, plan, &out,
              [](std::vector<V>* dst, std::vector<V>&& src) {
                dst->reserve(dst->size() + src.size());
                std::move(src.begin(), src.end(), std::back_inserter(*dst));
              });
          return out;
        });
    return Dataset<Out>(ctx_, std::move(node));
  }

  /// Merges values per key with a commutative, associative function
  /// `fn(const V&, const V&) -> V`. Performs map-side combining before the
  /// shuffle, like Spark's reduceByKey.
  template <typename Fn, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  Dataset<T> ReduceByKey(Fn fn, int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, fn = std::move(fn), parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          // Map-side combine.
          Partitions<T> combined(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            std::unordered_map<K, V, DfHasher<K>> acc;
            acc.reserve(in[p].size());
            for (const T& kv : in[p]) {
              auto [it, inserted] = acc.try_emplace(kv.first, kv.second);
              if (!inserted) it->second = fn(it->second, kv.second);
            }
            combined[p].reserve(acc.size());
            for (auto& [key, value] : acc) {
              combined[p].emplace_back(key, std::move(value));
            }
          });
          // Shuffle + final combine. Map-side combining already collapses
          // each key to at most one record per input partition, so a key
          // only stays hot here when the partition count itself is large;
          // the spread + merge path handles that residual case.
          auto key = [](const T& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, combined, static_cast<size_t>(parts), key,
              /*allow_spread=*/true);
          Partitions<T> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, combined, plan, key, internal_shuffle::HotRouting::kSpread);
          Partitions<T> out(shuffled.size());
          ctx->ParallelFor(shuffled.size(), [&](size_t p) {
            std::unordered_map<K, V, DfHasher<K>> acc;
            acc.reserve(shuffled[p].size());
            for (T& kv : shuffled[p]) {
              auto [it, inserted] =
                  acc.try_emplace(kv.first, std::move(kv.second));
              if (!inserted) it->second = fn(it->second, kv.second);
            }
            out[p].reserve(acc.size());
            for (auto& [key, value] : acc) {
              out[p].emplace_back(key, std::move(value));
            }
          });
          internal_dataset::MergeHotGroups(ctx, plan, &out,
                                           [&fn](V* dst, V&& src) {
                                             *dst = fn(*dst, src);
                                           });
          return out;
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Folds values per key into an accumulator A:
  /// `seq(A*, const V&)` folds a value in, `comb(A*, A&&)` merges two
  /// accumulators. Equivalent to Spark aggregateByKey / the paper's foldLeft.
  template <typename A, typename Seq, typename Comb, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto AggregateByKey(A init, Seq seq, Comb comb, int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using Out = std::pair<K, A>;
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = node_;
    auto node = std::make_shared<LambdaNode<Out>>(
        [input, init = std::move(init), seq = std::move(seq),
         comb = std::move(comb), parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          // Map-side partial aggregation.
          Partitions<Out> partial(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            std::unordered_map<K, A, DfHasher<K>> acc;
            for (const T& kv : in[p]) {
              auto [it, inserted] = acc.try_emplace(kv.first, init);
              seq(&it->second, kv.second);
            }
            partial[p].reserve(acc.size());
            for (auto& [key, value] : acc) {
              partial[p].emplace_back(key, std::move(value));
            }
          });
          auto key = [](const Out& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, partial, static_cast<size_t>(parts), key,
              /*allow_spread=*/true);
          Partitions<Out> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, partial, plan, key, internal_shuffle::HotRouting::kSpread);
          Partitions<Out> out(shuffled.size());
          ctx->ParallelFor(shuffled.size(), [&](size_t p) {
            std::unordered_map<K, A, DfHasher<K>> acc;
            for (Out& kv : shuffled[p]) {
              auto [it, inserted] =
                  acc.try_emplace(kv.first, std::move(kv.second));
              if (!inserted) comb(&it->second, std::move(kv.second));
            }
            out[p].reserve(acc.size());
            for (auto& [key, value] : acc) {
              out[p].emplace_back(key, std::move(value));
            }
          });
          internal_dataset::MergeHotGroups(ctx, plan, &out,
                                           [&comb](A* dst, A&& src) {
                                             comb(dst, std::move(src));
                                           });
          return out;
        });
    return Dataset<Out>(ctx_, std::move(node));
  }

  /// Counts records per key.
  template <typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto CountByKey(int num_partitions = 0) const {
    return Map([](const T& kv) {
             return std::pair<typename internal_dataset::PairTraits<P>::Key,
                              int64_t>(kv.first, 1);
           })
        .ReduceByKey([](const int64_t& a, const int64_t& b) { return a + b; },
                     num_partitions);
  }

  /// Inner hash join on key: Dataset<pair<K, pair<V, W>>> with one output
  /// per matching (left, right) pair.
  template <typename W, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto Join(const Dataset<
                std::pair<typename internal_dataset::PairTraits<P>::Key, W>>& right,
            int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    using RightT = std::pair<K, W>;
    using Out = std::pair<K, std::pair<V, W>>;
    TG_CHECK_EQ(ctx_, right.context());
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto left_node = node_;
    auto right_node = right.node();
    auto node = std::make_shared<LambdaNode<Out>>(
        [left_node, right_node, parts](ExecutionContext* ctx) {
          const Partitions<T>& lin = left_node->Materialize(ctx);
          const Partitions<RightT>& rin = right_node->Materialize(ctx);
          auto key_left = [](const T& kv) -> const K& { return kv.first; };
          auto key_right = [](const RightT& kv) -> const K& { return kv.first; };
          // Skew handling detects hot keys on the probe (left) side,
          // spreads their records over sub-partitions, and replicates the
          // matching build-side rows into every sub-partition (the salted
          // key + broadcast join). Build-side-only skew is left alone:
          // splitting it would replicate the heavy side.
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, lin, static_cast<size_t>(parts), key_left,
              /*allow_spread=*/true);
          Partitions<T> ls = internal_shuffle::ShuffleWithPlan(
              ctx, lin, plan, key_left,
              internal_shuffle::HotRouting::kSpread);
          Partitions<RightT> rs = internal_shuffle::ShuffleWithPlan(
              ctx, rin, plan, key_right,
              internal_shuffle::HotRouting::kReplicate);
          Partitions<Out> out(ls.size());
          ctx->ParallelFor(ls.size(), [&](size_t p) {
            std::unordered_map<K, std::vector<W>, DfHasher<K>> table;
            table.reserve(rs[p].size());
            for (RightT& kv : rs[p]) {
              table[kv.first].push_back(std::move(kv.second));
            }
            for (const T& kv : ls[p]) {
              auto it = table.find(kv.first);
              if (it == table.end()) continue;
              for (const W& w : it->second) {
                out[p].emplace_back(kv.first, std::pair<V, W>(kv.second, w));
              }
            }
          });
          return out;
        });
    return Dataset<Out>(ctx_, std::move(node));
  }

  /// Keeps left records whose key appears on the right (the `semijoin` of
  /// Algorithms 5 and 6, used for dangling-edge removal).
  template <typename W, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  Dataset<T> SemiJoin(
      const Dataset<
          std::pair<typename internal_dataset::PairTraits<P>::Key, W>>& right,
      int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using RightT = std::pair<K, W>;
    TG_CHECK_EQ(ctx_, right.context());
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto left_node = node_;
    auto right_node = right.node();
    auto node = std::make_shared<LambdaNode<T>>(
        [left_node, right_node, parts](ExecutionContext* ctx) {
          const Partitions<T>& lin = left_node->Materialize(ctx);
          const Partitions<RightT>& rin = right_node->Materialize(ctx);
          auto key_left = [](const T& kv) -> const K& { return kv.first; };
          auto key_right = [](const RightT& kv) -> const K& { return kv.first; };
          // Like Join: spread the hot left keys, replicate the right-side
          // key set into their sub-partitions.
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, lin, static_cast<size_t>(parts), key_left,
              /*allow_spread=*/true);
          Partitions<T> ls = internal_shuffle::ShuffleWithPlan(
              ctx, lin, plan, key_left,
              internal_shuffle::HotRouting::kSpread);
          Partitions<RightT> rs = internal_shuffle::ShuffleWithPlan(
              ctx, rin, plan, key_right,
              internal_shuffle::HotRouting::kReplicate);
          Partitions<T> out(ls.size());
          ctx->ParallelFor(ls.size(), [&](size_t p) {
            std::unordered_set<K, DfHasher<K>> keys;
            keys.reserve(rs[p].size());
            for (const RightT& kv : rs[p]) keys.insert(kv.first);
            for (T& kv : ls[p]) {
              if (keys.contains(kv.first)) out[p].push_back(std::move(kv));
            }
          });
          return out;
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Groups both sides by key: Dataset<pair<K, pair<vector<V>, vector<W>>>>.
  /// Keys present on either side appear in the output.
  template <typename W, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto CoGroup(
      const Dataset<
          std::pair<typename internal_dataset::PairTraits<P>::Key, W>>& right,
      int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    using RightT = std::pair<K, W>;
    using Out = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;
    TG_CHECK_EQ(ctx_, right.context());
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto left_node = node_;
    auto right_node = right.node();
    auto node = std::make_shared<LambdaNode<Out>>(
        [left_node, right_node, parts](ExecutionContext* ctx) {
          const Partitions<T>& lin = left_node->Materialize(ctx);
          const Partitions<RightT>& rin = right_node->Materialize(ctx);
          auto key_left = [](const T& kv) -> const K& { return kv.first; };
          auto key_right = [](const RightT& kv) -> const K& { return kv.first; };
          // Both sides contribute values that are merely gathered (no
          // pairing), so hot keys — detected over the union of both
          // sides — are spread on both sides and the partial groups
          // concatenated in the merge step.
          const ShuffleOptions& options = ctx->shuffle_options();
          bool sketch = options.enable && parts > 1;
          double floor = internal_shuffle::CandidateFloor(
              options, static_cast<size_t>(parts));
          std::vector<internal_shuffle::FrequentSketch::Candidate> candidates;
          int64_t total =
              internal_shuffle::SketchKeys(ctx, lin, key_left, &candidates,
                                           sketch, floor) +
              internal_shuffle::SketchKeys(ctx, rin, key_right, &candidates,
                                           sketch, floor);
          internal_shuffle::ShufflePlan plan =
              internal_shuffle::BuildShufflePlan(
                  static_cast<size_t>(parts), total, std::move(candidates),
                  options, /*allow_spread=*/true);
          Partitions<T> ls = internal_shuffle::ShuffleWithPlan(
              ctx, lin, plan, key_left,
              internal_shuffle::HotRouting::kSpread);
          Partitions<RightT> rs = internal_shuffle::ShuffleWithPlan(
              ctx, rin, plan, key_right,
              internal_shuffle::HotRouting::kSpread);
          Partitions<Out> out(ls.size());
          ctx->ParallelFor(ls.size(), [&](size_t p) {
            std::unordered_map<K, std::pair<std::vector<V>, std::vector<W>>,
                               DfHasher<K>>
                groups;
            for (T& kv : ls[p]) {
              groups[kv.first].first.push_back(std::move(kv.second));
            }
            for (RightT& kv : rs[p]) {
              groups[kv.first].second.push_back(std::move(kv.second));
            }
            out[p].reserve(groups.size());
            for (auto& [key, pair] : groups) {
              out[p].emplace_back(key, std::move(pair));
            }
          });
          internal_dataset::MergeHotGroups(
              ctx, plan, &out,
              [](std::pair<std::vector<V>, std::vector<W>>* dst,
                 std::pair<std::vector<V>, std::vector<W>>&& src) {
                dst->first.reserve(dst->first.size() + src.first.size());
                std::move(src.first.begin(), src.first.end(),
                          std::back_inserter(dst->first));
                dst->second.reserve(dst->second.size() + src.second.size());
                std::move(src.second.begin(), src.second.end(),
                          std::back_inserter(dst->second));
              });
          return out;
        });
    return Dataset<Out>(ctx_, std::move(node));
  }

  // ---------------------------------------------------------------------
  // Actions (trigger execution)
  // ---------------------------------------------------------------------

  /// Materializes and returns all records in partition order.
  std::vector<T> Collect() const {
    return Flatten(node_->Materialize(ctx_));
  }

  /// Materializes and returns the record count.
  int64_t Count() const {
    const Partitions<T>& parts = node_->Materialize(ctx_);
    int64_t total = 0;
    for (const auto& part : parts) total += static_cast<int64_t>(part.size());
    return total;
  }

  /// Folds all records with a commutative, associative `fn`, starting from
  /// `identity`.
  template <typename Fn>
  T Reduce(T identity, Fn fn) const {
    const Partitions<T>& parts = node_->Materialize(ctx_);
    std::vector<T> partials(parts.size(), identity);
    ctx_->ParallelFor(parts.size(), [&](size_t p) {
      for (const T& record : parts[p]) partials[p] = fn(partials[p], record);
    });
    T result = identity;
    for (const T& partial : partials) result = fn(result, partial);
    return result;
  }

  /// First `n` records in partition order (materializes the dataset).
  std::vector<T> Take(int64_t n) const {
    const Partitions<T>& parts = node_->Materialize(ctx_);
    std::vector<T> out;
    for (const auto& part : parts) {
      for (const T& record : part) {
        if (static_cast<int64_t>(out.size()) >= n) return out;
        out.push_back(record);
      }
    }
    return out;
  }

  /// The first record, or nullopt if empty.
  std::optional<T> First() const {
    std::vector<T> head = Take(1);
    if (head.empty()) return std::nullopt;
    return std::move(head.front());
  }

  /// Keeps each record independently with probability `fraction`,
  /// deterministically in (seed, partition, position).
  Dataset<T> Sample(double fraction, uint64_t seed = 17) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, fraction, seed](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          Partitions<T> out(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            for (size_t i = 0; i < in[p].size(); ++i) {
              uint64_t h = HashCombine(HashCombine(Mix64(seed), Mix64(p)),
                                       Mix64(i));
              // Uniform in [0,1) from the top 53 bits; < keeps fraction=1.0
              // total and fraction=0.0 empty.
              double u = static_cast<double>(h >> 11) * 0x1.0p-53;
              if (u < fraction) out[p].push_back(in[p][i]);
            }
          });
          return out;
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Forces materialization now (e.g. to time stages separately); returns
  /// *this for chaining.
  const Dataset<T>& Cache() const {
    node_->Materialize(ctx_);
    return *this;
  }

  /// Materialized partitions (triggers execution).
  const Partitions<T>& MaterializedPartitions() const {
    return node_->Materialize(ctx_);
  }

  /// Number of partitions (triggers execution).
  size_t NumPartitions() const { return node_->Materialize(ctx_).size(); }

  const std::shared_ptr<PlanNode<T>>& node() const { return node_; }

 private:
  static std::vector<T> Flatten(const Partitions<T>& parts) {
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    std::vector<T> all;
    all.reserve(total);
    for (const auto& part : parts) {
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

  ExecutionContext* ctx_ = nullptr;
  std::shared_ptr<PlanNode<T>> node_;
};

}  // namespace tgraph::dataflow

#endif  // TGRAPH_DATAFLOW_DATASET_H_
