#ifndef TGRAPH_DATAFLOW_DATASET_H_
#define TGRAPH_DATAFLOW_DATASET_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dataflow/context.h"
#include "dataflow/flat_index.h"
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

/// \brief What a plan node computes: its partitions, and the partition count
/// their records are routed by — every record sits in partition
/// `RouteHash(key) % routed` (see Dataset::RoutedPartitions) — or 0 when
/// the node claims no routing.
template <typename T>
struct StageOutput {
  Partitions<T> parts;
  size_t routed = 0;
};

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
      StageOutput<T> out = Compute(ctx);
      cache_ = std::move(out.parts);
      routed_ = out.routed;
      Release();
    });
    return cache_;
  }

  /// The partition count the output is routed by, or 0 (materializes).
  size_t Routed(ExecutionContext* ctx) {
    Materialize(ctx);
    return routed_;
  }

 protected:
  virtual StageOutput<T> Compute(ExecutionContext* ctx) = 0;
  /// Drops references to inputs after Compute; default no-op.
  virtual void Release() {}

 private:
  std::once_flag once_;
  Partitions<T> cache_;
  size_t routed_ = 0;
};

/// \brief A plan node defined by a closure. All operators produce these; the
/// closure captures the input nodes (as shared_ptrs) and is destroyed after
/// it runs, releasing the lineage. A closure returns a StageOutput, or bare
/// Partitions when its output claims no routing.
template <typename T>
class LambdaNode final : public PlanNode<T> {
 public:
  using ComputeFn = std::function<StageOutput<T>(ExecutionContext*)>;

  template <typename Fn>
  explicit LambdaNode(Fn fn) {
    if constexpr (std::is_same_v<std::invoke_result_t<Fn&, ExecutionContext*>,
                                 Partitions<T>>) {
      fn_ = [fn = std::move(fn)](ExecutionContext* ctx) mutable {
        return StageOutput<T>{fn(ctx), 0};
      };
    } else {
      fn_ = std::move(fn);
    }
  }

 protected:
  StageOutput<T> Compute(ExecutionContext* ctx) override { return fn_(ctx); }
  void Release() override { fn_ = nullptr; }

 private:
  ComputeFn fn_;
};

/// Tag for Map and FlatMap: the caller declares that each output record is
/// keyed by the id its input record was routed by, so the output keeps the
/// input's routing. Spark's `preservesPartitioning`.
struct PreservesPartitioning {};
inline constexpr PreservesPartitioning kPreservesPartitioning{};

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

/// Merges each hot key's sub-partitions into its first sub-partition (the
/// reduce side of two-level aggregation after a HotRouting::kSpread
/// shuffle). `key_of(const E&)` returns an entry's key, and
/// `merge(E* dst, E&& src)` folds an entry into its equal-keyed head
/// entry; entries with a new key are appended in order. A hot route hash
/// may stand for many keys — a composite key routes by its prefix, so one
/// hub vertex's (vid, window) keys share it — so the head is indexed.
template <typename K, typename E, typename KeyOf, typename Merge>
void MergeHotSubPartitions(ExecutionContext* ctx,
                           const internal_shuffle::ShufflePlan& plan,
                           Partitions<E>* out, const KeyOf& key_of,
                           const Merge& merge) {
  if (!plan.rebalanced()) return;
  TG_SPAN("dataflow.shuffle.merge", "dataflow");
  ctx->ParallelFor(plan.hot.size(), [&](size_t i) {
    const internal_shuffle::HotKey& hk = plan.hot[i];
    if (hk.splits <= 1) return;
    std::vector<E>& head = (*out)[hk.first_sub];
    auto index = MakeFlatIndex<K>(
        head.size(), [&](size_t j) -> const K& { return key_of(head[j]); });
    for (const E& entry : head) index.Insert(key_of(entry));
    for (int s = 1; s < hk.splits; ++s) {
      auto& sub = (*out)[hk.first_sub + static_cast<size_t>(s)];
      for (E& entry : sub) {
        auto [pos, inserted] = index.Insert(key_of(entry));
        if (inserted) {
          head.push_back(std::move(entry));
        } else {
          merge(&head[pos], std::move(entry));
        }
      }
      sub.clear();
    }
  });
}

/// MergeHotSubPartitions for key-value entries: `append(S* dst, S&& src)`
/// merges the states of two entries with equal keys.
template <typename K, typename S, typename Append>
void MergeHotGroups(ExecutionContext* ctx,
                    const internal_shuffle::ShufflePlan& plan,
                    Partitions<std::pair<K, S>>* out, const Append& append) {
  using E = std::pair<K, S>;
  MergeHotSubPartitions<K>(
      ctx, plan, out, [](const E& e) -> const K& { return e.first; },
      [&append](E* dst, E&& src) {
        append(&dst->second, std::move(src.second));
      });
}

/// The routed output of a keyed operator that ran `plan`'s shuffle into
/// `parts` base partitions: routed unless a hot key moved to a
/// sub-partition.
inline size_t RoutedAfter(const internal_shuffle::ShufflePlan& plan,
                          size_t parts) {
  return plan.rebalanced() ? 0 : parts;
}

/// The two inputs of a binary keyed operator, brought onto the same
/// routing by CoPartition. `left` and `right` point at an input itself
/// when it stayed where it was, or at its shuffled copy here.
template <typename L, typename R>
struct CoPartitioned {
  CoPartitioned() = default;
  CoPartitioned(const CoPartitioned&) = delete;
  CoPartitioned& operator=(const CoPartitioned&) = delete;

  /// Calls fn(side) with the left side: mutable when it was shuffled here,
  /// so fn may move records out of it; const when it is the cached input.
  template <typename Fn>
  void VisitLeft(const Fn& fn) {
    if (left == &shuffled_left) {
      fn(shuffled_left);
    } else {
      fn(*left);
    }
  }
  template <typename Fn>
  void VisitRight(const Fn& fn) {
    if (right == &shuffled_right) {
      fn(shuffled_right);
    } else {
      fn(*right);
    }
  }

  const Partitions<L>* left = nullptr;
  const Partitions<R>* right = nullptr;
  Partitions<L> shuffled_left;
  Partitions<R> shuffled_right;
  internal_shuffle::ShufflePlan plan;  ///< hot keys both sides were split by
  size_t routed = 0;                   ///< the operator output's routing
};

/// Brings the key-value inputs of a binary keyed operator onto `parts`
/// partitions routed by key. Hot keys of the left side are spread, and
/// `right_hot` says how the right side follows them: kReplicate (a join's
/// build side, whose own skew is left alone) or kSpread (CoGroup, which
/// detects hot keys over both sides). An input already routed into `parts`
/// partitions stays where it is. When only one is, the other is shuffled
/// alone, unless its sketch finds a hot key: then both are shuffled the
/// skew-aware way.
template <typename L, typename R>
void CoPartition(ExecutionContext* ctx,
                 const std::shared_ptr<PlanNode<L>>& left,
                 const std::shared_ptr<PlanNode<R>>& right, size_t parts,
                 internal_shuffle::HotRouting right_hot,
                 CoPartitioned<L, R>* out) {
  using internal_shuffle::HotRouting;
  using internal_shuffle::ShufflePlan;
  using K = typename PairTraits<L>::Key;
  auto key_left = [](const L& kv) -> const K& { return kv.first; };
  auto key_right = [](const R& kv) -> const K& { return kv.first; };
  const Partitions<L>& lin = left->Materialize(ctx);
  const Partitions<R>& rin = right->Materialize(ctx);
  out->left = &lin;
  out->right = &rin;
  out->routed = parts;
  auto shuffle_left = [&](const ShufflePlan& plan) {
    out->shuffled_left = internal_shuffle::ShuffleWithPlan(
        ctx, lin, plan, key_left, HotRouting::kSpread);
    out->left = &out->shuffled_left;
  };
  auto shuffle_right = [&](const ShufflePlan& plan) {
    out->shuffled_right = internal_shuffle::ShuffleWithPlan(
        ctx, rin, plan, key_right, right_hot);
    out->right = &out->shuffled_right;
  };
  const bool left_routed = left->Routed(ctx) == parts;
  const bool right_routed = right->Routed(ctx) == parts;
  if (left_routed && right_routed) return;
  if (right_hot == HotRouting::kReplicate) {
    // The plan follows the left side's hot keys alone.
    if (left_routed) {
      ShufflePlan plain;
      plain.num_base = parts;
      shuffle_right(plain);
      return;
    }
    out->plan = internal_shuffle::PlanShuffle(ctx, lin, parts, key_left,
                                              /*allow_spread=*/true);
    if (right_routed && !out->plan.rebalanced()) {
      shuffle_left(out->plan);
      return;
    }
  } else {
    // The plan follows the hot keys of both sides; a routed side is
    // sketched only when the other side's own sketch finds a hot key.
    const ShuffleOptions& options = ctx->shuffle_options();
    const bool sketch = options.enable && parts > 1;
    const double floor = internal_shuffle::CandidateFloor(options, parts);
    std::vector<internal_shuffle::FrequentSketch::Candidate> candidates;
    int64_t total = 0;
    auto sketch_left = [&] {
      total += internal_shuffle::SketchKeys(ctx, lin, key_left, &candidates,
                                            sketch, floor);
    };
    auto sketch_right = [&] {
      total += internal_shuffle::SketchKeys(ctx, rin, key_right, &candidates,
                                            sketch, floor);
    };
    if (!left_routed) sketch_left();
    if (!right_routed) sketch_right();
    if (left_routed || right_routed) {
      ShufflePlan one = internal_shuffle::BuildShufflePlan(
          parts, total, candidates, options, /*allow_spread=*/true);
      if (!one.rebalanced()) {
        if (left_routed) {
          shuffle_right(one);
        } else {
          shuffle_left(one);
        }
        return;
      }
      if (left_routed) {
        sketch_left();
      } else {
        sketch_right();
      }
    }
    out->plan = internal_shuffle::BuildShufflePlan(
        parts, total, std::move(candidates), options, /*allow_spread=*/true);
  }
  // Neither input is routed, or the one to move has a hot key.
  shuffle_left(out->plan);
  shuffle_right(out->plan);
  out->routed = RoutedAfter(out->plan, parts);
}

/// Appends `src` to `dst` by moving its elements.
template <typename V>
void AppendMoved(std::vector<V>* dst, std::vector<V>&& src) {
  dst->reserve(dst->size() + src.size());
  std::move(src.begin(), src.end(), std::back_inserter(*dst));
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
/// CoGroup, Distinct, PartitionBy) hash-shuffle between stages. Every
/// wide transformation rides the skew-aware shuffle (dataflow/shuffle.h):
/// hot keys detected by a map-side sketch are split across dedicated
/// sub-partitions and re-merged per operator, so results are identical to
/// the plain hash shuffle (see ExecutionContext::shuffle_options to tune
/// or disable).
///
/// A dataset may carry the partition count its records are routed into by
/// key (RoutedPartitions). Wide transformations stamp it, Filter,
/// MapValues, FlatMapValues and the kPreservesPartitioning forms of
/// Map/FlatMap keep it, and a wide transformation whose input is already
/// routed into its partition count does not shuffle that input.
///
/// Each wide operator builds its per-partition tables on one flat
/// open-addressing index (dataflow/flat_index.h), which allocates nothing
/// per key. An output partition lists its keys (Distinct: its records) in
/// the order they first occur in the shuffled partition; Join emits, per
/// probe record in order, its matches in build-side order. The output is
/// therefore a function of the input partitioning alone, independent of
/// the worker count.
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

  /// Record-wise transform. U is deduced from the callable. The output
  /// claims no routing.
  template <typename Fn, typename U = std::invoke_result_t<Fn, const T&>>
  Dataset<U> Map(Fn fn) const {
    return MapRecords<U>(std::move(fn), /*keep_routing=*/false);
  }

  /// Map that keeps the input's routing: each output record must be keyed
  /// by the id its input record was routed by (a `pair<vid, ·>` mapped to
  /// `VeVertex{vid, …}` and back).
  template <typename Fn, typename U = std::invoke_result_t<Fn, const T&>>
  Dataset<U> Map(Fn fn, PreservesPartitioning) const {
    return MapRecords<U>(std::move(fn), /*keep_routing=*/true);
  }

  /// Keeps records for which `pred` returns true, and the input's routing.
  template <typename Pred>
  Dataset<T> Filter(Pred pred) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, pred = std::move(pred)](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          StageOutput<T> out{Partitions<T>(in.size()), input->Routed(ctx)};
          ctx->ParallelFor(in.size(), [&](size_t p) {
            for (const T& record : in[p]) {
              if (pred(record)) out.parts[p].push_back(record);
            }
          });
          return out;
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Record-wise transform emitting zero or more outputs per input via an
  /// out-parameter (avoids a vector allocation per record).
  /// `fn(const T&, std::vector<U>*)`. The output claims no routing.
  template <typename U, typename Fn>
  Dataset<U> FlatMap(Fn fn) const {
    return FlatMapRecords<U>(std::move(fn), /*keep_routing=*/false);
  }

  /// FlatMap that keeps the input's routing; see Map(fn,
  /// kPreservesPartitioning). A composite output key qualifies when its
  /// RouteKey() is the input's routed id.
  template <typename U, typename Fn>
  Dataset<U> FlatMap(Fn fn, PreservesPartitioning) const {
    return FlatMapRecords<U>(std::move(fn), /*keep_routing=*/true);
  }

  /// Transforms each value, keeping its key and the input's routing:
  /// `fn(const V&) -> U` gives Dataset<pair<K, U>>.
  template <typename Fn, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto MapValues(Fn fn) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    using U = std::invoke_result_t<Fn, const V&>;
    return Map(
        [fn = std::move(fn)](const T& kv) {
          return std::pair<K, U>(kv.first, fn(kv.second));
        },
        kPreservesPartitioning);
  }

  /// Expands each value into zero or more values under the same key,
  /// keeping the input's routing: `fn(const V&, std::vector<U>*)` gives
  /// Dataset<pair<K, U>>.
  template <typename U, typename Fn, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto FlatMapValues(Fn fn) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using Out = std::pair<K, U>;
    return FlatMap<Out>(
        [fn = std::move(fn)](const T& kv, std::vector<Out>* out) {
          std::vector<U> values;
          fn(kv.second, &values);
          for (U& value : values) out->emplace_back(kv.first, std::move(value));
        },
        kPreservesPartitioning);
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
  /// are still always co-located. The output claims no routing: a routing
  /// names no key function, and wide operators route by `.first`. Use
  /// PartitionByKey for that.
  template <typename KeyOf>
  Dataset<T> PartitionBy(KeyOf key_of, int num_partitions = 0) const {
    const size_t parts = PartitionCount(num_partitions);
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, key_of = std::move(key_of), parts](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, in, parts, key_of, /*allow_spread=*/false);
          return internal_shuffle::ShuffleWithPlan(
              ctx, in, plan, key_of, internal_shuffle::HotRouting::kIsolate);
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  /// Hash-partitions key-value records by key. Routed by the key unless a
  /// hot key was isolated, so a wide operator over the same number of
  /// partitions that follows skips its shuffle.
  template <typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  Dataset<T> PartitionByKey(int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    const size_t parts = PartitionCount(num_partitions);
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, parts](ExecutionContext* ctx) -> StageOutput<T> {
          const Partitions<T>& in = input->Materialize(ctx);
          auto key = [](const T& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, in, parts, key, /*allow_spread=*/false);
          return {internal_shuffle::ShuffleWithPlan(
                      ctx, in, plan, key,
                      internal_shuffle::HotRouting::kIsolate),
                  internal_dataset::RoutedAfter(plan, parts)};
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
            std::vector<T>& unique = out[p];
            auto index = internal_dataset::MakeFlatIndex<T>(
                shuffled[p].size(),
                [&unique](size_t i) -> const T& { return unique[i]; });
            for (T& record : shuffled[p]) {
              if (index.Insert(record).second) {
                unique.push_back(std::move(record));
              }
            }
          });
          internal_dataset::MergeHotSubPartitions<T>(ctx, plan, &out, key,
                                                     [](T*, T&&) {});
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
  //
  // Each routes by RouteHash(key) into `num_partitions` partitions and
  // stamps its output as routed unless a hot key moved to a sub-partition.
  // An input already routed into that many partitions is not shuffled:
  // the one-input operators run one local pass, and a two-input operator
  // shuffles only the side that is not routed (both sides, the skew-aware
  // way, when that side's sketch finds a hot key).
  // ---------------------------------------------------------------------

  /// Groups values by key: Dataset<pair<K, vector<V>>>. A hot key is
  /// spread over sub-partitions, partially grouped in each, then the
  /// partial value vectors are concatenated in a merge step.
  template <typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto GroupByKey(int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    using Out = std::pair<K, std::vector<V>>;
    const size_t parts = PartitionCount(num_partitions);
    auto input = node_;
    auto node = std::make_shared<LambdaNode<Out>>(
        [input, parts](ExecutionContext* ctx) -> StageOutput<Out> {
          const Partitions<T>& in = input->Materialize(ctx);
          // Moves values out of a shuffled (mutable) side; copies them
          // from the cached input.
          auto group = [ctx](auto& side) {
            Partitions<Out> out(side.size());
            ctx->ParallelFor(side.size(), [&](size_t p) {
              std::vector<Out>& groups = out[p];
              auto index =
                  internal_dataset::IndexByFirst<K>(groups, side[p].size());
              for (auto& kv : side[p]) {
                auto [i, inserted] = index.Insert(kv.first);
                if (inserted) groups.emplace_back(kv.first, std::vector<V>{});
                groups[i].second.push_back(std::move(kv.second));
              }
            });
            return out;
          };
          if (input->Routed(ctx) == parts) return {group(in), parts};
          auto key = [](const T& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, in, parts, key, /*allow_spread=*/true);
          Partitions<T> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, in, plan, key, internal_shuffle::HotRouting::kSpread);
          Partitions<Out> out = group(shuffled);
          internal_dataset::MergeHotGroups(ctx, plan, &out,
                                           internal_dataset::AppendMoved<V>);
          return {std::move(out), internal_dataset::RoutedAfter(plan, parts)};
        });
    return Dataset<Out>(ctx_, std::move(node));
  }

  /// Merges values per key with a commutative, associative function
  /// `fn(V, V) -> V`. The accumulated value is passed as an rvalue, so a
  /// `fn` taking its first argument by value grows it in place; one taking
  /// `const V&` works too. Performs map-side combining before the shuffle,
  /// like Spark's reduceByKey; over a routed input that combine is the
  /// result.
  template <typename Fn, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  Dataset<T> ReduceByKey(Fn fn, int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    const size_t parts = PartitionCount(num_partitions);
    auto input = node_;
    auto node = std::make_shared<LambdaNode<T>>(
        [input, fn = std::move(fn), parts](ExecutionContext* ctx)
            -> StageOutput<T> {
          const Partitions<T>& in = input->Materialize(ctx);
          // Map-side combine.
          Partitions<T> combined(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            std::vector<T>& acc = combined[p];
            auto index = internal_dataset::IndexByFirst<K>(acc, in[p].size());
            for (const T& kv : in[p]) {
              auto [i, inserted] = index.Insert(kv.first);
              if (inserted) {
                acc.push_back(kv);
              } else {
                acc[i].second = fn(std::move(acc[i].second), kv.second);
              }
            }
          });
          if (input->Routed(ctx) == parts) return {std::move(combined), parts};
          // Shuffle + final combine. Map-side combining already collapses
          // each key to at most one record per input partition, so a key
          // only stays hot here when the partition count itself is large;
          // the spread + merge path handles that residual case.
          auto key = [](const T& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, combined, parts, key, /*allow_spread=*/true);
          Partitions<T> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, std::move(combined), plan, key,
              internal_shuffle::HotRouting::kSpread);
          Partitions<T> out(shuffled.size());
          ctx->ParallelFor(shuffled.size(), [&](size_t p) {
            // Map-side combining left each key at most once per input
            // partition, so the shuffled size bounds the keys closely.
            std::vector<T>& acc = out[p];
            acc.reserve(shuffled[p].size());
            auto index =
                internal_dataset::IndexByFirst<K>(acc, shuffled[p].size());
            for (T& kv : shuffled[p]) {
              auto [i, inserted] = index.Insert(kv.first);
              if (inserted) {
                acc.push_back(std::move(kv));
              } else {
                acc[i].second =
                    fn(std::move(acc[i].second), std::move(kv.second));
              }
            }
          });
          internal_dataset::MergeHotGroups(ctx, plan, &out,
                                           [&fn](V* dst, V&& src) {
                                             *dst = fn(std::move(*dst),
                                                       std::move(src));
                                           });
          return {std::move(out), internal_dataset::RoutedAfter(plan, parts)};
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
    const size_t parts = PartitionCount(num_partitions);
    auto input = node_;
    auto node = std::make_shared<LambdaNode<Out>>(
        [input, init = std::move(init), seq = std::move(seq),
         comb = std::move(comb), parts](ExecutionContext* ctx)
            -> StageOutput<Out> {
          const Partitions<T>& in = input->Materialize(ctx);
          // Map-side partial aggregation.
          Partitions<Out> partial(in.size());
          ctx->ParallelFor(in.size(), [&](size_t p) {
            std::vector<Out>& acc = partial[p];
            auto index = internal_dataset::IndexByFirst<K>(acc, in[p].size());
            for (const T& kv : in[p]) {
              auto [i, inserted] = index.Insert(kv.first);
              if (inserted) acc.emplace_back(kv.first, init);
              seq(&acc[i].second, kv.second);
            }
          });
          if (input->Routed(ctx) == parts) return {std::move(partial), parts};
          auto key = [](const Out& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, partial, parts, key, /*allow_spread=*/true);
          Partitions<Out> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, std::move(partial), plan, key,
              internal_shuffle::HotRouting::kSpread);
          Partitions<Out> out(shuffled.size());
          ctx->ParallelFor(shuffled.size(), [&](size_t p) {
            std::vector<Out>& acc = out[p];
            acc.reserve(shuffled[p].size());
            auto index =
                internal_dataset::IndexByFirst<K>(acc, shuffled[p].size());
            for (Out& kv : shuffled[p]) {
              auto [i, inserted] = index.Insert(kv.first);
              if (inserted) {
                acc.push_back(std::move(kv));
              } else {
                comb(&acc[i].second, std::move(kv.second));
              }
            }
          });
          internal_dataset::MergeHotGroups(ctx, plan, &out,
                                           [&comb](A* dst, A&& src) {
                                             comb(dst, std::move(src));
                                           });
          return {std::move(out), internal_dataset::RoutedAfter(plan, parts)};
        });
    return Dataset<Out>(ctx_, std::move(node));
  }

  /// Counts records per key.
  template <typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto CountByKey(int num_partitions = 0) const {
    return MapValues([](const auto&) { return int64_t{1}; })
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
    const size_t parts = PartitionCount(num_partitions);
    auto left_node = node_;
    auto right_node = right.node();
    auto node = std::make_shared<LambdaNode<Out>>(
        [left_node, right_node, parts](ExecutionContext* ctx)
            -> StageOutput<Out> {
          // Skew handling detects hot keys on the probe (left) side,
          // spreads their records over sub-partitions, and replicates the
          // matching build-side rows into every sub-partition (the salted
          // key + broadcast join). Build-side-only skew is left alone:
          // splitting it would replicate the heavy side.
          internal_dataset::CoPartitioned<T, RightT> sides;
          internal_dataset::CoPartition(
              ctx, left_node, right_node, parts,
              internal_shuffle::HotRouting::kReplicate, &sides);
          const Partitions<T>& ls = *sides.left;
          const Partitions<RightT>& rs = *sides.right;
          Partitions<Out> out(ls.size());
          ctx->ParallelFor(ls.size(), [&](size_t p) {
            const internal_dataset::KeyChains<K, W> table(rs[p]);
            for (const T& kv : ls[p]) {
              table.ForEachMatch(kv.first, [&](const W& w) {
                out[p].emplace_back(kv.first, std::pair<V, W>(kv.second, w));
              });
            }
          });
          return {std::move(out), sides.routed};
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
    const size_t parts = PartitionCount(num_partitions);
    auto left_node = node_;
    auto right_node = right.node();
    auto node = std::make_shared<LambdaNode<T>>(
        [left_node, right_node, parts](ExecutionContext* ctx)
            -> StageOutput<T> {
          // Like Join: spread the hot left keys, replicate the right-side
          // key set into their sub-partitions.
          internal_dataset::CoPartitioned<T, RightT> sides;
          internal_dataset::CoPartition(
              ctx, left_node, right_node, parts,
              internal_shuffle::HotRouting::kReplicate, &sides);
          const Partitions<RightT>& rs = *sides.right;
          Partitions<T> out(sides.left->size());
          sides.VisitLeft([&](auto& ls) {
            ctx->ParallelFor(ls.size(), [&](size_t p) {
              const internal_dataset::KeyChains<K, W> keys(rs[p]);
              for (auto& kv : ls[p]) {
                if (keys.Contains(kv.first)) out[p].push_back(std::move(kv));
              }
            });
          });
          return {std::move(out), sides.routed};
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
    using Sides = std::pair<std::vector<V>, std::vector<W>>;
    using Out = std::pair<K, Sides>;
    TG_CHECK_EQ(ctx_, right.context());
    const size_t parts = PartitionCount(num_partitions);
    auto left_node = node_;
    auto right_node = right.node();
    auto node = std::make_shared<LambdaNode<Out>>(
        [left_node, right_node, parts](ExecutionContext* ctx)
            -> StageOutput<Out> {
          // Both sides contribute values that are merely gathered (no
          // pairing), so hot keys — detected over the union of both
          // sides — are spread on both sides and the partial groups
          // concatenated in the merge step.
          internal_dataset::CoPartitioned<T, RightT> sides;
          internal_dataset::CoPartition(ctx, left_node, right_node, parts,
                                        internal_shuffle::HotRouting::kSpread,
                                        &sides);
          Partitions<Out> out(sides.left->size());
          ctx->ParallelFor(out.size(), [&](size_t p) {
            std::vector<Out>& groups = out[p];
            auto index = internal_dataset::IndexByFirst<K>(
                groups, (*sides.left)[p].size() + (*sides.right)[p].size());
            auto group_of = [&](const K& key) -> Sides& {
              auto [i, inserted] = index.Insert(key);
              if (inserted) groups.emplace_back(key, Sides{});
              return groups[i].second;
            };
            sides.VisitLeft([&](auto& ls) {
              for (auto& kv : ls[p]) {
                group_of(kv.first).first.push_back(std::move(kv.second));
              }
            });
            sides.VisitRight([&](auto& rs) {
              for (auto& kv : rs[p]) {
                group_of(kv.first).second.push_back(std::move(kv.second));
              }
            });
          });
          internal_dataset::MergeHotGroups(
              ctx, sides.plan, &out, [](Sides* dst, Sides&& src) {
                internal_dataset::AppendMoved(&dst->first,
                                              std::move(src.first));
                internal_dataset::AppendMoved(&dst->second,
                                              std::move(src.second));
              });
          return {std::move(out), sides.routed};
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

  /// The partition count the records are routed by — every record sits in
  /// partition `RouteHash(key) % count`, its key being `.first` for a
  /// key-value dataset — or 0 when the dataset claims no routing (triggers
  /// execution). A wide operator over a routed input with that many
  /// partitions does not shuffle it.
  size_t RoutedPartitions() const { return node_->Routed(ctx_); }

  const std::shared_ptr<PlanNode<T>>& node() const { return node_; }

 private:
  size_t PartitionCount(int num_partitions) const {
    return static_cast<size_t>(num_partitions > 0
                                   ? num_partitions
                                   : ctx_->default_parallelism());
  }

  template <typename U, typename Fn>
  Dataset<U> MapRecords(Fn fn, bool keep_routing) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<U>>(
        [input, fn = std::move(fn), keep_routing](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          StageOutput<U> out{Partitions<U>(in.size()),
                             keep_routing ? input->Routed(ctx) : 0};
          ctx->ParallelFor(in.size(), [&](size_t p) {
            out.parts[p].reserve(in[p].size());
            for (const T& record : in[p]) out.parts[p].push_back(fn(record));
          });
          return out;
        });
    return Dataset<U>(ctx_, std::move(node));
  }

  template <typename U, typename Fn>
  Dataset<U> FlatMapRecords(Fn fn, bool keep_routing) const {
    auto input = node_;
    auto node = std::make_shared<LambdaNode<U>>(
        [input, fn = std::move(fn), keep_routing](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          StageOutput<U> out{Partitions<U>(in.size()),
                             keep_routing ? input->Routed(ctx) : 0};
          ctx->ParallelFor(in.size(), [&](size_t p) {
            for (const T& record : in[p]) fn(record, &out.parts[p]);
          });
          return out;
        });
    return Dataset<U>(ctx_, std::move(node));
  }

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
