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

/// \brief A non-owning reference to a callable taking records of type T as
/// rvalues: how a streaming node hands its records to the task that
/// consumes them. The callable must outlive the sink.
template <typename T>
class RecordSink {
 public:
  template <typename Fn>
    requires(!std::is_same_v<std::remove_const_t<Fn>, RecordSink>)
  RecordSink(Fn& fn)  // NOLINT(google-explicit-constructor)
      : target_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* target, T&& record) {
          (*static_cast<Fn*>(target))(std::move(record));
        }) {}

  void operator()(T&& record) const { call_(target_, std::move(record)); }

 private:
  void* target_;
  void (*call_)(void*, T&&);
};

/// \brief A node in a dataflow plan DAG producing partitions of T.
///
/// A node either materializes — computes its partitions once, caches them
/// and releases its captured inputs, so that upstream intermediate results
/// become reclaimable as soon as no Dataset handle references them — or
/// streams: a narrow node (Map, Filter, FlatMap, MapValues, FlatMapValues)
/// with exactly one consumer owns no partitions, and the consumer's tasks
/// run its function one partition at a time (Stream). Every plan node built
/// over a node counts itself as a consumer (AddConsumer) when it is built,
/// so a node read by two branches (e.g. a vertex relation consumed by a
/// grouping branch and an edge-redirection join) materializes and computes
/// once. The choice is made at the node's first read and then kept.
template <typename T>
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  /// Counts a plan node built over this one; called once per consumer.
  void AddConsumer() { consumers_.fetch_add(1, std::memory_order_relaxed); }

  /// Whether consumers run this node inside their own tasks (Stream)
  /// instead of reading its materialized partitions. Decided at the first
  /// call, Open or Materialize: a narrow node with one consumer streams.
  bool Streams() {
    Mode mode = mode_.load(std::memory_order_acquire);
    if (mode == Mode::kUndecided) {
      const Mode decided =
          narrow() && consumers_.load(std::memory_order_relaxed) == 1
              ? Mode::kStreamed
              : Mode::kMaterialized;
      if (mode_.compare_exchange_strong(mode, decided,
                                        std::memory_order_acq_rel)) {
        mode = decided;
      }
    }
    return mode == Mode::kStreamed;
  }

  /// Readies the node for a consuming stage and returns its partition
  /// count: materializes it, or, when it streams, readies its input. Call
  /// it before the stage, not from the stage's tasks.
  size_t Open(ExecutionContext* ctx) {
    return Streams() ? OpenStream(ctx) : Materialize(ctx).size();
  }

  /// Returns the (computed or cached) output partitions. A streaming node
  /// computes them too when asked (an action on a dataset whose consumer
  /// already streamed it), and keeps its input.
  const Partitions<T>& Materialize(ExecutionContext* ctx) {
    Mode mode = mode_.load(std::memory_order_acquire);
    if (mode == Mode::kUndecided) {
      mode_.compare_exchange_strong(mode, Mode::kMaterialized,
                                    std::memory_order_acq_rel);
    }
    std::call_once(once_, [&] {
      StageOutput<T> out = Compute(ctx);
      cache_ = std::move(out.parts);
      routed_ = out.routed;
      if (mode_.load(std::memory_order_acquire) == Mode::kMaterialized) {
        Release();
      }
    });
    return cache_;
  }

  /// The partition count the output is routed by, or 0 (materializes a
  /// node that does not stream).
  virtual size_t Routed(ExecutionContext* ctx) {
    Materialize(ctx);
    return routed_;
  }

  /// Passes partition p's records to `sink`, running the node's function
  /// in the calling task. Only for a node that Streams(), after Open.
  virtual void Stream(ExecutionContext*, size_t, RecordSink<T>) {
    TG_CHECK(false) << "Stream on a node that does not stream";
  }

  /// Partition p's record count, or for a streaming node its input's: an
  /// estimate to size per-partition tables by (after Open).
  virtual size_t SizeHint(ExecutionContext* ctx, size_t p) {
    return Materialize(ctx)[p].size();
  }

 protected:
  virtual StageOutput<T> Compute(ExecutionContext* ctx) = 0;
  /// Drops references to inputs after Compute; default no-op.
  virtual void Release() {}
  /// Narrow nodes stream when they have one consumer.
  virtual bool narrow() const { return false; }
  /// Open for a streaming node: opens its input.
  virtual size_t OpenStream(ExecutionContext* ctx) {
    return Materialize(ctx).size();
  }

 private:
  enum class Mode : uint8_t { kUndecided, kStreamed, kMaterialized };

  std::atomic<int> consumers_{0};
  std::atomic<Mode> mode_{Mode::kUndecided};
  std::once_flag once_;
  Partitions<T> cache_;
  size_t routed_ = 0;
};

/// Calls fn on every record of partition p of `node`, which was opened
/// (PlanNode::Open) before the stage: as an rvalue when the node streams,
/// as a const reference into its materialized partition otherwise. `fn`
/// takes `auto&&` and forwards, so it moves what it owns and copies what
/// it does not.
template <typename T, typename Fn>
void ForEachRecord(ExecutionContext* ctx, PlanNode<T>& node, size_t p,
                   Fn&& fn) {
  if (node.Streams()) {
    node.Stream(ctx, p, RecordSink<T>(fn));
  } else {
    for (const T& record : node.Materialize(ctx)[p]) fn(record);
  }
}

/// \brief A plan node defined by a closure. Every operator that
/// materializes produces these; the closure captures the input nodes (as
/// shared_ptrs) and is destroyed after it runs, releasing the lineage. A
/// closure returns a StageOutput, or bare Partitions when its output claims
/// no routing.
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

namespace internal_dataset {

/// Runs fill(p, &part) for every p < n in one stage and returns the
/// partitions. Each task fills a vector of its own and moves it into its
/// slot when done: the headers of neighbouring slots share cache lines, so
/// growing the slots in place makes tasks that run side by side contend.
template <typename T, typename Fill>
Partitions<T> FillPartitions(ExecutionContext* ctx, size_t n,
                             const Fill& fill) {
  Partitions<T> out(n);
  ctx->ParallelFor(n, [&](size_t p) {
    std::vector<T> part;
    fill(p, &part);
    out[p] = std::move(part);
  });
  return out;
}

/// The record as an rvalue the callee may keep: moved when the caller owns
/// it, a copy when it is a const reference into a materialized partition.
template <typename R>
decltype(auto) Owned(R&& record) {
  if constexpr (std::is_rvalue_reference_v<R&&> &&
                !std::is_const_v<std::remove_reference_t<R>>) {
    return std::move(record);
  } else {
    return std::remove_cvref_t<R>(record);
  }
}

/// Calls a record-wise function with the record as an rvalue when it
/// accepts one (a by-value parameter then takes the record over), else
/// with a const reference.
template <typename Fn, typename R, typename... Rest>
decltype(auto) Apply(const Fn& fn, R&& record, Rest&&... rest) {
  if constexpr (std::is_invocable_v<const Fn&, R&&, Rest&&...>) {
    return fn(std::forward<R>(record), std::forward<Rest>(rest)...);
  } else {
    return fn(std::as_const(record), std::forward<Rest>(rest)...);
  }
}

/// Calls `seq(acc, value)` with the value as an rvalue when `seq` accepts
/// one, else with a const reference (AggregateByKey's fold).
template <typename Seq, typename A, typename R>
void FoldValue(const Seq& seq, A* acc, R&& value) {
  if constexpr (std::is_invocable_v<const Seq&, A*, R&&>) {
    seq(acc, std::forward<R>(value));
  } else {
    seq(acc, std::as_const(value));
  }
}

struct NoScratch {};

/// The per-record steps of the narrow operators. A step is called with
/// each input record (rvalue or const reference) and emits its outputs to
/// a RecordSink; `Scratch` is per-partition state the step reuses.
template <typename Fn>
struct MapStep {
  using Scratch = NoScratch;
  static constexpr bool kOneToOne = true;
  Fn fn;
  template <typename R, typename Emit>
  void operator()(R&& record, const Emit& emit, Scratch*) const {
    emit(Apply(fn, std::forward<R>(record)));
  }
};

template <typename Pred>
struct FilterStep {
  using Scratch = NoScratch;
  static constexpr bool kOneToOne = false;
  Pred pred;
  template <typename R, typename Emit>
  void operator()(R&& record, const Emit& emit, Scratch*) const {
    if (pred(std::as_const(record))) emit(Owned(std::forward<R>(record)));
  }
};

template <typename U, typename Fn>
struct FlatMapStep {
  using Scratch = std::vector<U>;
  static constexpr bool kOneToOne = false;
  Fn fn;
  template <typename R, typename Emit>
  void operator()(R&& record, const Emit& emit, Scratch* out) const {
    out->clear();
    Apply(fn, std::forward<R>(record), out);
    for (U& value : *out) emit(std::move(value));
  }
};

template <typename K, typename U, typename Fn>
struct MapValuesStep {
  using Scratch = NoScratch;
  static constexpr bool kOneToOne = true;
  Fn fn;
  template <typename R, typename Emit>
  void operator()(R&& record, const Emit& emit, Scratch*) const {
    emit(std::pair<K, U>(std::forward<R>(record).first,
                         Apply(fn, std::forward<R>(record).second)));
  }
};

template <typename K, typename U, typename Fn>
struct FlatMapValuesStep {
  using Scratch = std::vector<U>;
  static constexpr bool kOneToOne = false;
  Fn fn;
  template <typename R, typename Emit>
  void operator()(R&& record, const Emit& emit, Scratch* out) const {
    out->clear();
    Apply(fn, std::forward<R>(record).second, out);
    for (U& value : *out) emit(std::pair<K, U>(record.first, std::move(value)));
  }
};

}  // namespace internal_dataset

/// \brief A narrow operator: a per-record `Step` from S to T. With one
/// consumer it streams (its step runs in the consumer's tasks, one
/// partition at a time); otherwise it materializes like any node, each task
/// streaming its partition into a vector it owns.
template <typename S, typename T, typename Step>
class NarrowNode final : public PlanNode<T> {
 public:
  NarrowNode(std::shared_ptr<PlanNode<S>> input, Step step, bool keeps_routing)
      : input_(std::move(input)),
        step_(std::move(step)),
        keeps_routing_(keeps_routing) {}

  /// The input's routing when the step keeps keys in place; does not
  /// materialize this node.
  size_t Routed(ExecutionContext* ctx) override {
    if (!keeps_routing_) return 0;
    if (std::shared_ptr<PlanNode<S>> input = LiveInput()) {
      return input->Routed(ctx);
    }
    return PlanNode<T>::Routed(ctx);
  }

  void Stream(ExecutionContext* ctx, size_t p, RecordSink<T> sink) override {
    typename Step::Scratch scratch{};
    ForEachRecord(ctx, *input_, p, [&](auto&& record) {
      step_(std::forward<decltype(record)>(record), sink, &scratch);
    });
  }

  size_t SizeHint(ExecutionContext* ctx, size_t p) override {
    return this->Streams() ? input_->SizeHint(ctx, p)
                           : PlanNode<T>::SizeHint(ctx, p);
  }

 protected:
  bool narrow() const override { return true; }
  size_t OpenStream(ExecutionContext* ctx) override {
    return input_->Open(ctx);
  }

  StageOutput<T> Compute(ExecutionContext* ctx) override {
    const size_t n = input_->Open(ctx);
    Partitions<T> parts = internal_dataset::FillPartitions<T>(
        ctx, n, [&](size_t p, std::vector<T>* part) {
          if constexpr (Step::kOneToOne) {
            part->reserve(input_->SizeHint(ctx, p));
          }
          auto append = [part](T&& record) {
            part->push_back(std::move(record));
          };
          Stream(ctx, p, RecordSink<T>(append));
        });
    return {std::move(parts), keeps_routing_ ? input_->Routed(ctx) : 0};
  }

  void Release() override {
    std::lock_guard<std::mutex> lock(mu_);
    input_ = nullptr;
  }

 private:
  std::shared_ptr<PlanNode<S>> LiveInput() {
    std::lock_guard<std::mutex> lock(mu_);
    return input_;
  }

  std::mutex mu_;  ///< guards input_ against Release while Routed reads it
  std::shared_ptr<PlanNode<S>> input_;
  const Step step_;
  const bool keeps_routing_;
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
    std::vector<E> head = std::move((*out)[hk.first_sub]);
    auto index = MakeFlatIndex<K>(
        head.size(), [&](size_t j) -> const K& { return key_of(head[j]); });
    for (const E& entry : head) index.Insert(key_of(entry));
    for (int s = 1; s < hk.splits; ++s) {
      std::vector<E> sub =
          std::move((*out)[hk.first_sub + static_cast<size_t>(s)]);
      for (E& entry : sub) {
        auto [pos, inserted] = index.Insert(key_of(entry));
        if (inserted) {
          head.push_back(std::move(entry));
        } else {
          merge(&head[pos], std::move(entry));
        }
      }
    }
    (*out)[hk.first_sub] = std::move(head);
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

/// The map side of a shuffle of `node`: its materialized partitions, read
/// in place, or — when the node streams — partitions the shuffle's first
/// pass produces by running the node in its own tasks, which the shuffle
/// then owns and moves records out of.
template <typename T>
internal_shuffle::MapSide<T> MapSideOf(ExecutionContext* ctx,
                                       PlanNode<T>& node) {
  const size_t n = node.Open(ctx);
  if (!node.Streams()) return internal_shuffle::MapSide<T>(node.Materialize(ctx));
  return internal_shuffle::MapSide<T>(
      n, [ctx, &node](size_t p, std::vector<T>* part) {
        auto append = [part](T&& record) { part->push_back(std::move(record)); };
        node.Stream(ctx, p, RecordSink<T>(append));
      });
}

/// One input of a binary keyed operator after CoPartition: read where its
/// node sits (routed, streamed or materialized), or shuffled here.
template <typename T>
struct CoSide {
  /// Calls fn on every record of partition p: moved out of the shuffled
  /// copy or a streaming node, a const reference into a materialized one.
  template <typename Fn>
  void ForEach(ExecutionContext* ctx, size_t p, Fn&& fn) {
    if (!shuffled.has_value()) {
      ForEachRecord(ctx, *node, p, fn);
      return;
    }
    for (T& record : (*shuffled)[p]) fn(std::move(record));
  }

  /// Partition p whole: a join's build side, which CoPartition
  /// materializes when it stays where it is.
  const std::vector<T>& Whole(ExecutionContext* ctx, size_t p) {
    return shuffled.has_value() ? (*shuffled)[p] : node->Materialize(ctx)[p];
  }

  size_t SizeHint(ExecutionContext* ctx, size_t p) {
    return shuffled.has_value() ? (*shuffled)[p].size()
                                : node->SizeHint(ctx, p);
  }

  PlanNode<T>* node = nullptr;
  std::optional<Partitions<T>> shuffled;
};

/// The two inputs of a binary keyed operator, brought onto the same
/// routing by CoPartition.
template <typename L, typename R>
struct CoPartitioned {
  CoSide<L> left;
  CoSide<R> right;
  size_t size = 0;                     ///< partitions of both sides
  internal_shuffle::ShufflePlan plan;  ///< hot keys both sides were split by
  size_t routed = 0;                   ///< the operator output's routing
};

/// Brings the key-value inputs of a binary keyed operator onto `parts`
/// partitions routed by key. Hot keys of the left side are spread, and
/// `right_hot` says how the right side follows them: kReplicate (a join's
/// build side, whose own skew is left alone) or kSpread (CoGroup, which
/// detects hot keys over both sides). An input already routed into `parts`
/// partitions stays where it is: a join's build side is then materialized
/// (its tasks index whole partitions), any other side is read by the
/// operator's tasks, streamed when its node streams. When only one input
/// is routed, the other is shuffled alone, unless its sketch finds a hot
/// key: then both are shuffled the skew-aware way. A shuffled side's map
/// side streams its node when the node streams.
template <typename L, typename R>
void CoPartition(ExecutionContext* ctx, PlanNode<L>& left, PlanNode<R>& right,
                 size_t parts, internal_shuffle::HotRouting right_hot,
                 CoPartitioned<L, R>* out) {
  using internal_shuffle::HotRouting;
  using internal_shuffle::MapSide;
  using internal_shuffle::ShufflePlan;
  using K = typename PairTraits<L>::Key;
  auto key_left = [](const L& kv) -> const K& { return kv.first; };
  auto key_right = [](const R& kv) -> const K& { return kv.first; };
  const bool build_side = right_hot == HotRouting::kReplicate;
  out->left.node = &left;
  out->right.node = &right;
  out->routed = parts;
  out->size = parts;
  // Each side's map side is made once, at its first use, and shared by
  // its sketch and its shuffle.
  std::optional<MapSide<L>> lmap;
  std::optional<MapSide<R>> rmap;
  auto left_map = [&]() -> MapSide<L>& {
    if (!lmap.has_value()) lmap.emplace(MapSideOf(ctx, left));
    return *lmap;
  };
  auto right_map = [&]() -> MapSide<R>& {
    if (!rmap.has_value()) rmap.emplace(MapSideOf(ctx, right));
    return *rmap;
  };
  auto shuffle_left = [&](const ShufflePlan& plan) {
    out->left.shuffled = internal_shuffle::ShuffleWithPlan(
        ctx, left_map(), plan, key_left, HotRouting::kSpread);
    out->size = out->left.shuffled->size();
  };
  auto shuffle_right = [&](const ShufflePlan& plan) {
    out->right.shuffled = internal_shuffle::ShuffleWithPlan(
        ctx, right_map(), plan, key_right, right_hot);
  };
  // Readies a side that stays where it is for the operator's tasks.
  auto stay_left = [&] { left.Open(ctx); };
  auto stay_right = [&] {
    if (build_side) {
      right.Materialize(ctx);
    } else {
      right.Open(ctx);
    }
  };
  const bool left_routed = left.Routed(ctx) == parts;
  const bool right_routed = right.Routed(ctx) == parts;
  if (left_routed && right_routed) {
    stay_left();
    stay_right();
    return;
  }
  if (build_side) {
    // The plan follows the left side's hot keys alone.
    if (left_routed) {
      ShufflePlan plain;
      plain.num_base = parts;
      shuffle_right(plain);
      stay_left();
      return;
    }
    out->plan = internal_shuffle::PlanShuffle(ctx, left_map(), parts,
                                              key_left, /*allow_spread=*/true);
    if (right_routed && !out->plan.rebalanced()) {
      shuffle_left(out->plan);
      stay_right();
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
      total += internal_shuffle::SketchKeys(ctx, left_map(), key_left,
                                            &candidates, sketch, floor);
    };
    auto sketch_right = [&] {
      total += internal_shuffle::SketchKeys(ctx, right_map(), key_right,
                                            &candidates, sketch, floor);
    };
    if (!left_routed) sketch_left();
    if (!right_routed) sketch_right();
    if (left_routed || right_routed) {
      ShufflePlan one = internal_shuffle::BuildShufflePlan(
          parts, total, candidates, options, /*allow_spread=*/true);
      if (!one.rebalanced()) {
        if (left_routed) {
          shuffle_right(one);
          stay_left();
        } else {
          shuffle_left(one);
          stay_right();
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
/// the owning ExecutionContext's worker pool. Narrow transformations (Map,
/// Filter, FlatMap, MapValues, FlatMapValues) are pipelined like Spark's
/// narrow dependencies: with one consumer, their functions run one
/// partition at a time inside the consumer's tasks, and the consumer takes
/// each record as an rvalue (see PlanNode). They materialize, like every
/// other node, at Cache(), MaterializedPartitions() and actions, on join
/// build sides, and when two nodes consume them. MapPartitions and Sample
/// parallelize per partition with no data movement; wide transformations
/// (GroupByKey, ReduceByKey, Join, SemiJoin, CoGroup, Distinct,
/// PartitionBy) hash-shuffle between stages. Every wide transformation
/// rides the skew-aware shuffle (dataflow/shuffle.h): hot keys detected by
/// a map-side sketch are split across dedicated sub-partitions and
/// re-merged per operator, so results are identical to the plain hash
/// shuffle (see ExecutionContext::shuffle_options to tune or disable).
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
/// the worker count and of whether a narrow input streamed.
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
  //
  // A record-wise function is called with the record as an rvalue when it
  // accepts one (a by-value parameter takes a streamed record over), else
  // with a const reference; Filter's predicate always sees a const
  // reference.
  // ---------------------------------------------------------------------

  /// Record-wise transform. U is deduced from the callable. The output
  /// claims no routing.
  template <typename Fn, typename U = std::invoke_result_t<Fn, const T&>>
  Dataset<U> Map(Fn fn) const {
    return Narrow<U>(internal_dataset::MapStep<Fn>{std::move(fn)},
                     /*keeps_routing=*/false);
  }

  /// Map that keeps the input's routing: each output record must be keyed
  /// by the id its input record was routed by (a `pair<vid, ·>` mapped to
  /// `VeVertex{vid, …}` and back).
  template <typename Fn, typename U = std::invoke_result_t<Fn, const T&>>
  Dataset<U> Map(Fn fn, PreservesPartitioning) const {
    return Narrow<U>(internal_dataset::MapStep<Fn>{std::move(fn)},
                     /*keeps_routing=*/true);
  }

  /// Keeps records for which `pred` returns true, and the input's routing.
  template <typename Pred>
  Dataset<T> Filter(Pred pred) const {
    return Narrow<T>(internal_dataset::FilterStep<Pred>{std::move(pred)},
                     /*keeps_routing=*/true);
  }

  /// Record-wise transform emitting zero or more outputs per input via an
  /// out-parameter (avoids a vector allocation per record).
  /// `fn(const T&, std::vector<U>*)`. The output claims no routing.
  template <typename U, typename Fn>
  Dataset<U> FlatMap(Fn fn) const {
    return Narrow<U>(internal_dataset::FlatMapStep<U, Fn>{std::move(fn)},
                     /*keeps_routing=*/false);
  }

  /// FlatMap that keeps the input's routing; see Map(fn,
  /// kPreservesPartitioning). A composite output key qualifies when its
  /// RouteKey() is the input's routed id.
  template <typename U, typename Fn>
  Dataset<U> FlatMap(Fn fn, PreservesPartitioning) const {
    return Narrow<U>(internal_dataset::FlatMapStep<U, Fn>{std::move(fn)},
                     /*keeps_routing=*/true);
  }

  /// Transforms each value, keeping its key and the input's routing:
  /// `fn(const V&) -> U` gives Dataset<pair<K, U>>.
  template <typename Fn, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto MapValues(Fn fn) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    using U = std::invoke_result_t<Fn, const V&>;
    return Narrow<std::pair<K, U>>(
        internal_dataset::MapValuesStep<K, U, Fn>{std::move(fn)},
        /*keeps_routing=*/true);
  }

  /// Expands each value into zero or more values under the same key,
  /// keeping the input's routing: `fn(const V&, std::vector<U>*)` gives
  /// Dataset<pair<K, U>>.
  template <typename U, typename Fn, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto FlatMapValues(Fn fn) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    return Narrow<std::pair<K, U>>(
        internal_dataset::FlatMapValuesStep<K, U, Fn>{std::move(fn)},
        /*keeps_routing=*/true);
  }

  /// Whole-partition transform: `fn(const std::vector<T>&, std::vector<U>*)`.
  template <typename U, typename Fn>
  Dataset<U> MapPartitions(Fn fn) const {
    return MapPartitionsWithIndex<U>(
        [fn = std::move(fn)](size_t, const std::vector<T>& in,
                             std::vector<U>* out) { fn(in, out); });
  }

  /// Like MapPartitions, with the partition index as the first argument
  /// (e.g. to fork deterministic per-partition RNG streams).
  template <typename U, typename Fn>
  Dataset<U> MapPartitionsWithIndex(Fn fn) const {
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<U>>(
        [input, fn = std::move(fn)](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          return internal_dataset::FillPartitions<U>(
              ctx, in.size(),
              [&](size_t p, std::vector<U>* out) { fn(p, in[p], out); });
        });
    return Dataset<U>(ctx_, std::move(node));
  }

  /// Concatenation of two datasets (partitions of both, in order).
  Dataset<T> Union(const Dataset<T>& other) const {
    TG_CHECK_EQ(ctx_, other.ctx_);
    auto left = Consume();
    auto right = other.Consume();
    auto node = std::make_shared<LambdaNode<T>>(
        [left, right](ExecutionContext* ctx) {
          const size_t num_left = left->Open(ctx);
          const size_t num_right = right->Open(ctx);
          return internal_dataset::FillPartitions<T>(
              ctx, num_left + num_right, [&](size_t p, std::vector<T>* out) {
                PlanNode<T>& side = p < num_left ? *left : *right;
                const size_t q = p < num_left ? p : p - num_left;
                out->reserve(side.SizeHint(ctx, q));
                ForEachRecord(ctx, side, q, [out](auto&& record) {
                  out->push_back(internal_dataset::Owned(
                      std::forward<decltype(record)>(record)));
                });
              });
        });
    return Dataset<T>(ctx_, std::move(node));
  }

  // ---------------------------------------------------------------------
  // Repartitioning
  // ---------------------------------------------------------------------

  /// Rebalances into `num_partitions` evenly sized partitions.
  Dataset<T> Repartition(int num_partitions = 0) const {
    int parts = num_partitions > 0 ? num_partitions : ctx_->default_parallelism();
    auto input = Consume();
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
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<T>>(
        [input, key_of = std::move(key_of), parts](ExecutionContext* ctx) {
          return IsolateByKey(ctx, *input, parts, key_of).parts;
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
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<T>>(
        [input, parts](ExecutionContext* ctx) -> StageOutput<T> {
          return IsolateByKey(ctx, *input, parts,
                              [](const T& kv) -> const K& { return kv.first; });
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
    const size_t parts = PartitionCount(num_partitions);
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<T>>(
        [input, parts](ExecutionContext* ctx) {
          auto key = [](const T& record) -> const T& { return record; };
          auto side = internal_dataset::MapSideOf(ctx, *input);
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, side, parts, key, /*allow_spread=*/true);
          Partitions<T> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, side, plan, key, internal_shuffle::HotRouting::kSpread);
          Partitions<T> out = internal_dataset::FillPartitions<T>(
              ctx, shuffled.size(), [&](size_t p, std::vector<T>* unique) {
                auto index = internal_dataset::MakeFlatIndex<T>(
                    shuffled[p].size(),
                    [unique](size_t i) -> const T& { return (*unique)[i]; });
                for (T& record : shuffled[p]) {
                  if (index.Insert(record).second) {
                    unique->push_back(std::move(record));
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
    auto input = Consume();
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
  // way, when that side's sketch finds a hot key). A streaming input runs
  // in the operator's first pass — its map-side table, its shuffle's
  // sketch or counting pass, or a routed probe loop — and its records are
  // moved, not copied.
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
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<Out>>(
        [input, parts](ExecutionContext* ctx) -> StageOutput<Out> {
          // Groups one partition's records, moving the values it owns.
          auto group = [](size_t expected_keys, std::vector<Out>* groups,
                          const auto& for_each) {
            auto index = internal_dataset::IndexByFirst<K>(*groups,
                                                           expected_keys);
            for_each([&](auto&& kv) {
              auto [i, inserted] = index.Insert(kv.first);
              if (inserted) groups->emplace_back(kv.first, std::vector<V>{});
              (*groups)[i].second.push_back(
                  std::forward<decltype(kv)>(kv).second);
            });
          };
          if (input->Routed(ctx) == parts) {
            const size_t n = input->Open(ctx);
            return {internal_dataset::FillPartitions<Out>(
                        ctx, n,
                        [&](size_t p, std::vector<Out>* groups) {
                          group(input->SizeHint(ctx, p), groups,
                                [&](const auto& fn) {
                                  ForEachRecord(ctx, *input, p, fn);
                                });
                        }),
                    parts};
          }
          auto key = [](const T& kv) -> const K& { return kv.first; };
          auto side = internal_dataset::MapSideOf(ctx, *input);
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, side, parts, key, /*allow_spread=*/true);
          Partitions<T> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, side, plan, key, internal_shuffle::HotRouting::kSpread);
          Partitions<Out> out = internal_dataset::FillPartitions<Out>(
              ctx, shuffled.size(), [&](size_t p, std::vector<Out>* groups) {
                group(shuffled[p].size(), groups, [&](const auto& fn) {
                  for (T& kv : shuffled[p]) fn(std::move(kv));
                });
              });
          internal_dataset::MergeHotGroups(ctx, plan, &out,
                                           internal_dataset::AppendMoved<V>);
          return {std::move(out), internal_dataset::RoutedAfter(plan, parts)};
        });
    return Dataset<Out>(ctx_, std::move(node));
  }

  /// Merges values per key with a commutative, associative function
  /// `fn(V, V) -> V`. The accumulated value is passed as an rvalue, and so
  /// is a streamed input's value, so a `fn` taking its arguments by value
  /// grows the accumulator in place; one taking `const V&` works too.
  /// Performs map-side combining before the shuffle, like Spark's
  /// reduceByKey; over a routed input that combine is the result.
  template <typename Fn, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  Dataset<T> ReduceByKey(Fn fn, int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using V = typename internal_dataset::PairTraits<P>::Value;
    const size_t parts = PartitionCount(num_partitions);
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<T>>(
        [input, fn = std::move(fn), parts](ExecutionContext* ctx)
            -> StageOutput<T> {
          // Map-side combine; a streamed input's records are moved in.
          const size_t n = input->Open(ctx);
          Partitions<T> combined = internal_dataset::FillPartitions<T>(
              ctx, n, [&](size_t p, std::vector<T>* acc) {
                auto index = internal_dataset::IndexByFirst<K>(
                    *acc, input->SizeHint(ctx, p));
                ForEachRecord(ctx, *input, p, [&](auto&& kv) {
                  auto [i, inserted] = index.Insert(kv.first);
                  if (inserted) {
                    acc->push_back(internal_dataset::Owned(
                        std::forward<decltype(kv)>(kv)));
                  } else {
                    (*acc)[i].second =
                        fn(std::move((*acc)[i].second),
                           std::forward<decltype(kv)>(kv).second);
                  }
                });
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
          Partitions<T> out = internal_dataset::FillPartitions<T>(
              ctx, shuffled.size(), [&](size_t p, std::vector<T>* acc) {
                // Map-side combining left each key at most once per input
                // partition, so the shuffled size bounds the keys closely.
                acc->reserve(shuffled[p].size());
                auto index =
                    internal_dataset::IndexByFirst<K>(*acc, shuffled[p].size());
                for (T& kv : shuffled[p]) {
                  auto [i, inserted] = index.Insert(kv.first);
                  if (inserted) {
                    acc->push_back(std::move(kv));
                  } else {
                    (*acc)[i].second =
                        fn(std::move((*acc)[i].second), std::move(kv.second));
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
  /// `seq(A*, const V&)` folds a value in (a `seq(A*, V)` takes a streamed
  /// value over), `comb(A*, A&&)` merges two accumulators. Equivalent to
  /// Spark aggregateByKey / the paper's foldLeft.
  template <typename A, typename Seq, typename Comb, typename P = T>
    requires internal_dataset::PairTraits<P>::is_pair
  auto AggregateByKey(A init, Seq seq, Comb comb, int num_partitions = 0) const {
    using K = typename internal_dataset::PairTraits<P>::Key;
    using Out = std::pair<K, A>;
    const size_t parts = PartitionCount(num_partitions);
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<Out>>(
        [input, init = std::move(init), seq = std::move(seq),
         comb = std::move(comb), parts](ExecutionContext* ctx)
            -> StageOutput<Out> {
          // Map-side partial aggregation.
          const size_t n = input->Open(ctx);
          Partitions<Out> partial = internal_dataset::FillPartitions<Out>(
              ctx, n, [&](size_t p, std::vector<Out>* acc) {
                auto index = internal_dataset::IndexByFirst<K>(
                    *acc, input->SizeHint(ctx, p));
                ForEachRecord(ctx, *input, p, [&](auto&& kv) {
                  auto [i, inserted] = index.Insert(kv.first);
                  if (inserted) acc->emplace_back(kv.first, init);
                  internal_dataset::FoldValue(
                      seq, &(*acc)[i].second,
                      std::forward<decltype(kv)>(kv).second);
                });
              });
          if (input->Routed(ctx) == parts) return {std::move(partial), parts};
          auto key = [](const Out& kv) -> const K& { return kv.first; };
          internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
              ctx, partial, parts, key, /*allow_spread=*/true);
          Partitions<Out> shuffled = internal_shuffle::ShuffleWithPlan(
              ctx, std::move(partial), plan, key,
              internal_shuffle::HotRouting::kSpread);
          Partitions<Out> out = internal_dataset::FillPartitions<Out>(
              ctx, shuffled.size(), [&](size_t p, std::vector<Out>* acc) {
                acc->reserve(shuffled[p].size());
                auto index =
                    internal_dataset::IndexByFirst<K>(*acc, shuffled[p].size());
                for (Out& kv : shuffled[p]) {
                  auto [i, inserted] = index.Insert(kv.first);
                  if (inserted) {
                    acc->push_back(std::move(kv));
                  } else {
                    comb(&(*acc)[i].second, std::move(kv.second));
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
    auto left_node = Consume();
    auto right_node = right.Consume();
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
              ctx, *left_node, *right_node, parts,
              internal_shuffle::HotRouting::kReplicate, &sides);
          Partitions<Out> out = internal_dataset::FillPartitions<Out>(
              ctx, sides.size, [&](size_t p, std::vector<Out>* joined) {
                const internal_dataset::KeyChains<K, W> table(
                    sides.right.Whole(ctx, p));
                sides.left.ForEach(ctx, p, [&](auto&& kv) {
                  table.ForEachMatch(kv.first, [&](const W& w) {
                    joined->emplace_back(kv.first,
                                         std::pair<V, W>(kv.second, w));
                  });
                });
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
    auto left_node = Consume();
    auto right_node = right.Consume();
    auto node = std::make_shared<LambdaNode<T>>(
        [left_node, right_node, parts](ExecutionContext* ctx)
            -> StageOutput<T> {
          // Like Join: spread the hot left keys, replicate the right-side
          // key set into their sub-partitions.
          internal_dataset::CoPartitioned<T, RightT> sides;
          internal_dataset::CoPartition(
              ctx, *left_node, *right_node, parts,
              internal_shuffle::HotRouting::kReplicate, &sides);
          Partitions<T> out = internal_dataset::FillPartitions<T>(
              ctx, sides.size, [&](size_t p, std::vector<T>* kept) {
                const internal_dataset::KeyChains<K, W> keys(
                    sides.right.Whole(ctx, p));
                sides.left.ForEach(ctx, p, [&](auto&& kv) {
                  if (keys.Contains(kv.first)) {
                    kept->push_back(internal_dataset::Owned(
                        std::forward<decltype(kv)>(kv)));
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
    auto left_node = Consume();
    auto right_node = right.Consume();
    auto node = std::make_shared<LambdaNode<Out>>(
        [left_node, right_node, parts](ExecutionContext* ctx)
            -> StageOutput<Out> {
          // Both sides contribute values that are merely gathered (no
          // pairing), so hot keys — detected over the union of both
          // sides — are spread on both sides and the partial groups
          // concatenated in the merge step.
          internal_dataset::CoPartitioned<T, RightT> sides;
          internal_dataset::CoPartition(ctx, *left_node, *right_node, parts,
                                        internal_shuffle::HotRouting::kSpread,
                                        &sides);
          Partitions<Out> out = internal_dataset::FillPartitions<Out>(
              ctx, sides.size, [&](size_t p, std::vector<Out>* groups) {
                auto index = internal_dataset::IndexByFirst<K>(
                    *groups, sides.left.SizeHint(ctx, p) +
                                 sides.right.SizeHint(ctx, p));
                auto group_of = [&](const K& key) -> Sides& {
                  auto [i, inserted] = index.Insert(key);
                  if (inserted) groups->emplace_back(key, Sides{});
                  return (*groups)[i].second;
                };
                sides.left.ForEach(ctx, p, [&](auto&& kv) {
                  group_of(kv.first).first.push_back(
                      std::forward<decltype(kv)>(kv).second);
                });
                sides.right.ForEach(ctx, p, [&](auto&& kv) {
                  group_of(kv.first).second.push_back(
                      std::forward<decltype(kv)>(kv).second);
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
      T partial = identity;
      for (const T& record : parts[p]) partial = fn(partial, record);
      partials[p] = std::move(partial);
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
    auto input = Consume();
    auto node = std::make_shared<LambdaNode<T>>(
        [input, fraction, seed](ExecutionContext* ctx) {
          const Partitions<T>& in = input->Materialize(ctx);
          return internal_dataset::FillPartitions<T>(
              ctx, in.size(), [&](size_t p, std::vector<T>* out) {
                for (size_t i = 0; i < in[p].size(); ++i) {
                  uint64_t h = HashCombine(HashCombine(Mix64(seed), Mix64(p)),
                                           Mix64(i));
                  // Uniform in [0,1) from the top 53 bits; < keeps
                  // fraction=1.0 total and fraction=0.0 empty.
                  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
                  if (u < fraction) out->push_back(in[p][i]);
                }
              });
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

  /// Number of partitions. Triggers execution, except that a narrow
  /// dataset whose one consumer is already built opens its input instead
  /// (it will stream).
  size_t NumPartitions() const { return node_->Open(ctx_); }

  /// The partition count the records are routed by — every record sits in
  /// partition `RouteHash(key) % count`, its key being `.first` for a
  /// key-value dataset — or 0 when the dataset claims no routing (triggers
  /// execution of the nearest node that is not narrow). A wide operator
  /// over a routed input with that many partitions does not shuffle it.
  size_t RoutedPartitions() const { return node_->Routed(ctx_); }

  const std::shared_ptr<PlanNode<T>>& node() const { return node_; }

 private:
  template <typename>
  friend class Dataset;

  /// The plan node, counted as consumed by the node being built over it.
  std::shared_ptr<PlanNode<T>> Consume() const {
    node_->AddConsumer();
    return node_;
  }

  size_t PartitionCount(int num_partitions) const {
    return static_cast<size_t>(num_partitions > 0
                                   ? num_partitions
                                   : ctx_->default_parallelism());
  }

  template <typename U, typename Step>
  Dataset<U> Narrow(Step step, bool keeps_routing) const {
    return Dataset<U>(ctx_, std::make_shared<NarrowNode<T, U, Step>>(
                                Consume(), std::move(step), keeps_routing));
  }

  /// The shuffle behind PartitionBy and PartitionByKey: hot keys isolated,
  /// routed by `key_of` unless one was.
  template <typename KeyOf>
  static StageOutput<T> IsolateByKey(ExecutionContext* ctx, PlanNode<T>& input,
                                     size_t parts, const KeyOf& key_of) {
    auto side = internal_dataset::MapSideOf(ctx, input);
    internal_shuffle::ShufflePlan plan = internal_shuffle::PlanShuffle(
        ctx, side, parts, key_of, /*allow_spread=*/false);
    return {internal_shuffle::ShuffleWithPlan(
                ctx, side, plan, key_of, internal_shuffle::HotRouting::kIsolate),
            internal_dataset::RoutedAfter(plan, parts)};
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
