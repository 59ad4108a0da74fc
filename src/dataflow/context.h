#ifndef TGRAPH_DATAFLOW_CONTEXT_H_
#define TGRAPH_DATAFLOW_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "dataflow/thread_pool.h"

namespace tgraph::dataflow {

/// \brief Configuration of the skew-aware shuffle rebalancer (see
/// dataflow/shuffle.h). On by default: wide operators sketch key
/// frequencies on the map side and split hot keys across dedicated
/// sub-partitions so one power-law hub key cannot drag a whole stage.
struct ShuffleOptions {
  /// Master switch. Off falls back to the plain hash shuffle with zero
  /// sketch overhead. Also forced off process-wide by the environment
  /// variable TGRAPH_SHUFFLE_REBALANCE=0.
  bool enable = true;
  /// A key is hot when its estimated record count exceeds
  /// `skew_threshold x (total_records / num_partitions)` — i.e. it alone
  /// would fill that many mean-sized partitions. Clamped to >= 1.
  double skew_threshold = 4.0;
  /// Upper bound on sub-partitions per hot key.
  int max_splits = 8;
  /// Shuffles smaller than this skip sketching entirely (the imbalance a
  /// tiny shuffle can cause is not worth the sketch pass).
  int64_t min_records = 2048;
};

/// \brief Configuration for an ExecutionContext.
struct ContextOptions {
  /// Threads that run one stage's tasks: the calling thread plus
  /// `num_workers - 1` pool threads. 0 means the hardware concurrency.
  int num_workers = 0;
  /// Partitions created by sources and shuffles when not specified
  /// explicitly; 0 means 2x the worker count.
  int default_parallelism = 0;
  /// Skew-aware shuffle rebalancing knobs.
  ShuffleOptions shuffle{};
};

/// \brief The driver for dataflow execution: owns the worker pool and the
/// default parallelism. The substitute for a SparkContext. Stage, task and
/// shuffle counts go to obs::MetricsRegistry (dataflow.*).
///
/// One context is shared by every Dataset derived from it; contexts must
/// outlive their datasets.
class ExecutionContext {
 public:
  explicit ExecutionContext(ContextOptions options = {});

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  int default_parallelism() const { return default_parallelism_; }
  int num_workers() const { return num_workers_; }

  /// Shuffle rebalancing knobs, read by every wide operator at execution
  /// time. The setter is not synchronized against running plans — change
  /// options between actions, not during one.
  const ShuffleOptions& shuffle_options() const { return shuffle_options_; }
  void set_shuffle_options(const ShuffleOptions& options) {
    shuffle_options_ = options;
  }

  /// Runs fn(0) ... fn(n-1) as one fork-join stage and returns when all
  /// have completed. The calling thread runs tasks too, beside at most
  /// `num_workers() - 1` pool threads. Any thread may call it, several at
  /// once; a nested call from a task on a pool thread runs inline.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  int num_workers_;
  std::unique_ptr<ThreadPool> pool_;
  int default_parallelism_;
  ShuffleOptions shuffle_options_;
};

}  // namespace tgraph::dataflow

#endif  // TGRAPH_DATAFLOW_CONTEXT_H_
