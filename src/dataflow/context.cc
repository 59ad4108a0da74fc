#include "dataflow/context.h"

#include <cstdlib>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgraph::dataflow {

ExecutionContext::ExecutionContext(ContextOptions options) {
  int workers = options.num_workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  num_workers_ = workers;
  // The thread that calls ParallelFor is the remaining worker.
  pool_ = std::make_unique<ThreadPool>(workers - 1);
  default_parallelism_ = options.default_parallelism > 0
                             ? options.default_parallelism
                             : 2 * workers;
  shuffle_options_ = options.shuffle;
  // Process-wide kill switch, so benchmarks and CI can ablate the
  // rebalancer without touching call sites.
  if (const char* env = std::getenv("TGRAPH_SHUFFLE_REBALANCE");
      env != nullptr &&
      (std::string_view(env) == "0" || std::string_view(env) == "false" ||
       std::string_view(env) == "off")) {
    shuffle_options_.enable = false;
  }
}

void ExecutionContext::ParallelFor(size_t n,
                                   const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  static obs::Counter* stages =
      obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kStages);
  static obs::Counter* tasks =
      obs::MetricsRegistry::Global().GetCounter(obs::metric_names::kTasks);
  stages->Increment();
  tasks->Add(static_cast<int64_t>(n));
  obs::Span span("dataflow.stage", "dataflow");
  // A stage no pool thread can help with runs inline: one task, a
  // one-worker context (no pool threads), or a nested stage inside a task
  // on a pool thread, which must not wait on its own pool.
  if (n == 1 || pool_->num_threads() == 0 || pool_->InWorkerThread()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Carry the calling thread's query context into every task, including
  // those this thread runs itself, so task spans attribute to the owning
  // query and nest under this stage.
  const obs::QueryContext qctx = obs::CaptureQueryContext();
  pool_->Run(n, [&](size_t i) {
    obs::ScopedQueryContext qscope(qctx);
    obs::Span task_span("dataflow.task", "dataflow");
    fn(i);
  });
}

}  // namespace tgraph::dataflow
