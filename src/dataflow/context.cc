#include "dataflow/context.h"

#include <condition_variable>
#include <cstdlib>
#include <mutex>
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
  pool_ = std::make_unique<ThreadPool>(workers);
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
  // A single-worker pool gains nothing from dispatch: every task would
  // serialize through the pool anyway, paying a wakeup per index. Run
  // inline (same order a one-worker pool would use).
  if (n == 1 || pool_->num_threads() <= 1 || pool_->InWorkerThread()) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = n;
  // Carry the submitting thread's query context into the workers so task
  // spans attribute to the owning query and nest under this stage.
  const obs::QueryContext qctx = obs::CaptureQueryContext();
  for (size_t i = 0; i < n; ++i) {
    pool_->Submit([&, i] {
      {
        obs::ScopedQueryContext qscope(qctx);
        obs::Span task_span("dataflow.task", "dataflow");
        fn(i);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
}

}  // namespace tgraph::dataflow
