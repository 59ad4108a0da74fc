#include "dataflow/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

#include "dataflow/context.h"
#include "obs/metrics.h"

namespace tgraph::dataflow {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::mutex mu;
  std::condition_variable cv;
  int remaining = 100;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return remaining == 0; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, InWorkerThreadDetection) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.InWorkerThread());
  std::atomic<bool> inside{false};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  pool.Submit([&] {
    inside = pool.InWorkerThread();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  EXPECT_TRUE(inside.load());
}

TEST(ExecutionContextTest, ParallelForRunsAllIndices) {
  ExecutionContext ctx({.num_workers = 3, .default_parallelism = 6});
  std::vector<std::atomic<int>> hits(64);
  ctx.ParallelFor(64, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ExecutionContextTest, ParallelForZeroIsNoop) {
  ExecutionContext ctx({.num_workers = 1});
  ctx.ParallelFor(0, [](size_t) { FAIL(); });
}

TEST(ExecutionContextTest, NestedParallelForDegradesInline) {
  ExecutionContext ctx({.num_workers = 1, .default_parallelism = 2});
  std::atomic<int> total{0};
  // With one worker, a nested ParallelFor that queued tasks would deadlock;
  // it must run inline instead.
  ctx.ParallelFor(2, [&](size_t) {
    ctx.ParallelFor(3, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 6);
}

TEST(ExecutionContextTest, MetricsAccumulate) {
  ExecutionContext ctx({.num_workers = 2, .default_parallelism = 2});
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const int64_t stages =
      registry.GetCounter(obs::metric_names::kStages)->value();
  const int64_t tasks = registry.GetCounter(obs::metric_names::kTasks)->value();
  ctx.ParallelFor(5, [](size_t) {});
  ctx.ParallelFor(3, [](size_t) {});
  EXPECT_EQ(registry.GetCounter(obs::metric_names::kStages)->value() - stages,
            2);
  EXPECT_EQ(registry.GetCounter(obs::metric_names::kTasks)->value() - tasks,
            8);
}

TEST(ExecutionContextTest, DefaultParallelismDerivedFromWorkers) {
  ExecutionContext ctx({.num_workers = 3});
  EXPECT_EQ(ctx.num_workers(), 3);
  EXPECT_EQ(ctx.default_parallelism(), 6);
}

}  // namespace
}  // namespace tgraph::dataflow
