// Fork-join pool and ExecutionContext::ParallelFor. The cases that take a
// worker count run at 2 workers and at the TGRAPH_THREADS environment
// override (the CI sanitizer matrix sets 1 and 4), so TSan sees the
// concurrent, nested and caller-run paths at each count.

#include "dataflow/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "dataflow/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgraph::dataflow {
namespace {

/// Worker counts under test: minimal parallelism plus TGRAPH_THREADS.
std::vector<int> WorkerCounts() {
  std::vector<int> counts = {2};
  if (const char* env = std::getenv("TGRAPH_THREADS"); env != nullptr) {
    if (int value = std::atoi(env); value > 0 && value != 2) {
      counts.push_back(value);
    }
  }
  return counts;
}

/// Blocks until `count` threads have arrived, so tasks that each call it
/// must be running at once. Gives up after 10 s so a schedule that never
/// runs them together fails the test instead of hanging it.
bool ArriveAndWait(std::atomic<int>& arrived, int count) {
  arrived.fetch_add(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (arrived.load() < count) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPoolTest, RunExecutesEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.Run(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ZeroThreadsRunsEverythingOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.Run(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, CallerWorksBesideOnePoolThread) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.InWorkerThread());
  // Two tasks that wait for each other can only finish if the caller runs
  // one while the pool thread runs the other.
  std::atomic<int> arrived{0};
  std::atomic<bool> met[2] = {false, false};
  std::atomic<bool> in_pool[2] = {false, false};
  pool.Run(2, [&](size_t i) {
    in_pool[i] = pool.InWorkerThread();
    met[i] = ArriveAndWait(arrived, 2);
  });
  EXPECT_TRUE(met[0].load() && met[1].load());
  EXPECT_NE(in_pool[0].load(), in_pool[1].load());
}

TEST(ThreadPoolTest, DestroysIdlePools) {
  for (int threads : {0, 1, 3}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
  }
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

TEST(ExecutionContextTest, NestedParallelForInATaskTheCallerRuns) {
  for (int workers : WorkerCounts()) {
    SCOPED_TRACE(workers);
    ExecutionContext ctx({.num_workers = workers});
    const std::thread::id caller = std::this_thread::get_id();
    const int outer = workers;
    std::atomic<int> arrived{0};
    std::atomic<bool> all_met{true};
    std::atomic<bool> caller_nested{false};
    std::vector<std::atomic<int>> hits(outer * 5);
    // The outer tasks wait for each other, so with `workers` threads each
    // one runs at once on its own thread, and one of them is the caller.
    ctx.ParallelFor(outer, [&](size_t o) {
      if (!ArriveAndWait(arrived, outer)) all_met = false;
      if (std::this_thread::get_id() == caller) caller_nested = true;
      ctx.ParallelFor(5, [&](size_t i) { hits[o * 5 + i].fetch_add(1); });
    });
    EXPECT_TRUE(all_met.load());
    EXPECT_TRUE(caller_nested.load());
    for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ExecutionContextTest, ConcurrentCallersEachRunTheirWholeStage) {
  for (int workers : WorkerCounts()) {
    SCOPED_TRACE(workers);
    ExecutionContext ctx({.num_workers = workers});
    constexpr int kCallers = 4;
    constexpr int kStages = 500;
    std::vector<std::thread> callers;
    std::atomic<int> bad_stages{0};
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (int s = 0; s < kStages; ++s) {
          const size_t n = 1 + (c + s) % 9;
          std::vector<std::atomic<int>> hits(n);
          ctx.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
          if (!std::all_of(hits.begin(), hits.end(),
                           [](const std::atomic<int>& h) { return h == 1; })) {
            bad_stages.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
    EXPECT_EQ(bad_stages.load(), 0);
  }
}

TEST(ExecutionContextTest, AtMostNumWorkersTasksOfAStageRunAtOnce) {
  ExecutionContext ctx({.num_workers = 3});
  EXPECT_EQ(ctx.num_workers(), 3);
  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  ctx.ParallelFor(64, [&](size_t) {
    const int now = running.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    running.fetch_sub(1);
  });
  EXPECT_GE(high_water.load(), 1);
  EXPECT_LE(high_water.load(), 3);
}

TEST(ExecutionContextTest, TasksOnTheCallerSeeItsQueryContext) {
  for (int workers : WorkerCounts()) {
    SCOPED_TRACE(workers);
    ExecutionContext ctx({.num_workers = workers});
    const std::thread::id caller = std::this_thread::get_id();
    obs::QueryCounters counters;
    obs::QueryContext query;
    query.query_id = 77;
    query.counters = &counters;
    std::atomic<int> arrived{0};
    std::atomic<int> on_caller{0};
    std::atomic<int> wrong_context{0};
    {
      obs::ScopedQueryContext scope(query);
      ctx.ParallelFor(workers, [&](size_t) {
        ArriveAndWait(arrived, workers);
        if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
        const obs::QueryContext seen = obs::CurrentQueryContext();
        if (seen.query_id != 77 || seen.counters != &counters) {
          wrong_context.fetch_add(1);
        }
        obs::AddQueryCounter(obs::QueryCounter::kCatalogHits, 1);
      });
    }
    EXPECT_EQ(on_caller.load(), 1);
    EXPECT_EQ(wrong_context.load(), 0);
    EXPECT_EQ(counters.Snapshot()[obs::QueryCounter::kCatalogHits],
              workers);
    // The caller's own context is back once the stage returns.
    EXPECT_EQ(obs::CurrentQueryContext().query_id, 0u);
  }
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
