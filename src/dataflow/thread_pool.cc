#include "dataflow/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace tgraph::dataflow {

namespace {
// Identifies the pool a thread belongs to (nullptr on non-pool threads).
thread_local const ThreadPool* current_pool = nullptr;
}  // namespace

// One Run() call. Lives on the caller's stack; pool threads reach it only
// through jobs_ and touch it only while counted in `helpers`.
struct ThreadPool::Job {
  Job(size_t n, const std::function<void(size_t)>& fn) : n(n), fn(fn) {}

  // Claims and runs indices until none is left.
  void Drain() {
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fn(i);
    }
  }

  const size_t n;
  const std::function<void(size_t)>& fn;
  std::atomic<size_t> next{0};      // claim cursor
  int helpers = 0;                  // pool threads inside; guarded by mu_
  std::condition_variable idle;     // signalled when helpers drops to 0
};

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(0, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Run(size_t n, const std::function<void(size_t)>& fn) {
  Job job(n, fn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.push_back(&job);
  }
  // The caller takes one index itself, so n - 1 helpers at most.
  const size_t wake = std::min(n > 0 ? n - 1 : 0, workers_.size());
  for (size_t i = 0; i < wake; ++i) cv_.notify_one();
  // Retire on every exit, also when fn throws here: `job` dies with this
  // frame, so no pool thread may still be inside it.
  struct RetireOnExit {
    ThreadPool* pool;
    Job* job;
    ~RetireOnExit() { pool->Retire(job); }
  } retire{this, &job};
  job.Drain();
}

void ThreadPool::Retire(Job* job) {
  // Stops further claims if the caller left Drain() by an exception.
  job->next.store(job->n, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mu_);
  jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
  job->idle.wait(lock, [job] { return job->helpers == 0; });
}

bool ThreadPool::InWorkerThread() const { return current_pool == this; }

ThreadPool::Job* ThreadPool::FindWork() const {
  for (Job* job : jobs_) {
    if (job->next.load(std::memory_order_relaxed) < job->n) return job;
  }
  return nullptr;
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Job* job = nullptr;
    cv_.wait(lock, [&] { return (job = FindWork()) != nullptr || shutdown_; });
    if (job == nullptr) return;  // shutdown_ is set
    ++job->helpers;
    lock.unlock();
    job->Drain();
    lock.lock();
    // Completion is under mu_: once helpers reaches 0 the caller may
    // return and destroy the job, and this thread does not touch it again.
    if (--job->helpers == 0) job->idle.notify_one();
  }
}

}  // namespace tgraph::dataflow
