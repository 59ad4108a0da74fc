#ifndef TGRAPH_DATAFLOW_THREAD_POOL_H_
#define TGRAPH_DATAFLOW_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tgraph::dataflow {

/// \brief A fork-join pool in which the calling thread works.
///
/// The dataflow engine's substitute for a Spark executor fleet: one pool per
/// ExecutionContext, one job per stage. Run() publishes the stage as a job
/// (the task function, the task count and a claim cursor), wakes at most
/// `min(n - 1, num_threads())` pool threads, then claims and runs indices
/// itself. It waits only for indices a pool thread claimed and has not
/// finished. Concurrent callers each publish their own job, and idle pool
/// threads help whichever job still has unclaimed indices.
class ThreadPool {
 public:
  /// Starts `num_threads` pool threads. Zero is allowed: every Run() is
  /// then executed by its caller alone.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all pool threads. No Run() may be in flight.
  ~ThreadPool();

  /// Runs fn(0) ... fn(n-1), each exactly once, on the calling thread and
  /// on pool threads, and returns when all have completed. Must not be
  /// called from a pool thread (see InWorkerThread()).
  void Run(size_t n, const std::function<void(size_t)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when called from one of this pool's threads. Lets nested
  /// parallel sections run inline instead of waiting on their own pool.
  bool InWorkerThread() const;

 private:
  struct Job;

  void WorkerLoop();
  /// A published job with unclaimed indices, or nullptr. Requires mu_.
  Job* FindWork() const;
  /// Unpublishes `job` and waits until no pool thread is inside it.
  void Retire(Job* job);

  std::mutex mu_;
  std::condition_variable cv_;  // signalled when a job is published
  std::vector<Job*> jobs_;      // guarded by mu_
  bool shutdown_ = false;       // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace tgraph::dataflow

#endif  // TGRAPH_DATAFLOW_THREAD_POOL_H_
