#ifndef P2PDT_COMMON_THREAD_POOL_H_
#define P2PDT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace p2pdt {

/// Fixed-size worker pool with a bounded task queue and a dynamically
/// scheduled ParallelFor.
///
/// The pool runs the ML layer's data-parallel loops: the (peer × tag)
/// local-training grid, sharded simulator phases, k-means assignment, and
/// the kernel SVM's Gram-matrix rows and decision kernel values. Per-item
/// work is skewed (tag popularity is Zipf-like, Gram rows are triangular),
/// so ParallelFor hands out small chunks from a shared counter — a
/// work-queue form of work stealing — instead of static range splits.
///
/// Determinism contract: the pool never introduces randomness of its own.
/// Callers must make every iteration of a ParallelFor body a pure function
/// of its index (seed RNGs from data identity such as (peer, tag), never
/// from thread or chunk identity) and write only to per-index slots; under
/// that contract results are bit-identical for every pool size, including
/// the serial (zero-worker) pool.
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 = everything runs inline on the
  /// calling thread). `max_queued` bounds the task queue; Submit blocks
  /// while the queue is full so bursty producers cannot accumulate
  /// unbounded closures.
  explicit ThreadPool(std::size_t num_workers, std::size_t max_queued = 256);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task. Blocks while the queue is full. With
  /// zero workers the task runs inline before Submit returns. Tasks must
  /// not throw; a throwing task is caught and logged.
  void Submit(std::function<void()> task);

  /// Runs `body(lo, hi)` over subranges of [begin, end) in chunks of
  /// `chunk` iterations, using the calling thread plus up to
  /// `max_threads - 1` workers (max_threads = 0 means "all workers").
  /// Blocks until every iteration completed. Chunks are claimed from a
  /// shared atomic counter, so skewed per-iteration cost balances
  /// dynamically. If any chunk throws, the exception from the
  /// lowest-indexed throwing chunk is rethrown here (deterministic
  /// regardless of scheduling).
  ///
  /// A call nested inside the body of a ParallelFor that fanned out runs
  /// inline (serial) on whichever thread runs that body, worker or caller
  /// — this keeps per-peer tasks free to call parallel kernels without
  /// deadlock, oversubscription, or queueing behind the outer loop's
  /// helpers. Any call from a pool worker runs inline.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   std::size_t max_threads = 0);

  /// True when called from one of this process's pool worker threads.
  static bool InWorker();

  /// Process-wide pool shared by the ML layer. Sized by the P2PDT_THREADS
  /// environment variable on first use (default: hardware_concurrency;
  /// 1 = fully serial). The value T is total concurrency — the global pool
  /// holds T-1 workers and ParallelFor callers contribute the Tth thread.
  static ThreadPool& Global();

  /// The resolved global concurrency T (>= 1).
  static std::size_t GlobalConcurrency();

  /// Overrides the global concurrency (0 = re-resolve from the environment)
  /// and rebuilds the global pool. Not safe while tasks are in flight;
  /// intended for tests and benchmark sweeps.
  static void SetGlobalConcurrency(std::size_t threads);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<std::function<void()>> queue_;
  std::size_t max_queued_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Convenience wrapper over the global pool: `threads` = 1 runs serially
/// with zero pool involvement, 0 uses the full global concurrency, N > 1
/// caps concurrency at N (never exceeding the global pool size). This is
/// the knob every parallelized trainer exposes as `num_threads`.
void ParallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                 std::size_t threads,
                 const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace p2pdt

#endif  // P2PDT_COMMON_THREAD_POOL_H_
