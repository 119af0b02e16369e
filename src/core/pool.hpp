#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scperf {

/// Fixed-size thread pool for embarrassingly parallel simulation work
/// (campaign runs, design-space sweeps: one Simulator per seed per worker).
///
/// Deliberately one shared queue, no per-worker deques: tasks are claimed
/// from it in order, and the deterministic API is parallel_for(), which
/// hands every index a dedicated result slot. Which worker executes which
/// index is
/// scheduling noise; as long as the task for index i writes only state
/// reachable from index i (the "one Simulator per thread, thread_local
/// accumulator" contract in DESIGN.md §7), the assembled slot array is
/// byte-identical for any thread count — including a pool of one and the
/// no-pool sequential path.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue — every task already submitted still runs — then
  /// stops and joins the workers. Never deadlocks on queued work; a pending
  /// stored exception (see wait_idle) is discarded, destructors cannot
  /// throw.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues one fire-and-forget task. If the task throws, the first such
  /// exception is stored and rethrown by the next wait_idle().
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running, then rethrows
  /// the first exception any submitted task threw since the last call.
  void wait_idle();

  /// Runs body(i) for every i in [0, n), the workers claiming one index at
  /// a time, and blocks until every index completed. Indices are claimed in
  /// ascending order but may run in any interleaving — determinism must come
  /// from per-index isolation, not execution order. If a body throws,
  /// remaining unclaimed indices are skipped, already-running ones finish,
  /// and the first exception is rethrown here. Safe to call concurrently
  /// with submit() and from multiple threads; n == 0 returns immediately.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  /// Sparse variant: runs body(indices[j]) for every position j, claiming
  /// positions in ascending order (the indices themselves may be any
  /// subset, in any order). This is the resume path of a journaled campaign:
  /// only the seeds the journal is missing re-run, with the same
  /// determinism, exception and drain semantics as the dense overload — an
  /// exception cancels unclaimed positions, in-flight indices finish, and
  /// the first error is rethrown after the drain.
  void parallel_for(const std::vector<std::size_t>& indices,
                    const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to report 0).
  static std::size_t default_threads();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_task_;  ///< workers: queue non-empty or stopping
  std::condition_variable cv_idle_;  ///< wait_idle: queue drained, none active
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr pending_error_;  ///< first submit()-task exception
  std::vector<std::thread> workers_;
};

}  // namespace scperf
