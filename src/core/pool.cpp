#include "core/pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

namespace scperf {

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // On stop the queue is still drained: destruction with queued tasks
      // runs them rather than dropping them (or deadlocking).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      std::unique_lock<std::mutex> lock(mu_);
      if (!pending_error_) pending_error_ = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_) {
      throw std::runtime_error("ThreadPool::submit after destruction began");
    }
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (pending_error_) {
    std::exception_ptr e = std::move(pending_error_);
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;

  // Per-call completion state, shared by the driver tasks. Drivers claim
  // ascending indices from `next` until the range (or an error) exhausts it;
  // the caller blocks on `done` until every claimed index has finished.
  struct ForState {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    std::size_t live_drivers = 0;
    std::exception_ptr error;
  };
  auto st = std::make_shared<ForState>();

  const std::size_t drivers = std::min(workers_.size(), n);
  auto drive = [st, n, &body] {
    for (;;) {
      const std::size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        body(i);
      } catch (...) {
        std::unique_lock<std::mutex> lock(st->mu);
        if (!st->error) st->error = std::current_exception();
        // Poison the range so no driver claims further indices.
        st->next.store(n, std::memory_order_relaxed);
      }
    }
    std::unique_lock<std::mutex> lock(st->mu);
    if (--st->live_drivers == 0) st->done.notify_all();
  };

  {
    std::unique_lock<std::mutex> lock(st->mu);
    st->live_drivers = drivers;
  }
  // The calling thread is one of the drivers: a single-worker pool busy with
  // this very call still makes progress, and small ranges skip the queue
  // entirely.
  for (std::size_t d = 1; d < drivers; ++d) submit(drive);
  drive();

  std::unique_lock<std::mutex> lock(st->mu);
  st->done.wait(lock, [&st] { return st->live_drivers == 0; });
  if (st->error) std::rethrow_exception(st->error);
}

void ThreadPool::parallel_for(const std::vector<std::size_t>& indices,
                              const std::function<void(std::size_t)>& body) {
  // Positions are claimed exactly like the dense range; the extra
  // indirection is all the sparseness costs.
  parallel_for(indices.size(), [&](std::size_t j) { body(indices[j]); });
}

std::size_t ThreadPool::default_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

}  // namespace scperf
