#include "core/pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace scperf {

void parallel_for(std::size_t threads, std::span<const std::size_t> indices,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr error;
  auto drive = [&] {
    for (;;) {
      const std::size_t j = next.fetch_add(1, std::memory_order_relaxed);
      if (j >= indices.size()) return;
      try {
        body(indices[j]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        // Exhaust the counter so no driver claims another position.
        next.store(indices.size(), std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::jthread> helpers;
    const std::size_t drivers = std::min(threads, indices.size());
    for (std::size_t d = 1; d < drivers; ++d) helpers.emplace_back(drive);
    drive();
  }  // the helpers join here
  if (error) std::rethrow_exception(error);
}

}  // namespace scperf
