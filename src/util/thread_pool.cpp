#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace diners::util {

TrialPool::TrialPool(unsigned jobs) : jobs_(jobs) {
  if (jobs == 0) {
    throw std::invalid_argument("TrialPool: jobs must be positive");
  }
}

void TrialPool::run(std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs_, count));
  // A worker claims ascending indices, so its first failure is its
  // lowest-indexed one.
  struct Failure {
    std::size_t item = 0;
    std::exception_ptr error;
  };
  std::vector<Failure> failures(workers);
  std::atomic<std::size_t> next{0};
  auto work = [&fn, &failures, &next, count](unsigned w) {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        if (!failures[w].error) failures[w] = {i, std::current_exception()};
      }
    }
  };
  {
    // jthread joins on destruction, so a failed spawn still joins the
    // workers already running (they finish every item) before unwinding.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) threads.emplace_back(work, w);
    work(0);
  }
  const Failure* first = nullptr;
  for (const auto& f : failures) {
    if (f.error && (first == nullptr || f.item < first->item)) first = &f;
  }
  if (first != nullptr) std::rethrow_exception(first->error);
}

}  // namespace diners::util
