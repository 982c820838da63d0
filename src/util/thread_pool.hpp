// TrialPool: a work-sharing fork-join pool for embarrassingly parallel
// batches of independent items (trials, rebuild blocks, explorer shards).
//
// Claiming is dynamic: the workers (the caller participates as one) take
// the next unclaimed item index from one shared atomic counter, so a
// worker that drew short items keeps claiming while another runs a long
// one. Which thread runs an item is therefore up to scheduling, and a
// batch is reproducible anyway — determinism comes from giving each item
// its own seed (util::derive_seed) and writing results into per-item
// slots, never from timing or from the thread an item ran on.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

namespace diners::util {

class TrialPool {
 public:
  /// A pool of `jobs` workers total (the calling thread counts as one, so
  /// `jobs - 1` threads are spawned; jobs == 1 runs everything inline).
  /// Throws std::invalid_argument for jobs == 0.
  explicit TrialPool(unsigned jobs);

  TrialPool(const TrialPool&) = delete;
  TrialPool& operator=(const TrialPool&) = delete;

  /// Runs fn(i) exactly once for every i in [0, count), each item claimed
  /// by whichever worker is free, and blocks until all items finish. fn
  /// must be safe to call concurrently for distinct items. If invocations
  /// throw, every item still runs, and after the batch the exception of
  /// the lowest-indexed failing item is rethrown.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn);

  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

  /// A sensible default worker count for this machine: hardware
  /// concurrency, at least 1.
  [[nodiscard]] static unsigned hardware_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

 private:
  unsigned jobs_;
};

}  // namespace diners::util
