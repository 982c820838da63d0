#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace diners::util {
namespace {

TEST(TrialPool, ZeroJobsRejected) {
  EXPECT_THROW(TrialPool(0), std::invalid_argument);
}

TEST(TrialPool, JobsReported) {
  EXPECT_EQ(TrialPool(1).jobs(), 1u);
  EXPECT_EQ(TrialPool(5).jobs(), 5u);
}

TEST(TrialPool, HardwareJobsPositive) {
  EXPECT_GE(TrialPool::hardware_jobs(), 1u);
}

TEST(TrialPool, ZeroItemsIsNoop) {
  TrialPool pool(4);
  std::atomic<int> calls{0};
  pool.run(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

// Every index in [0, count) is visited exactly once, for every jobs/count
// relation (jobs > count, jobs == count, jobs < count, serial).
TEST(TrialPool, EachIndexVisitedExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 4u, 9u}) {
    for (std::size_t count : {0u, 1u, 3u, 8u, 100u}) {
      TrialPool pool(jobs);
      std::vector<std::atomic<int>> visits(count);
      pool.run(count, [&](std::size_t i) { ++visits[i]; });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "jobs=" << jobs << " count=" << count << " i=" << i;
      }
    }
  }
}

// Per-index output slots make results independent of scheduling: the sum
// collected through slots equals the serial sum for any worker count.
TEST(TrialPool, SlotOutputsDeterministic) {
  const std::size_t count = 257;
  std::vector<long> expected(count);
  for (std::size_t i = 0; i < count; ++i) {
    expected[i] = static_cast<long>(i * i);
  }
  for (unsigned jobs : {1u, 3u, 8u}) {
    std::vector<long> out(count, -1);
    TrialPool pool(jobs);
    pool.run(count, [&](std::size_t i) {
      out[i] = static_cast<long>(i * i);
    });
    EXPECT_EQ(out, expected) << "jobs=" << jobs;
  }
}

// A throwing item does not hang the pool, every other item still runs,
// and the exception is rethrown to the caller after the batch joins.
TEST(TrialPool, ExceptionPropagatesAfterBatch) {
  TrialPool pool(4);
  std::atomic<int> calls{0};
  try {
    pool.run(16, [&](std::size_t i) {
      ++calls;
      if (i == 5) throw std::runtime_error("trial 5 failed");
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "trial 5 failed");
  }
  EXPECT_EQ(calls.load(), 16);

  // The pool is reusable after a failed batch.
  std::atomic<int> second{0};
  pool.run(8, [&](std::size_t) { ++second; });
  EXPECT_EQ(second.load(), 8);
}

// With several failing items the lowest-indexed one wins, whichever
// worker ran it and whenever it threw.
TEST(TrialPool, LowestIndexedExceptionWins) {
  for (unsigned jobs : {1u, 2u, 4u}) {
    TrialPool pool(jobs);
    std::atomic<int> calls{0};
    try {
      pool.run(16, [&](std::size_t i) {
        ++calls;
        if (i == 3 || i == 11) {
          throw std::runtime_error("trial " + std::to_string(i));
        }
      });
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& err) {
      EXPECT_STREQ(err.what(), "trial 3") << "jobs=" << jobs;
    }
    EXPECT_EQ(calls.load(), 16) << "jobs=" << jobs;
  }
}

TEST(TrialPool, CallerThreadParticipates) {
  // With jobs=1 the work must run on the calling thread (no spawn), which
  // keeps serial runs deterministic and cheap.
  TrialPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(4);
  pool.run(4, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

}  // namespace
}  // namespace diners::util
