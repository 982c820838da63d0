// Allocation pin for the flat invariant oracle. A counting global operator
// new replaces the allocator for the whole executable, which is why this
// file is a test executable of its own.
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "analysis/invariants.hpp"
#include "graph/generators.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// noinline: GCC inlines them into `delete`, then pairs free with new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace diners::analysis {
namespace {

// Allocations made by holds_invariant(system); the verdict goes to `holds`.
std::size_t invariant_allocations(const core::DinersSystem& system,
                                  bool& holds) {
  const std::size_t before = g_allocations.load();
  holds = holds_invariant(system);
  return g_allocations.load() - before;
}

// The id-ordered ring under the sound threshold D = n - 1 is in I.
core::DinersSystem legitimate_ring(graph::NodeId n) {
  core::DinersConfig cfg;
  cfg.diameter_override = n - 1;
  return core::DinersSystem(graph::make_ring(n), cfg);
}

TEST(FlatOracleAllocations, SameFewAllocationsAtEveryRingSizeWhenIHolds) {
  std::size_t counts[2] = {};
  bool holds[2] = {};
  const graph::NodeId sizes[2] = {1024, 65536};
  for (int i = 0; i < 2; ++i) {
    const auto s = legitimate_ring(sizes[i]);
    ASSERT_TRUE(holds_invariant(s, ShallowContext(s)));
    counts[i] = invariant_allocations(s, holds[i]);
    EXPECT_TRUE(holds[i]) << "n = " << sizes[i];
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_LE(counts[1], 3u);
}

TEST(FlatOracleAllocations, NoneWhenALiveProcessIsDeeperThanD) {
  auto s = legitimate_ring(65536);
  s.set_depth(40000, 65536);
  bool holds = true;
  EXPECT_EQ(invariant_allocations(s, holds), 0u);
  EXPECT_FALSE(holds);
}

}  // namespace
}  // namespace diners::analysis
