// Experiments E5 (the fault-free price of malicious-crash tolerance: meals
// and hungry-to-eat latency against the classic baselines) and E6 (daemon
// sensitivity). Each test runs the scenario of an EXPERIMENTS.md table,
// prints the table's rows and asserts every number in them exactly:
//   build/tests/experiments_tests --gtest_filter='E5.*:E6.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "algorithms/chandy_misra.hpp"
#include "algorithms/ordered_resource.hpp"
#include "analysis/monitors.hpp"
#include "core/diners_system.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace diners::analysis {
namespace {

using graph::NodeId;

// Meals per 1000 steps over `window` steps after `warmup` steps.
double meals_per_1k(const core::PhilosopherProgram& system,
                    sim::Engine& engine, std::uint64_t warmup,
                    std::uint64_t window) {
  engine.run(warmup);
  const std::uint64_t before = system.total_meals();
  engine.run(window);
  return static_cast<double>(system.total_meals() - before) * 1000.0 /
         static_cast<double>(window);
}

struct Cell {
  double meals_per_1k;
  double latency_p50;
};
constexpr Cell kNotRun{-1, -1};  // a "—" cell

// Round-robin, fairness bound 128; topology and daemon seeds derive from
// master seed 1. Meals over 20k steps after 2k of warmup.
template <typename System>
Cell throughput(const std::string& kind, NodeId n) {
  System system(graph::make_named(kind, n, util::derive_seed(1, 0x10)));
  sim::Engine engine(
      system, sim::make_daemon("round-robin", util::derive_seed(1, 1)), 128);
  MealLatencyMonitor latency(system, engine);
  const double meals = meals_per_1k(system, engine, 2000, 20000);
  return {meals, latency.summary().p50};
}

TEST(E5, FaultFreeThroughputAndLatency) {
  const struct {
    const char* kind;
    NodeId n;
  } columns[] = {{"ring", 8},  {"ring", 32}, {"ring", 128},
                 {"grid", 16}, {"grid", 64}, {"star", 32}};
  const struct {
    const char* algorithm;
    Cell (*run)(const std::string&, NodeId);
    Cell expected[6];
  } rows[] = {
      {"Nesterenko–Arora",
       throughput<core::DinersSystem>,
       {{333.3, 1}, {333.3, 1}, {246.45, 129}, {333.3, 1}, {250.9, 5},
        {333.3, 1}}},
      {"Chandy–Misra",
       throughput<algorithms::ChandyMisraSystem>,
       {{161.4, 39}, {147.75, 135}, {142.85, 886}, {120.4, 91}, {126.4, 389},
        {203.05, 96}}},
      {"ordered-resource",
       throughput<algorithms::OrderedResourceSystem>,
       {{199.95, 17}, {200, 77}, {200.55, 339}, {173.3, 52}, {161.35, 403},
        kNotRun}},
  };
  std::printf("| algorithm |");
  for (const auto& c : columns) std::printf(" %s %u |", c.kind, c.n);
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("| %s |", row.algorithm);
    for (int i = 0; i < 6; ++i) {
      if (row.expected[i].meals_per_1k == kNotRun.meals_per_1k) {
        std::printf(" — |");
        continue;
      }
      const Cell got = row.run(columns[i].kind, columns[i].n);
      std::printf(" %g / %g |", got.meals_per_1k, got.latency_p50);
      EXPECT_DOUBLE_EQ(got.meals_per_1k, row.expected[i].meals_per_1k)
          << row.algorithm << " " << columns[i].kind << columns[i].n;
      EXPECT_DOUBLE_EQ(got.latency_p50, row.expected[i].latency_p50)
          << row.algorithm << " " << columns[i].kind << columns[i].n;
    }
    std::printf("\n");
  }
}

// On a 5x5 grid: meals over 20k steps after 2k (daemon seed 3, fairness
// bound 64), and the mean steps to I from 3 corrupted starts (trial t:
// corruption seed t + 11, daemon seed t, sound threshold 24).
TEST(E6, DaemonThroughputAndConvergence) {
  const struct {
    const char* daemon;
    double meals_per_1k;
    double mean_steps_to_i;
  } rows[] = {
      {"round-robin", 252.55, 208.0 / 3},
      {"random", 208.05, 32},
      {"adversarial-age", 273, 176},
      {"biased", 294.6, 176},
  };
  std::printf("| daemon | meals/1k steps | mean steps to I |\n");
  for (const auto& row : rows) {
    core::DinersSystem system(graph::make_grid(5, 5));
    sim::Engine engine(system, sim::make_daemon(row.daemon, 3), 64);
    const double meals = meals_per_1k(system, engine, 2000, 20000);

    double total = 0;
    for (std::uint64_t t = 0; t < 3; ++t) {
      core::DinersConfig cfg;
      cfg.diameter_override = 24;
      core::DinersSystem corrupted(graph::make_grid(5, 5), cfg);
      util::Xoshiro256 rng(t + 11);
      fault::corrupt_global_state(corrupted, rng);
      sim::Engine recover(corrupted, sim::make_daemon(row.daemon, t), 64);
      const auto steps =
          steps_until_invariant(corrupted, recover, 400000, 16);
      ASSERT_TRUE(steps.has_value()) << row.daemon << " trial " << t;
      total += static_cast<double>(*steps);
    }
    std::printf("| %s | %g | %g |\n", row.daemon, meals, total / 3);
    EXPECT_DOUBLE_EQ(meals, row.meals_per_1k) << row.daemon;
    EXPECT_DOUBLE_EQ(total / 3, row.mean_steps_to_i) << row.daemon;
  }
}

// Adversarial-age daemon (seed 5) on a ring of 16: meals over 20k steps
// after 2k, against the weak-fairness bound.
TEST(E6, AdversarialThroughputGrowsWithTheFairnessBound) {
  const struct {
    std::uint64_t bound;
    double meals_per_1k;
  } rows[] = {{16, 208.75}, {64, 288.7}, {256, 320.3}, {1024, 330}};
  std::printf("| fairness bound | meals/1k steps |\n");
  for (const auto& row : rows) {
    core::DinersSystem system(graph::make_ring(16));
    sim::Engine engine(system, sim::make_daemon("adversarial-age", 5),
                       row.bound);
    const double meals = meals_per_1k(system, engine, 2000, 20000);
    std::printf("| %llu | %g |\n", static_cast<unsigned long long>(row.bound),
                meals);
    EXPECT_DOUBLE_EQ(meals, row.meals_per_1k) << "bound " << row.bound;
  }
}

}  // namespace
}  // namespace diners::analysis
