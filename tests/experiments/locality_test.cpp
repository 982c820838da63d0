// Experiment E2 (Theorems 2 and 3: failure locality). A process crashes
// mid-meal; after the system settles, the test measures the distance from
// the corpse to the farthest starving process, for the paper's algorithm
// and three baselines, and around several malicious crashes on a grid.
// Each test prints the rows of its EXPERIMENTS.md table and asserts every
// number in them exactly:
//   build/tests/experiments_tests --gtest_filter='E2.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>

#include "algorithms/chandy_misra.hpp"
#include "algorithms/ordered_resource.hpp"
#include "analysis/batch_runner.hpp"
#include "analysis/harness.hpp"
#include "core/diners_system.hpp"
#include "fault/injector.hpp"
#include "fault/workload.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"

namespace diners::analysis {
namespace {

using core::DinerState;
using graph::NodeId;

// Round-robin until `victim` eats (at most 20k steps), crash it there,
// settle, then the locality radius of the starvation window.
template <typename System>
std::uint32_t radius_after_crash(System& system, NodeId victim,
                                 std::uint64_t fairness, std::uint64_t settle,
                                 std::uint64_t window) {
  sim::Engine engine(system, sim::make_daemon("round-robin", 1), fairness);
  engine.run(20000,
             [&] { return system.state(victim) == DinerState::kEating; });
  system.crash(victim);
  engine.reset_ages();
  engine.run(settle);
  return measure_starvation(system, engine, window).locality_radius;
}

// A path whose processes 1..n-1 are hungry when head 0 crashes mid-meal.
std::uint32_t nesterenko_arora(NodeId n, bool dynamic_threshold) {
  core::DinersConfig cfg;
  cfg.enable_dynamic_threshold = dynamic_threshold;
  core::DinersSystem system(graph::make_path(n), cfg);
  for (NodeId p = 1; p < n; ++p) system.set_state(p, DinerState::kHungry);
  return radius_after_crash(system, 0, 64, 400 * n, 800 * n);
}

// Hungry chain on a path of n, head crashes at the table. Columns n = 8,
// 16, 32, 64. Ordered-resource loses its middle process n/2 instead, which
// stalls the low side of the order.
TEST(E2, LocalityRadiusOnAPath) {
  const struct {
    const char* algorithm;
    std::function<std::uint32_t(NodeId)> radius;
    std::uint32_t expected[4];
  } rows[] = {
      {"Nesterenko–Arora",
       [](NodeId n) { return nesterenko_arora(n, true); },
       {1, 1, 1, 1}},
      {"NA without dynamic threshold (A1)",
       [](NodeId n) { return nesterenko_arora(n, false); },
       {7, 15, 31, 63}},
      {"Chandy–Misra hygienic",
       [](NodeId n) {
         algorithms::ChandyMisraSystem system(graph::make_path(n));
         return radius_after_crash(system, 0, 128, 2000 * n, 2000 * n);
       },
       {7, 15, 31, 63}},
      {"ordered-resource",
       [](NodeId n) {
         algorithms::OrderedResourceSystem system(graph::make_path(n));
         return radius_after_crash(system, n / 2, 128, 1000 * n, 1000 * n);
       },
       {4, 8, 16, 32}},
  };
  std::printf("| algorithm | n=8 | n=16 | n=32 | n=64 |\n");
  for (const auto& row : rows) {
    std::printf("| %s |", row.algorithm);
    for (int i = 0; i < 4; ++i) {
      const NodeId n = 8u << i;
      const std::uint32_t radius = row.radius(n);
      std::printf(" %u |", radius);
      EXPECT_EQ(radius, row.expected[i]) << row.algorithm << " n=" << n;
    }
    std::printf("\n");
  }
}

// 1-3 simultaneous 16-write malicious crashes at step 500 on an 8x8 grid,
// victims at least 4 apart, drawn per trial; 4 trials (master seed 7), a
// 60k-step window after 60k steps of saturation workload.
TEST(E2, SeveralMaliciousCrashesOnAGrid) {
  const struct {
    std::uint32_t crashes;
    double starved_mean;
    std::uint32_t max_radius;
    double meals_mean;
  } rows[] = {{1, 4.25, 2, 20000}, {2, 7, 2, 20000}, {3, 10.5, 2, 20000}};
  std::printf("| crashes | starved (mean) | max radius | meals in window "
              "(mean) |\n");
  for (const auto& row : rows) {
    BatchOptions batch;
    batch.trials = 4;
    batch.master_seed = 7;
    const auto trial = [&](std::uint64_t, std::uint64_t seed) {
      core::DinersSystem system(graph::make_grid(8, 8));
      util::Xoshiro256 rng(seed);
      auto plan = fault::CrashPlan::spread(system.topology(), row.crashes,
                                           500, 16, 4, rng);
      EXPECT_EQ(plan.size(), row.crashes);
      HarnessOptions options;
      options.seed = seed;
      ExperimentHarness harness(
          system, std::make_unique<fault::SaturationWorkload>(),
          std::move(plan), options);
      harness.run(60000);
      const StarvationReport report = measure_starvation(harness, 60000);
      TrialOutput out;
      out.meals = report.meals_in_window;
      out.starved = report.starved.size();
      out.locality_radius = report.locality_radius;
      return out;
    };
    const BatchResult r = run_batch(batch, trial);
    std::printf("| %u | %g | %u | %g |\n", row.crashes, r.starved.mean(),
                r.max_locality_radius, r.meals.mean());
    EXPECT_DOUBLE_EQ(r.starved.mean(), row.starved_mean);
    EXPECT_EQ(r.max_locality_radius, row.max_radius);
    EXPECT_DOUBLE_EQ(r.meals.mean(), row.meals_mean);
  }
}

}  // namespace
}  // namespace diners::analysis
