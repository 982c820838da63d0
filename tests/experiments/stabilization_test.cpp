// Experiments E1 (Theorem 1: steps from a corrupted state to I, plus the
// threshold-erratum rows on K8) and E3 (recovery cost against the malice
// budget of a crash). Each test runs the scenario of an EXPERIMENTS.md
// table, prints the table's rows and asserts every number in them exactly:
//   build/tests/experiments_tests --gtest_filter='E1.*:E3.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

#include "analysis/batch_runner.hpp"
#include "core/diners_system.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"

namespace diners::analysis {
namespace {

constexpr double kNotRun = -1;  // a "—" cell

// `trials` scenario trials on derive_seed(master_seed, trial) streams.
BatchResult run_trials(const ScenarioOptions& scenario, std::uint64_t trials,
                       std::uint64_t master_seed) {
  BatchOptions batch;
  batch.trials = trials;
  batch.master_seed = master_seed;
  return run_scenario_batch(scenario, batch);
}

// A uniformly corrupted start; round-robin, fairness bound 64.
ScenarioOptions corrupted_start(const char* topology, graph::NodeId n) {
  ScenarioOptions scenario;
  scenario.topology = topology;
  scenario.n = n;
  scenario.corrupt = true;
  return scenario;
}

// Mean steps to I over 5 trials (master seed 1000), sound threshold n - 1;
// every trial converges. Columns n = 8, 16, 32, 64 (grid is n/4 x 4).
TEST(E1, MeanStepsToInvariantFromCorruptedStarts) {
  const struct {
    const char* topology;
    double mean[4];
  } rows[] = {
      {"ring", {25.6, 32, 60.8, 156.8}},
      {"path", {25.6, 32, 73.6, 156.8}},
      {"grid", {kNotRun, 35.2, 89.6, 144}},
      {"tree", {kNotRun, 44.8, 64, 140.8}},
      {"gnp", {kNotRun, 44.8, 99.2, 240}},
  };
  std::printf("| topology | n=8 | n=16 | n=32 | n=64 |\n");
  for (const auto& row : rows) {
    std::printf("| %s |", row.topology);
    for (int i = 0; i < 4; ++i) {
      const graph::NodeId n = 8u << i;
      if (row.mean[i] == kNotRun) {
        std::printf(" — |");
        continue;
      }
      ScenarioOptions scenario = corrupted_start(row.topology, n);
      scenario.diameter_override = n - 1;
      const BatchResult r = run_trials(scenario, 5, 1000);
      std::printf(" %g |", r.primary.mean());
      EXPECT_EQ(r.converged, 5u) << row.topology << " n=" << n;
      EXPECT_DOUBLE_EQ(r.primary.mean(), row.mean[i])
          << row.topology << " n=" << n;
    }
    std::printf("\n");
  }
}

// K8 from 3 corrupted starts (master seed 42) with a 60k-step budget: the
// paper's D = 1 never reaches I; the sound threshold converges.
TEST(E1, ThresholdErratumOnK8) {
  const struct {
    const char* threshold;
    std::optional<std::uint32_t> d;
    std::uint64_t converged;
    double mean;
  } rows[] = {
      {"paper D = 1", std::nullopt, 0, kNotRun},
      {"sound n-1 = 7", 7, 3, 80.0 / 3},
  };
  std::printf("| K8 threshold | converged of 3 | mean steps to I |\n");
  for (const auto& row : rows) {
    ScenarioOptions scenario = corrupted_start("complete", 8);
    scenario.diameter_override = row.d;
    scenario.max_steps = 60000;
    const BatchResult r = run_trials(scenario, 3, 42);
    const double mean = r.converged > 0 ? r.primary.mean() : kNotRun;
    std::printf("| %s | %llu |", row.threshold,
                static_cast<unsigned long long>(r.converged));
    if (mean == kNotRun) {
      std::printf(" — |\n");
    } else {
      std::printf(" %.16g |\n", mean);
    }
    EXPECT_EQ(r.converged, row.converged) << row.threshold;
    EXPECT_DOUBLE_EQ(mean, row.mean) << row.threshold;
  }
}

// G(24, 0.12) (topology seed 5), sound threshold 23, round-robin. One
// uniformly drawn victim crashes at step 3000 after `malice` arbitrary
// writes, measured from step 3001; or (no malice) a full transient
// corruption and no crash. Mean steps to re-reach I over 5 trials (master
// seed 1).
TEST(E3, RecoveryIsFlatInTheMaliceBudget) {
  const struct {
    const char* fault;
    std::optional<std::uint32_t> malice;
    double mean;
  } columns[] = {
      {"0 (benign)", 0, 0}, {"4", 4, 14.4},     {"16", 16, 9.6},
      {"64", 64, 6.4},      {"256", 256, 14.4},
      {"full transient (no crash)", std::nullopt, 81.6},
  };
  std::printf("| malicious pre-halt writes |");
  for (const auto& c : columns) std::printf(" %s |", c.fault);
  std::printf("\n| mean steps to re-reach I |");
  for (const auto& c : columns) {
    ScenarioOptions scenario;
    scenario.topology = "gnp";
    scenario.n = 24;
    scenario.gnp_p = 0.12;
    scenario.topology_seed = 5;
    scenario.diameter_override = 23;
    scenario.max_steps = 200000;
    scenario.check_every = 8;
    scenario.corrupt = !c.malice;
    if (c.malice) {
      scenario.random_crashes = 1;
      scenario.random_crash_step = 3000;
      scenario.random_crash_malice = *c.malice;
      scenario.warmup_steps = 3001;
    }
    const BatchResult r = run_trials(scenario, 5, 1);
    std::printf(" %g |", r.primary.mean());
    EXPECT_EQ(r.converged, 5u) << c.fault;
    EXPECT_DOUBLE_EQ(r.primary.mean(), c.mean) << c.fault;
  }
  std::printf("\n");
}

// Meals in 10k round-robin steps (daemon seed 3) on a 6x6 grid, before and
// after interior node 14 crashes with `malice` writes (rng seed 9) and 5k
// steps absorb it.
TEST(E3, GreenRegionThroughputAroundAMaliciousCrash) {
  const struct {
    std::uint32_t malice;
    std::uint64_t before, after;
  } rows[] = {{0, 2318, 2379}, {16, 2318, 2541}, {128, 2318, 2546}};
  std::printf("| malice | meals/1k steps before | after |\n");
  for (const auto& row : rows) {
    core::DinersSystem system(graph::make_grid(6, 6));
    sim::Engine engine(system, sim::make_daemon("round-robin", 3), 64);
    const auto meals_in = [&](std::uint64_t steps) {
      const std::uint64_t start = system.total_meals();
      engine.run(steps);
      return system.total_meals() - start;
    };
    engine.run(5000);
    const std::uint64_t before = meals_in(10000);
    util::Xoshiro256 rng(9);
    fault::malicious_crash(system, 14, row.malice, rng);
    engine.reset_ages();
    engine.run(5000);
    const std::uint64_t after = meals_in(10000);
    std::printf("| %u | %g | %g |\n", row.malice, before / 10.0,
                after / 10.0);
    EXPECT_EQ(before, row.before) << "malice " << row.malice;
    EXPECT_EQ(after, row.after) << "malice " << row.malice;
  }
}

}  // namespace
}  // namespace diners::analysis
