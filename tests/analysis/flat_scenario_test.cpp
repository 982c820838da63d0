// Scenario-level equivalence of the flat substrate: run_scenario_batch with
// engine_kind = kFlat must produce aggregates bit-identical to the object
// engine's, and — per the determinism contract — bit-identical for every
// batch `jobs` value. These tests run in the TSan CI job (name-matched via
// 'ScenarioBatch'), so flat-engine trials on concurrent batch workers are
// also exercised under the race detector.
#include <gtest/gtest.h>

#include "analysis/batch_runner.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"

namespace diners::analysis {
namespace {

/// Field-by-field equality of everything under the determinism contract
/// (wall timing excluded).
void expect_same_aggregate(const BatchResult& a, const BatchResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.trials, b.trials) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.primary.count(), b.primary.count()) << label;
  EXPECT_EQ(a.primary.mean(), b.primary.mean()) << label;
  EXPECT_EQ(a.primary.variance(), b.primary.variance()) << label;
  EXPECT_EQ(a.primary.min(), b.primary.min()) << label;
  EXPECT_EQ(a.primary.max(), b.primary.max()) << label;
  EXPECT_EQ(a.meals.mean(), b.meals.mean()) << label;
  EXPECT_EQ(a.starved.mean(), b.starved.mean()) << label;
  EXPECT_EQ(a.max_locality_radius, b.max_locality_radius) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.forced_steps, b.forced_steps) << label;
  ASSERT_EQ(a.primary_hist.bins().size(), b.primary_hist.bins().size())
      << label;
  for (std::size_t i = 0; i < a.primary_hist.bins().size(); ++i) {
    EXPECT_EQ(a.primary_hist.bins()[i], b.primary_hist.bins()[i])
        << label << ", bin " << i;
  }
}

ScenarioOptions corrupted_scenario() {
  ScenarioOptions scenario;
  scenario.topology = "gnp";
  scenario.n = 32;
  scenario.gnp_p = 0.15;
  scenario.daemon = "random";
  scenario.corrupt = true;
  scenario.crashes = {fault::CrashEvent{120, 3, 16}};
  scenario.max_steps = 150000;
  scenario.check_every = 8;
  return scenario;
}

TEST(FlatEngineScenarioBatch, AggregatesMatchObjectEngine) {
  ScenarioOptions scenario = corrupted_scenario();
  BatchOptions batch;
  batch.trials = 24;
  batch.jobs = 2;
  batch.master_seed = 11;

  scenario.engine_kind = sim::EngineKind::kObject;
  const BatchResult object = run_scenario_batch(scenario, batch);
  scenario.engine_kind = sim::EngineKind::kFlat;
  const BatchResult flat = run_scenario_batch(scenario, batch);
  EXPECT_GT(object.converged, 0u);
  expect_same_aggregate(object, flat, "flat vs object");
}

TEST(FlatEngineScenarioBatch, EngineJobsAreAggregateInvariant) {
  ScenarioOptions scenario = corrupted_scenario();
  scenario.engine_kind = sim::EngineKind::kFlat;
  BatchOptions batch;
  batch.trials = 12;
  batch.master_seed = 5;

  batch.jobs = 1;
  const BatchResult serial = run_scenario_batch(scenario, batch);
  for (const unsigned jobs : {2u, 4u}) {
    batch.jobs = jobs;
    const BatchResult parallel = run_scenario_batch(scenario, batch);
    expect_same_aggregate(serial, parallel,
                          "batch jobs " + std::to_string(jobs));
  }
}

TEST(FlatEngineScenarioBatch, StarStepJobsAreAggregateInvariant) {
  // Each exit by a star's center dirties every leaf. The flat engine's
  // aggregates must match the object engine's at every batch jobs value.
  ScenarioOptions scenario;
  scenario.topology = "star";
  scenario.n = 300;
  scenario.daemon = "adversarial-age";
  scenario.corrupt = true;
  scenario.crashes = {fault::CrashEvent{400, 0, 8}};
  scenario.max_steps = 20000;
  scenario.check_every = 64;

  BatchOptions batch;
  batch.trials = 6;
  batch.jobs = 2;
  batch.master_seed = 17;

  scenario.engine_kind = sim::EngineKind::kObject;
  const BatchResult object = run_scenario_batch(scenario, batch);
  EXPECT_GT(object.converged, 0u);
  scenario.engine_kind = sim::EngineKind::kFlat;
  for (const unsigned jobs : {1u, 4u}) {
    batch.jobs = jobs;
    const BatchResult flat = run_scenario_batch(scenario, batch);
    expect_same_aggregate(object, flat,
                          "star flat vs object, batch jobs " +
                              std::to_string(jobs));
  }
}

TEST(FlatEngineScenarioBatch, TenThousandProcessRunIsJobsInvariant) {
  // The acceptance-scale check: corrupted n=10k ring trials, aggregates
  // bit-identical for batch jobs 1 and 2.
  ScenarioOptions scenario;
  scenario.topology = "ring";
  scenario.n = 10000;
  scenario.daemon = "round-robin";
  // Exact ring diameter, so trials skip the O(n*m) all-pairs BFS.
  scenario.diameter_override = 5000;
  scenario.corrupt = true;
  scenario.max_steps = 300000;
  scenario.check_every = 1024;
  scenario.engine_kind = sim::EngineKind::kFlat;

  BatchOptions batch;
  batch.trials = 2;
  batch.master_seed = 3;

  batch.jobs = 1;
  const BatchResult serial = run_scenario_batch(scenario, batch);
  EXPECT_EQ(serial.converged, serial.trials);
  batch.jobs = 2;
  const BatchResult parallel = run_scenario_batch(scenario, batch);
  expect_same_aggregate(serial, parallel, "n=10k batch jobs 2");
}

}  // namespace
}  // namespace diners::analysis
