#include "analysis/batch_runner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace diners::analysis {
namespace {

// Exact (bitwise for doubles) equality of everything covered by the
// determinism contract — wall timing is deliberately excluded.
void expect_same_aggregate(const BatchResult& a, const BatchResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.trials, b.trials) << label;
  EXPECT_EQ(a.converged, b.converged) << label;
  EXPECT_EQ(a.primary.count(), b.primary.count()) << label;
  EXPECT_EQ(a.primary.mean(), b.primary.mean()) << label;
  EXPECT_EQ(a.primary.variance(), b.primary.variance()) << label;
  EXPECT_EQ(a.primary.min(), b.primary.min()) << label;
  EXPECT_EQ(a.primary.max(), b.primary.max()) << label;
  EXPECT_EQ(a.meals.count(), b.meals.count()) << label;
  EXPECT_EQ(a.meals.mean(), b.meals.mean()) << label;
  EXPECT_EQ(a.meals.variance(), b.meals.variance()) << label;
  EXPECT_EQ(a.starved.mean(), b.starved.mean()) << label;
  EXPECT_EQ(a.max_locality_radius, b.max_locality_radius) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.forced_steps, b.forced_steps) << label;
  EXPECT_EQ(a.primary_hist.bins(), b.primary_hist.bins()) << label;
  EXPECT_EQ(a.primary_hist.underflow(), b.primary_hist.underflow()) << label;
  EXPECT_EQ(a.primary_hist.overflow(), b.primary_hist.overflow()) << label;
}

TEST(RunBatch, RejectsBadInput) {
  BatchOptions options;
  options.trials = 0;
  EXPECT_THROW(run_batch(options, [](std::uint64_t, std::uint64_t) {
                 return TrialOutput{};
               }),
               std::invalid_argument);
  options.trials = 1;
  EXPECT_THROW(run_batch(options, TrialFn{}), std::invalid_argument);
}

TEST(RunBatch, SeedsFollowDeriveSeedStreams) {
  BatchOptions options;
  options.trials = 8;
  options.master_seed = 321;
  std::vector<std::uint64_t> seeds(options.trials, 0);
  (void)run_batch(options, [&](std::uint64_t trial, std::uint64_t seed) {
    seeds[trial] = seed;
    return TrialOutput{};
  });
  for (std::uint64_t t = 0; t < options.trials; ++t) {
    EXPECT_EQ(seeds[t], util::derive_seed(321, t)) << "trial " << t;
  }
}

// A synthetic trial whose output is a pure function of (trial, seed): the
// merged aggregate must be bit-identical at every jobs setting because the
// fold runs in trial order on the calling thread.
TEST(RunBatch, AggregateBitIdenticalAcrossJobs) {
  const auto trial_fn = [](std::uint64_t trial, std::uint64_t seed) {
    TrialOutput out;
    out.converged = trial % 7 != 3;
    // An awkward irrational mix so any reordering of the Welford fold
    // would actually move the low bits.
    out.primary = std::sqrt(static_cast<double>(seed % 10007)) * 3.7 +
                  static_cast<double>(trial) * 0.01;
    out.meals = seed % 97;
    out.starved = trial % 3;
    out.locality_radius = static_cast<std::uint32_t>(trial % 5);
    return out;
  };

  BatchOptions options;
  options.trials = 100;
  options.master_seed = 99;
  options.hist_lo = 0.0;
  options.hist_hi = 400.0;
  options.hist_bins = 16;

  options.jobs = 1;
  const BatchResult serial = run_batch(options, trial_fn);
  EXPECT_EQ(serial.trials, 100u);
  EXPECT_LT(serial.converged, serial.trials);
  EXPECT_GT(serial.primary.count(), 0u);

  for (unsigned jobs : {2u, 4u, 8u}) {
    options.jobs = jobs;
    expect_same_aggregate(run_batch(options, trial_fn), serial,
                          "jobs=" + std::to_string(jobs));
  }
}

TEST(RunBatch, HistogramUsesConfiguredLayout) {
  BatchOptions options;
  options.trials = 4;
  options.hist_lo = 10.0;
  options.hist_hi = 50.0;
  options.hist_bins = 4;
  const BatchResult result =
      run_batch(options, [](std::uint64_t trial, std::uint64_t) {
        TrialOutput out;
        out.primary = 10.0 * static_cast<double>(trial);  // 0,10,20,30
        return out;
      });
  EXPECT_EQ(result.primary_hist.lo(), 10.0);
  EXPECT_EQ(result.primary_hist.hi(), 50.0);
  EXPECT_EQ(result.primary_hist.num_bins(), 4u);
  EXPECT_EQ(result.primary_hist.underflow(), 1u);  // the 0.0 sample
  EXPECT_EQ(result.primary_hist.bin(0), 1u);       // 10
  EXPECT_EQ(result.primary_hist.bin(1), 1u);       // 20
  EXPECT_EQ(result.primary_hist.bin(2), 1u);       // 30
  EXPECT_EQ(result.primary_hist.total(), 4u);
}

// Steps and forced steps are summed over trials, in the same fold.
TEST(RunBatch, SumsStepsAndForcedSteps) {
  BatchOptions options;
  options.trials = 5;
  options.jobs = 3;
  const BatchResult r = run_batch(options, [](std::uint64_t trial,
                                              std::uint64_t) {
    TrialOutput out;
    out.steps = 100 * (trial + 1);
    out.forced_steps = trial;
    return out;
  });
  EXPECT_EQ(r.steps, 1500u);
  EXPECT_EQ(r.forced_steps, 10u);
}

// A scenario trial reports its engine's step counters.
TEST(ScenarioTrial, ReportsStepsAndForcedSteps) {
  ScenarioOptions scenario;
  scenario.n = 12;
  scenario.daemon = "biased";
  scenario.fairness_bound = 16;
  scenario.corrupt = true;
  scenario.diameter_override = 11;
  scenario.max_steps = 20000;
  scenario.window_steps = 3000;
  const TrialOutput out = run_scenario_trial(scenario, 0, 5);
  EXPECT_GT(out.steps, scenario.window_steps);
  EXPECT_GT(out.forced_steps, 0u);
  EXPECT_LE(out.forced_steps, out.steps);
}

// The tentpole end-to-end check: full simulation scenarios — stabilization
// from a corrupted state plus mid-run malicious crashes — merged over ring,
// grid, and G(n, p), are bit-identical at jobs 1 vs 4 vs 8.
TEST(ScenarioBatch, BitIdenticalAcrossJobsOnAllTopologies) {
  for (const char* topology : {"ring", "grid", "gnp"}) {
    ScenarioOptions scenario;
    scenario.topology = topology;
    scenario.n = 16;
    scenario.daemon = "random";
    scenario.fairness_bound = 64;
    scenario.corrupt = true;
    scenario.diameter_override = 15;  // sound threshold, n = 16 everywhere
    scenario.random_crashes = 2;
    scenario.random_crash_step = 50;  // mid-run: after some progress
    scenario.random_crash_malice = 16;
    scenario.max_steps = 20000;
    scenario.check_every = 8;
    scenario.window_steps = 2000;

    BatchOptions options;
    options.trials = 10;
    options.master_seed = 7;

    options.jobs = 1;
    const BatchResult serial = run_scenario_batch(scenario, options);
    EXPECT_EQ(serial.trials, 10u) << topology;
    EXPECT_GT(serial.meals.mean(), 0.0) << topology;

    for (unsigned jobs : {4u, 8u}) {
      options.jobs = jobs;
      expect_same_aggregate(
          run_scenario_batch(scenario, options), serial,
          std::string(topology) + " jobs=" + std::to_string(jobs));
    }
  }
}

// Determinism of a single scenario trial: same (scenario, seed) -> same
// output; different seeds -> (generically) different trajectories.
TEST(ScenarioTrial, DeterministicPerSeed) {
  ScenarioOptions scenario;
  scenario.topology = "ring";
  scenario.n = 12;
  scenario.corrupt = true;
  scenario.diameter_override = 11;
  scenario.daemon = "random";
  scenario.max_steps = 20000;
  scenario.window_steps = 1000;

  const TrialOutput a = run_scenario_trial(scenario, 0, 42);
  const TrialOutput b = run_scenario_trial(scenario, 5, 42);  // index is a label
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.primary, b.primary);
  EXPECT_EQ(a.meals, b.meals);
  EXPECT_EQ(a.starved, b.starved);
  EXPECT_EQ(a.locality_radius, b.locality_radius);
}

// The zero-rebuild candidate list must be behaviorally invisible: for every
// daemon, a scenario trial run with the incremental engine and with the
// full-scan reference produces identical outputs, under corruption plus a
// mid-run malicious crash (the hard cases for incremental maintenance).
TEST(ScenarioTrial, IncrementalMatchesFullScanForAllDaemons) {
  for (const char* daemon :
       {"round-robin", "random", "adversarial-age", "biased"}) {
    ScenarioOptions scenario;
    scenario.topology = "gnp";
    scenario.n = 14;
    scenario.gnp_p = 0.2;
    scenario.daemon = daemon;
    scenario.fairness_bound = 32;
    scenario.corrupt = true;
    scenario.diameter_override = 13;
    scenario.random_crashes = 1;
    scenario.random_crash_step = 40;
    scenario.random_crash_malice = 8;
    scenario.max_steps = 20000;
    scenario.check_every = 4;
    scenario.window_steps = 1500;

    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      const std::uint64_t seed = util::derive_seed(11, trial);
      scenario.scan_mode = sim::ScanMode::kIncremental;
      const TrialOutput inc = run_scenario_trial(scenario, trial, seed);
      scenario.scan_mode = sim::ScanMode::kFullScan;
      const TrialOutput full = run_scenario_trial(scenario, trial, seed);

      const std::string label =
          std::string(daemon) + " trial " + std::to_string(trial);
      EXPECT_EQ(inc.converged, full.converged) << label;
      EXPECT_EQ(inc.primary, full.primary) << label;
      EXPECT_EQ(inc.meals, full.meals) << label;
      EXPECT_EQ(inc.starved, full.starved) << label;
      EXPECT_EQ(inc.locality_radius, full.locality_radius) << label;
    }
  }
}

TEST(ScenarioTrial, FixedTopologySeedSharedAcrossTrials) {
  // With topology_seed set, every trial runs the same G(n, p) instance, so
  // a deterministic daemon converges identically for identical trial seeds.
  ScenarioOptions scenario;
  scenario.topology = "gnp";
  scenario.n = 12;
  scenario.topology_seed = 5;
  scenario.daemon = "round-robin";
  scenario.corrupt = false;
  scenario.max_steps = 10000;

  const TrialOutput a = run_scenario_trial(scenario, 0, 1);
  const TrialOutput b = run_scenario_trial(scenario, 1, 1);
  EXPECT_EQ(a.primary, b.primary);
  EXPECT_EQ(a.meals, b.meals);
}

TEST(ScenarioTrial, UnknownTopologyThrows) {
  ScenarioOptions scenario;
  scenario.topology = "moebius";
  EXPECT_THROW((void)run_scenario_trial(scenario, 0, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace diners::analysis
