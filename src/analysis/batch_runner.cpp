#include "analysis/batch_runner.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "analysis/monitors.hpp"
#include "core/config.hpp"
#include "fault/workload.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace diners::analysis {

namespace {

// Sub-stream labels hung off the per-trial seed. Every stochastic input of
// a scenario trial gets its own derive_seed stream so adding or removing
// one input never shifts the draws of another.
constexpr std::uint64_t kTopologyStream = 0x10;
constexpr std::uint64_t kCorruptStream = 0x11;
constexpr std::uint64_t kCrashStream = 0x12;
constexpr std::uint64_t kWorkloadStream = 0x13;
constexpr std::uint64_t kHarnessStream = 0x14;

}  // namespace

BatchResult run_batch(const BatchOptions& options, const TrialFn& fn) {
  if (options.trials == 0) throw std::invalid_argument("run_batch: 0 trials");
  if (!fn) throw std::invalid_argument("run_batch: null trial function");

  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1 (parallel): every trial writes only its own slot.
  std::vector<TrialOutput> outputs(options.trials);
  util::TrialPool pool(options.jobs);
  pool.run(options.trials, [&](std::size_t i) {
    const auto trial = static_cast<std::uint64_t>(i);
    outputs[i] = fn(trial, util::derive_seed(options.master_seed, trial));
  });

  const auto t1 = std::chrono::steady_clock::now();

  // Phase 2 (serial, trial order): the fold sees the same sequence no
  // matter how many workers ran phase 1, so the aggregate is bit-identical
  // across `jobs` settings.
  BatchResult result;
  result.trials = options.trials;
  result.primary_hist =
      Histogram(options.hist_lo, options.hist_hi, options.hist_bins);
  for (const TrialOutput& out : outputs) {
    if (out.converged) {
      ++result.converged;
      result.primary.add(out.primary);
      result.primary_hist.add(out.primary);
    }
    result.meals.add(static_cast<double>(out.meals));
    result.starved.add(static_cast<double>(out.starved));
    result.max_locality_radius =
        std::max(result.max_locality_radius, out.locality_radius);
    result.steps += out.steps;
    result.forced_steps += out.forced_steps;
  }

  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.trials_per_sec = result.wall_seconds > 0.0
                              ? static_cast<double>(options.trials) /
                                    result.wall_seconds
                              : 0.0;
  return result;
}

TrialOutput run_scenario_trial(const ScenarioOptions& scenario,
                               std::uint64_t /*trial*/, std::uint64_t seed) {
  const std::uint64_t topo_seed = scenario.topology_seed
                                      ? *scenario.topology_seed
                                      : util::derive_seed(seed, kTopologyStream);
  auto g = graph::make_named(scenario.topology, scenario.n, topo_seed,
                             scenario.gnp_p);

  core::DinersConfig config;
  config.diameter_override = scenario.diameter_override;
  core::DinersSystem system(std::move(g), config);

  if (scenario.corrupt) {
    util::Xoshiro256 rng(util::derive_seed(seed, kCorruptStream));
    fault::corrupt_global_state(system, rng);
  }

  std::vector<fault::CrashEvent> events = scenario.crashes;
  if (scenario.random_crashes > 0) {
    util::Xoshiro256 rng(util::derive_seed(seed, kCrashStream));
    const auto extra = fault::CrashPlan::random(
        static_cast<std::uint32_t>(system.topology().num_nodes()),
        scenario.random_crashes, scenario.random_crash_step,
        scenario.random_crash_malice, rng);
    events.insert(events.end(), extra.events().begin(), extra.events().end());
  }

  std::unique_ptr<fault::Workload> workload;
  if (!scenario.workload.empty() && scenario.workload != "none") {
    workload = fault::make_workload(scenario.workload,
                                    util::derive_seed(seed, kWorkloadStream));
  }

  HarnessOptions harness_options;
  harness_options.daemon = scenario.daemon;
  harness_options.fairness_bound = scenario.fairness_bound;
  harness_options.seed = util::derive_seed(seed, kHarnessStream);
  harness_options.scan_mode = scenario.scan_mode;
  harness_options.engine_kind = scenario.engine_kind;
  ExperimentHarness harness(system, std::move(workload),
                            fault::CrashPlan(std::move(events)),
                            harness_options);

  if (scenario.warmup_steps > 0) harness.run(scenario.warmup_steps);

  // Always measured: with a zero budget this checks the start state alone.
  TrialOutput out;
  const auto steps = steps_until_invariant(harness, scenario.max_steps,
                                           scenario.check_every);
  out.converged = steps.has_value();
  out.primary = steps ? static_cast<double>(*steps) : 0.0;

  if (scenario.window_steps > 0) {
    const StarvationReport report =
        measure_starvation(harness, scenario.window_steps);
    out.meals = report.meals_in_window;
    out.starved = report.starved.size();
    out.locality_radius = report.locality_radius;
  } else {
    out.meals = system.total_meals();
  }
  out.steps = harness.engine().steps();
  out.forced_steps = harness.engine().forced_steps();
  return out;
}

BatchResult run_scenario_batch(const ScenarioOptions& scenario,
                               const BatchOptions& options) {
  return run_batch(options, [&scenario](std::uint64_t trial,
                                        std::uint64_t seed) {
    return run_scenario_trial(scenario, trial, seed);
  });
}

}  // namespace diners::analysis
