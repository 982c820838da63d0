// BatchRunner: fans N independent Monte Carlo trials across worker threads
// and merges their results deterministically.
//
// Each trial owns its entire world — topology, DinersSystem, harness,
// engine, and RNG streams — so trials share no mutable state. Per-trial
// seeds come from util::derive_seed(master_seed, trial_index), so nearby
// master seeds and adjacent trials are decorrelated, and the seed of trial
// i never depends on how many trials run or on which thread runs it.
//
// Determinism contract: the merged aggregate (everything except the wall
// timing fields) is bit-identical for a given (master_seed, trials,
// scenario) regardless of `jobs` and of thread completion order, because
// per-trial outputs are written to per-trial slots and folded in trial
// order on the calling thread.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/harness.hpp"
#include "analysis/stats.hpp"
#include "fault/injector.hpp"
#include "graph/graph.hpp"
#include "runtime/engine.hpp"

namespace diners::analysis {

/// What one trial reports back for merging.
struct TrialOutput {
  /// False when the trial's convergence phase timed out (run_scenario_trial
  /// always measures it; a custom TrialFn that does not keeps the default).
  bool converged = true;
  /// The trial's primary metric (steps to the invariant I, unless the
  /// trial function measures something else).
  double primary = 0.0;
  /// Meals observed (in the starvation window when one is measured,
  /// otherwise over the whole run).
  std::uint64_t meals = 0;
  /// Processes that starved in the measurement window (0 without one).
  std::uint64_t starved = 0;
  /// StarvationReport::locality_radius of the window (0 without one).
  std::uint32_t locality_radius = 0;
  /// Engine steps the trial executed, and how many of them the fairness
  /// bound forced (sim::EngineBase::forced_steps); 0 when not counted.
  std::uint64_t steps = 0;
  std::uint64_t forced_steps = 0;
};

/// A trial: index plus its derived seed -> output. Must not touch shared
/// mutable state; everything stochastic must derive from `seed`.
using TrialFn =
    std::function<TrialOutput(std::uint64_t trial, std::uint64_t seed)>;

struct BatchOptions {
  std::uint64_t trials = 100;
  /// Worker threads (the calling thread included); 1 = serial.
  unsigned jobs = 1;
  std::uint64_t master_seed = 1;
  /// Layout of the primary-metric histogram.
  double hist_lo = 0.0;
  double hist_hi = 2048.0;
  std::size_t hist_bins = 32;
};

struct BatchResult {
  std::uint64_t trials = 0;
  std::uint64_t converged = 0;
  /// Primary metric over *converged* trials.
  Accumulator primary;
  Accumulator meals;
  Accumulator starved;
  /// Max locality radius over all trials (graph::kUnreachable marks a
  /// trial that starved someone with no crash present — a liveness bug).
  std::uint32_t max_locality_radius = 0;
  /// TrialOutput::steps and forced_steps summed over all trials.
  std::uint64_t steps = 0;
  std::uint64_t forced_steps = 0;
  Histogram primary_hist{0.0, 1.0, 1};  ///< layout from BatchOptions
  // Wall timing — the only fields excluded from the determinism contract.
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;
};

/// Runs `options.trials` trials of `fn` on `options.jobs` workers and
/// merges the outputs (fold in trial order; see the determinism contract
/// above).
[[nodiscard]] BatchResult run_batch(const BatchOptions& options,
                                    const TrialFn& fn);

/// A declarative experiment scenario: the standard shape of the repo's
/// quantitative experiments (stabilization sweeps, failure-locality
/// windows, malicious-recovery curves) as one config, runnable as a trial.
struct ScenarioOptions {
  /// graph::make_named family.
  std::string topology = "ring";
  graph::NodeId n = 16;
  double gnp_p = 0.1;
  /// Fixed seed for the seeded topology families; unset = resample the
  /// topology per trial from the trial seed.
  std::optional<std::uint64_t> topology_seed;

  std::string daemon = "round-robin";
  /// Cycle threshold (DinersConfig::diameter_override); unset = paper D.
  std::optional<std::uint32_t> diameter_override;
  std::uint64_t fairness_bound = 64;
  sim::ScanMode scan_mode = sim::ScanMode::kIncremental;
  /// Engine implementation driving every trial (flat = core::FlatEngine;
  /// aggregates are bit-identical to the object engine's).
  sim::EngineKind engine_kind = sim::EngineKind::kObject;
  /// Ignored; kept only because perfbench/src/world.cpp still copies it.
  unsigned rebuild_jobs = 1;
  /// Ignored; kept only because perfbench/src/world.cpp still copies it.
  unsigned step_jobs = 1;

  /// Start from a uniformly corrupted state (Theorem 1 experiments).
  bool corrupt = false;
  /// Workload name ("none" or empty = leave needs() alone).
  std::string workload = "saturation";
  /// Scripted crash events, fired by the harness when due.
  std::vector<fault::CrashEvent> crashes;
  /// Additionally crash this many uniformly drawn victims (per trial) at
  /// `random_crash_step` with `random_crash_malice` pre-halt writes.
  std::uint32_t random_crashes = 0;
  std::uint64_t random_crash_step = 0;
  std::uint32_t random_crash_malice = 0;

  /// Steps to run before the convergence phase (reach steady state first,
  /// e.g. for post-crash recovery measurements).
  std::uint64_t warmup_steps = 0;
  /// Convergence-phase budget; 0 checks the start state only (converged
  /// iff it satisfies I, primary 0).
  std::uint64_t max_steps = 500000;
  std::uint64_t check_every = 16;
  /// Starvation window measured after the convergence phase; 0 = none.
  std::uint64_t window_steps = 0;
};

/// Runs one scenario trial. Deterministic given (options, seed); `trial`
/// only labels the trial. Primary metric: steps to I after warmup.
[[nodiscard]] TrialOutput run_scenario_trial(const ScenarioOptions& scenario,
                                             std::uint64_t trial,
                                             std::uint64_t seed);

/// run_batch over run_scenario_trial.
[[nodiscard]] BatchResult run_scenario_batch(const ScenarioOptions& scenario,
                                             const BatchOptions& options);

}  // namespace diners::analysis
