// One simulated trial's world, built layer by layer from public calls.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/batch_runner.hpp"
#include "analysis/harness.hpp"
#include "core/diners_system.hpp"
#include "trace.hpp"

namespace perfbench {

struct World {
  std::unique_ptr<diners::core::DinersSystem> system;
  std::unique_ptr<diners::analysis::ExperimentHarness> harness;
};

/// Builds the world analysis::run_scenario_trial builds for (`scenario`,
/// `trial_seed`) — same topology, corruption, crash plan, workload and
/// engine, from the same derive_seed streams — with one span per layer:
/// graph.make_named, core.system_init, fault.corrupt, core.engine_build.
/// The last covers the harness (engine construction, workload priming)
/// plus the first full enabled-set rebuild, forced by enabled_count().
/// Supports the scenario fields the benchmark uses: no random crashes, no
/// warm-up.
[[nodiscard]] World build_world(
    const diners::analysis::ScenarioOptions& scenario,
    std::uint64_t trial_seed, Tracer* tracer);

struct Convergence {
  bool reached = false;
  std::uint64_t steps = 0;
  std::uint64_t checks = 0;
};

/// analysis::steps_until_invariant(harness, max_steps, check_every),
/// unrolled so that each harness.run burst (span analysis.harness_run) and
/// each holds_invariant call (span analysis.invariant) is timed on its own.
/// When `interval_ms` is non-null it receives the wall time of every burst
/// together with the check that follows it.
[[nodiscard]] Convergence converge_to_invariant(
    World& world, std::uint64_t max_steps, std::uint64_t check_every,
    Tracer* tracer, std::vector<double>* interval_ms = nullptr);

}  // namespace perfbench
