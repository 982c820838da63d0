#include "world.hpp"

#include <algorithm>
#include <utility>

#include "analysis/invariants.hpp"
#include "fault/injector.hpp"
#include "fault/workload.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// The derive_seed sub-streams of analysis::run_scenario_trial.
constexpr std::uint64_t kTopologyStream = 0x10;
constexpr std::uint64_t kCorruptStream = 0x11;
constexpr std::uint64_t kWorkloadStream = 0x13;
constexpr std::uint64_t kHarnessStream = 0x14;

}  // namespace

World build_world(const diners::analysis::ScenarioOptions& scenario,
                  std::uint64_t trial_seed, Tracer* tracer) {
  using diners::util::derive_seed;
  World w;
  diners::graph::Graph g = [&] {
    ScopedSpan s(tracer, "graph.make_named");
    return diners::graph::make_named(
        scenario.topology, scenario.n,
        scenario.topology_seed ? *scenario.topology_seed
                               : derive_seed(trial_seed, kTopologyStream),
        scenario.gnp_p);
  }();
  {
    ScopedSpan s(tracer, "core.system_init");
    diners::core::DinersConfig config;
    config.diameter_override = scenario.diameter_override;
    w.system =
        std::make_unique<diners::core::DinersSystem>(std::move(g), config);
  }
  if (scenario.corrupt) {
    ScopedSpan s(tracer, "fault.corrupt");
    diners::util::Xoshiro256 rng(derive_seed(trial_seed, kCorruptStream));
    diners::fault::corrupt_global_state(*w.system, rng);
  }
  {
    ScopedSpan s(tracer, "core.engine_build");
    std::unique_ptr<diners::fault::Workload> workload;
    if (!scenario.workload.empty() && scenario.workload != "none") {
      workload = diners::fault::make_workload(
          scenario.workload, derive_seed(trial_seed, kWorkloadStream));
    }
    diners::analysis::HarnessOptions ho;
    ho.daemon = scenario.daemon;
    ho.fairness_bound = scenario.fairness_bound;
    ho.seed = derive_seed(trial_seed, kHarnessStream);
    ho.scan_mode = scenario.scan_mode;
    ho.engine_kind = scenario.engine_kind;
    ho.rebuild_jobs = scenario.rebuild_jobs;
    ho.step_jobs = scenario.step_jobs;
    w.harness = std::make_unique<diners::analysis::ExperimentHarness>(
        *w.system, std::move(workload),
        diners::fault::CrashPlan(scenario.crashes), ho);
    (void)w.harness->engine().enabled_count();
  }
  return w;
}

Convergence converge_to_invariant(World& world, std::uint64_t max_steps,
                                  std::uint64_t check_every, Tracer* tracer,
                                  std::vector<double>* interval_ms) {
  Convergence c;
  const auto holds = [&] {
    ScopedSpan s(tracer, "analysis.invariant");
    ++c.checks;
    return diners::analysis::holds_invariant(*world.system);
  };
  c.reached = holds();
  while (!c.reached && c.steps < max_steps) {
    const auto t0 = Clock::now();
    diners::sim::RunResult r;
    {
      ScopedSpan s(tracer, "analysis.harness_run");
      r = world.harness->run(std::min(check_every, max_steps - c.steps));
    }
    c.steps += r.steps_executed;
    c.reached = holds();
    if (interval_ms != nullptr) {
      interval_ms->push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count());
    }
    if (r.outcome == diners::sim::RunOutcome::kTerminated) break;
  }
  return c;
}

}  // namespace perfbench
