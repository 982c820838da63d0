#include "analysis/harness.hpp"

#include <algorithm>

#include "core/flat_engine.hpp"
#include "graph/algorithms.hpp"
#include "runtime/daemon.hpp"

namespace diners::analysis {

using core::DinersSystem;
using ProcessId = DinersSystem::ProcessId;

ExperimentHarness::ExperimentHarness(DinersSystem& system,
                                     std::unique_ptr<fault::Workload> workload,
                                     fault::CrashPlan plan,
                                     HarnessOptions options)
    : system_(system),
      workload_(std::move(workload)),
      plan_(std::move(plan)),
      options_(std::move(options)),
      rng_(util::derive_seed(options_.seed, /*stream=*/0xfau)) {
  // Both engines receive the same daemon seed stream, so the flat engine's
  // native random daemon consumes the identical Xoshiro sequence.
  const std::uint64_t daemon_seed = util::derive_seed(options_.seed, 1);
  if (options_.engine_kind == sim::EngineKind::kFlat) {
    engine_ = std::make_unique<core::FlatEngine>(
        system_, options_.daemon, daemon_seed, options_.fairness_bound);
  } else {
    engine_ = std::make_unique<sim::Engine>(
        system_, sim::make_daemon(options_.daemon, daemon_seed),
        options_.fairness_bound, options_.scan_mode);
  }
  if (workload_) workload_->prime(system_);
}

sim::RunResult ExperimentHarness::run(std::uint64_t max_steps) {
  std::uint64_t executed = 0;
  while (executed < max_steps) {
    if (plan_.due(engine_->steps()) &&
        plan_.apply_due(system_, engine_->steps(), rng_,
                        options_.corruption) > 0) {
      // Injected writes invalidate continuous-enabledness ages.
      engine_->reset_ages();
    }
    if (!engine_->step()) {
      return sim::RunResult{sim::RunOutcome::kTerminated, executed};
    }
    ++executed;
    if (workload_ && workload_->tick(system_, engine_->steps())) {
      // Appetite writes are external mutation: the incremental engine must
      // re-evaluate guards (ages of still-enabled actions are preserved).
      engine_->invalidate_all();
    }
  }
  return sim::RunResult{sim::RunOutcome::kStepLimit, executed};
}

namespace {

// Shared body: snapshot meals/appetite, run the window, classify starvation.
template <typename RunFn>
StarvationReport measure_starvation_impl(core::PhilosopherProgram& program,
                                         RunFn&& run_window) {
  const auto n = program.topology().num_nodes();

  std::vector<std::uint64_t> before(n);
  for (ProcessId p = 0; p < n; ++p) before[p] = program.meals(p);
  const std::uint64_t meals_before = program.total_meals();

  // Processes must want to eat for the whole window to count as starved;
  // sample appetite before and after (workloads that toggle appetite make
  // "starved" ill-defined, so callers use saturation workloads here).
  std::vector<bool> wanted(n);
  for (ProcessId p = 0; p < n; ++p) wanted[p] = program.needs(p);

  run_window();

  StarvationReport report;
  report.meals_in_window = program.total_meals() - meals_before;
  for (ProcessId p = 0; p < n; ++p) {
    if (!program.alive(p)) continue;
    if (!wanted[p] || !program.needs(p)) continue;
    if (program.meals(p) == before[p]) report.starved.push_back(p);
  }
  if (report.starved.empty()) return report;

  const auto dead = program.dead_processes();
  if (dead.empty()) {
    report.locality_radius = graph::kUnreachable;
    return report;
  }
  const auto dist = graph::distances_to_set(
      program.topology(), std::span<const graph::NodeId>(dead));
  for (ProcessId p : report.starved) {
    report.locality_radius = std::max(report.locality_radius, dist[p]);
  }
  return report;
}

}  // namespace

StarvationReport measure_starvation(ExperimentHarness& harness,
                                    std::uint64_t window_steps) {
  return measure_starvation_impl(harness.system(), [&] {
    harness.run(window_steps);
  });
}

StarvationReport measure_starvation(core::PhilosopherProgram& program,
                                    sim::EngineBase& engine,
                                    std::uint64_t window_steps) {
  return measure_starvation_impl(program, [&] { engine.run(window_steps); });
}

}  // namespace diners::analysis
