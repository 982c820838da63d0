#include "analysis/monitors.hpp"

#include <algorithm>
#include <string_view>

#include "analysis/invariants.hpp"

namespace diners::analysis {

using core::DinerState;
using core::DinersSystem;

SafetyMonitor::SafetyMonitor(const DinersSystem& system, sim::EngineBase& engine)
    : system_(system),
      last_(eating_violation_count(system)),
      max_(last_) {
  engine.add_observer([this](const sim::StepRecord&) {
    const std::size_t now = eating_violation_count(system_);
    if (now > last_) increased_ = true;
    max_ = std::max(max_, now);
    last_ = now;
  });
}

void SafetyMonitor::rebaseline() {
  last_ = eating_violation_count(system_);
  max_ = std::max(max_, last_);
}

MealLatencyMonitor::MealLatencyMonitor(const core::PhilosopherProgram& program,
                                       sim::EngineBase& engine)
    : hungry_since_(program.topology().num_nodes(),
                    static_cast<std::uint64_t>(-1)) {
  // Every PhilosopherProgram gives join, enter, leave and exit one index at
  // every process, so process 0's names resolve them once; an action the
  // program lacks keeps an index no step carries.
  constexpr auto kNone = static_cast<sim::ActionIndex>(-1);
  sim::ActionIndex join_action = kNone, enter_action = kNone;
  sim::ActionIndex leave_action = kNone, exit_action = kNone;
  const sim::ActionIndex actions =
      program.topology().num_nodes() > 0 ? program.num_actions(0) : 0;
  for (sim::ActionIndex a = 0; a < actions; ++a) {
    const std::string_view name = program.action_name(0, a);
    if (name == "join") join_action = a;
    if (name == "enter") enter_action = a;
    if (name == "leave") leave_action = a;
    if (name == "exit") exit_action = a;
  }
  engine.add_observer([this, join_action, enter_action, leave_action,
                       exit_action](const sim::StepRecord& record) {
    const auto p = record.process;
    if (record.action == join_action) {
      hungry_since_[p] = record.step;
    } else if (record.action == enter_action) {
      if (hungry_since_[p] != static_cast<std::uint64_t>(-1)) {
        latencies_.push_back(
            static_cast<double>(record.step - hungry_since_[p]));
        hungry_since_[p] = static_cast<std::uint64_t>(-1);
      }
    } else if (record.action == leave_action ||
               record.action == exit_action) {
      // Yielding (dynamic threshold) or a spurious exit abandons the wait;
      // the interrupted wait does not produce a latency sample.
      hungry_since_[p] = static_cast<std::uint64_t>(-1);
    }
  });
}

std::optional<std::uint64_t> steps_until_invariant(DinersSystem& system,
                                                   sim::EngineBase& engine,
                                                   std::uint64_t max_steps,
                                                   std::uint64_t check_every) {
  if (check_every == 0) check_every = 1;
  if (holds_invariant(system)) return 0;
  std::uint64_t executed = 0;
  while (executed < max_steps) {
    const std::uint64_t burst =
        std::min<std::uint64_t>(check_every, max_steps - executed);
    std::uint64_t done = 0;
    while (done < burst && engine.step()) ++done;
    executed += done;
    if (holds_invariant(system)) return executed;
    if (done < burst) return std::nullopt;  // terminated without converging
  }
  return std::nullopt;
}

std::optional<std::uint64_t> steps_until_invariant(ExperimentHarness& harness,
                                                   std::uint64_t max_steps,
                                                   std::uint64_t check_every) {
  if (check_every == 0) check_every = 1;
  if (holds_invariant(harness.system())) return 0;
  std::uint64_t executed = 0;
  while (executed < max_steps) {
    const std::uint64_t burst =
        std::min<std::uint64_t>(check_every, max_steps - executed);
    const auto result = harness.run(burst);
    executed += result.steps_executed;
    if (holds_invariant(harness.system())) return executed;
    if (result.outcome == sim::RunOutcome::kTerminated) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace diners::analysis
