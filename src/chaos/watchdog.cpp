#include "chaos/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/harness.hpp"
#include "analysis/invariants.hpp"
#include "analysis/monitors.hpp"
#include "graph/algorithms.hpp"

namespace diners::chaos {

namespace {

/// True if some live process sits strictly outside every `bound`-ball of
/// the dead set (with no dead processes, every live process qualifies:
/// distances_to_set of an empty set is kUnreachable everywhere).
template <typename System>
bool far_live_exists(const System& system, std::uint32_t bound) {
  const auto n = system.topology().num_nodes();
  std::vector<graph::NodeId> dead;
  for (graph::NodeId p = 0; p < n; ++p) {
    if (!system.alive(p)) dead.push_back(p);
  }
  const auto dist = graph::distances_to_set(system.topology(), dead);
  for (graph::NodeId p = 0; p < n; ++p) {
    if (system.alive(p) && dist[p] > bound) return true;
  }
  return false;
}

}  // namespace

WatchdogVerdict await_invariant(core::DinersSystem& system,
                                sim::Engine& engine,
                                const WatchdogOptions& options) {
  WatchdogVerdict verdict;
  const auto steps = analysis::steps_until_invariant(
      system, engine, options.budget_steps, options.check_every);
  if (!steps) {
    std::ostringstream os;
    os << "invariant I not re-established within "
       << options.budget_steps << " steps";
    verdict.failure = os.str();
    return verdict;
  }
  verdict.converged = true;
  verdict.steps_to_converge = *steps;
  if (options.progress_window == 0) return verdict;

  // Progress / locality oracle: under saturation appetite, a live process
  // that starts no meal over the whole window starved; Theorem 2 confines
  // starvation to the locality ball of the dead set.
  const auto report =
      analysis::measure_starvation(system, engine, options.progress_window);
  if (report.locality_radius > options.locality_bound) {
    std::ostringstream os;
    os << report.starved.size() << " process(es) starved through a "
       << options.progress_window << "-step window at distance ";
    if (report.locality_radius == graph::kUnreachable) {
      os << "infinity (no crashed process present)";
    } else {
      os << report.locality_radius;
    }
    os << " from the dead set (locality bound " << options.locality_bound
       << "); first starved: " << report.starved.front();
    verdict.failure = os.str();
  }
  return verdict;
}

WatchdogVerdict await_quiescence(msgpass::MessagePassingDiners& system,
                                 const WatchdogOptions& options) {
  WatchdogVerdict verdict;
  const bool require_progress =
      far_live_exists(system, options.locality_bound);
  const std::uint64_t meals_before = system.total_meals();
  const std::uint64_t period = std::max<std::uint64_t>(1, options.check_every);
  std::uint64_t executed = 0;
  while (executed < options.budget_steps) {
    const std::uint64_t burst =
        std::min<std::uint64_t>(period, options.budget_steps - executed);
    system.run(burst);
    executed += burst;
    const bool safe = system.eating_violations() == 0;
    const bool progressed =
        !require_progress || system.total_meals() > meals_before;
    if (safe && progressed) {
      verdict.converged = true;
      verdict.steps_to_converge = executed;
      return verdict;
    }
  }
  std::ostringstream os;
  os << "quiescent window exhausted after " << options.budget_steps
     << " steps: ";
  if (system.eating_violations() != 0) {
    os << system.eating_violations() << " live eating-overlap edge(s)";
  } else {
    os << "no meal progress from any live process outside the "
       << options.locality_bound << "-ball of the dead set";
  }
  verdict.failure = os.str();
  return verdict;
}

WatchdogVerdict await_threaded(threads::ThreadedDiners& system,
                               const WatchdogOptions& options,
                               std::uint32_t poll_sleep_us) {
  WatchdogVerdict verdict;
  const std::uint64_t polls = std::max<std::uint64_t>(
      1, options.budget_steps / std::max<std::uint64_t>(1,
                                                        options.check_every));
  const auto sleep = std::chrono::microseconds(poll_sleep_us);
  std::uint64_t meals_at_convergence = 0;
  bool require_progress = false;
  std::uint64_t used = 0;
  core::SystemSnapshot last_snapshot;
  for (; used < polls; ++used) {
    const core::DinersSystem snap = system.snapshot();
    if (analysis::holds_invariant(snap)) {
      verdict.converged = true;
      verdict.steps_to_converge = used;
      meals_at_convergence = system.total_meals();
      require_progress = far_live_exists(snap, options.locality_bound);
      break;
    }
    last_snapshot = core::capture(snap);
    std::this_thread::sleep_for(sleep);
  }
  if (!verdict.converged) {
    std::ostringstream os;
    os << "invariant I not observed in " << polls << " snapshot polls";
    verdict.failure = os.str();
    verdict.failing_snapshot = std::move(last_snapshot);
    return verdict;
  }
  if (!require_progress) return verdict;
  // Some live philosopher thread runs outside the dead set's locality
  // ball; it must keep eating now that I holds.
  for (std::uint64_t i = 0; i < polls; ++i) {
    if (system.total_meals() > meals_at_convergence) return verdict;
    std::this_thread::sleep_for(sleep);
  }
  std::ostringstream os;
  os << "no meal progress in " << polls
     << " polls despite live processes outside the "
     << options.locality_bound << "-ball of the dead set";
  verdict.failure = os.str();
  return verdict;
}

}  // namespace diners::chaos
