// The paper's computation model: a program is a set of processes joined by a
// neighbor relation; each process has guarded actions; a computation is a
// maximal weakly-fair sequence of single-action steps.
//
// `Program` is the interface the simulation engine executes. Concrete
// programs (the paper's algorithm, the baselines) implement it.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace diners::sim {

using ProcessId = graph::NodeId;
using ActionIndex = std::uint32_t;

/// One executed step of a computation.
struct StepRecord {
  std::uint64_t step = 0;  ///< 0-based position in the computation
  ProcessId process = graph::kNoNode;
  ActionIndex action = 0;
  std::string_view action_name;  ///< static-lifetime name from the program
};

/// A distributed guarded-command program over a fixed topology.
///
/// The engine evaluates `enabled` over all (process, action) pairs of live
/// processes and executes exactly one enabled action per step (the paper's
/// serial central-daemon model with composite atomicity: a command may read
/// neighbor variables and write local ones in one indivisible step).
class Program {
 public:
  virtual ~Program() = default;

  [[nodiscard]] virtual const graph::Graph& topology() const = 0;

  /// Number of actions of process `p` (constant per program).
  [[nodiscard]] virtual ActionIndex num_actions(ProcessId p) const = 0;

  /// Static-lifetime human-readable action name.
  [[nodiscard]] virtual std::string_view action_name(ProcessId p,
                                                     ActionIndex a) const = 0;

  /// Guard evaluation. Must be side-effect free.
  [[nodiscard]] virtual bool enabled(ProcessId p, ActionIndex a) const = 0;

  /// Executes the command of action `a` of process `p`.
  /// Precondition: enabled(p, a).
  virtual void execute(ProcessId p, ActionIndex a) = 0;

  /// False once the process has crashed; the engine never schedules actions
  /// of dead processes (the paper's implicit crash action).
  [[nodiscard]] virtual bool alive(ProcessId p) const = 0;

  /// Locality hook for the incremental engine. After `execute(p, a)` the
  /// engine must re-evaluate every guard whose value may have changed.
  ///
  /// An override appends to `out` the ids of every process *other than p*
  /// whose guards (or liveness) may have been affected by executing (p, a) —
  /// the engine always re-evaluates p itself — and returns true. The engine
  /// calls it after execute(p, a), so it reads the post-step state, and the
  /// set may depend on the action: a precise set names only the processes
  /// whose guards read a variable (p, a) wrote (DinersSystem's does). The set
  /// must be a *sound over-approximation*: listing too many processes only
  /// costs time; omitting one whose guard changed makes the engine's cached
  /// enabled-set stale and the schedule wrong. Duplicates are harmless.
  ///
  /// The default returns false, meaning "unknown — re-evaluate everything",
  /// which is always sound and reproduces the classic full-scan engine.
  ///
  /// Note: this covers only the program's own action effects. External
  /// mutation (fault injection, harness writes) must be announced to the
  /// engine via Engine::invalidate_all() or Engine::reset_ages().
  [[nodiscard]] virtual bool affected(ProcessId p, ActionIndex a,
                                      std::vector<ProcessId>& out) const {
    (void)p;
    (void)a;
    (void)out;
    return false;
  }
};

}  // namespace diners::sim
