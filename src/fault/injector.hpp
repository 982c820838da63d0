// Fault injection implementing the paper's fault model:
//
//  * transient faults — the whole system state is perturbed arbitrarily
//    (stabilization must recover);
//  * benign crashes — a process silently stops (failure locality must
//    contain the damage);
//  * malicious crashes — a finite number of arbitrary steps, then a silent
//    stop (the combination must be tolerated);
//  * initially dead processes.
//
// All injectors write through DinersSystem's environment mutators and are
// deterministic given the RNG.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/diners_system.hpp"
#include "util/rng.hpp"

namespace diners::fault {

/// Bounds for corrupted values. `depth` corruption draws from
/// [-depth_slack, D + depth_slack] to exercise both illegal-low and
/// beyond-diameter values.
struct CorruptionOptions {
  std::int64_t depth_slack = 8;
  bool corrupt_states = true;
  bool corrupt_depths = true;
  bool corrupt_priorities = true;
  bool corrupt_needs = false;  ///< needs() is environment input, not state
};

/// Transient fault: every variable of every process (and every shared edge
/// variable) is set to a uniformly random value of its domain.
void corrupt_global_state(core::DinersSystem& system, util::Xoshiro256& rng,
                          const CorruptionOptions& options = {});

/// Corrupts only process p's own variables and its incident edge variables.
void corrupt_process_state(core::DinersSystem& system,
                           core::DinersSystem::ProcessId p,
                           util::Xoshiro256& rng,
                           const CorruptionOptions& options = {});

/// Malicious crash: p performs `arbitrary_steps` random writes — each to a
/// uniformly chosen variable p can write (its state, its depth, or an
/// incident shared priority variable) — and then crashes silently. With
/// arbitrary_steps == 0 this is exactly a benign crash.
void malicious_crash(core::DinersSystem& system,
                     core::DinersSystem::ProcessId p,
                     std::uint32_t arbitrary_steps, util::Xoshiro256& rng,
                     const CorruptionOptions& options = {});

/// Exhaustive counterpart of malicious_crash(), for the model checker: the
/// set of states a malicious crash of `victim` can leave behind is exactly
/// {every assignment of the victim's own writable variables} — its state
/// (3 values), its depth (depth_min..depth_max inclusive), and each incident
/// shared priority edge (2 endpoints) — after which the victim is dead.
/// Returns the number of such assignments.
[[nodiscard]] std::uint64_t num_crash_assignments(
    const core::DinersSystem& system, core::DinersSystem::ProcessId victim,
    std::int64_t depth_min, std::int64_t depth_max);

/// Writes assignment `index` (in [0, num_crash_assignments)) into the
/// victim's variables. Does NOT crash the victim: the caller decides when
/// (the verifier crashes once per crashed-system exploration). Throws
/// std::out_of_range on a bad index.
void apply_crash_assignment(core::DinersSystem& system,
                            core::DinersSystem::ProcessId victim,
                            std::uint64_t index, std::int64_t depth_min,
                            std::int64_t depth_max);

/// One scheduled fault event of a run.
struct CrashEvent {
  std::uint64_t at_step = 0;  ///< engine step count at which to fire
  core::DinersSystem::ProcessId process = graph::kNoNode;
  std::uint32_t malicious_steps = 0;  ///< 0 = benign crash
};

/// Parses one "STEP:VICTIM[:MALICE]" crash spec (the diners_sim --crash
/// grammar). Every field must be a plain non-negative decimal integer;
/// anything else throws std::invalid_argument with a message naming the
/// offending token.
[[nodiscard]] CrashEvent parse_crash_event(const std::string& spec);

/// Parses a comma-separated list of crash specs. Empty tokens (and an empty
/// list) are ignored; malformed tokens throw std::invalid_argument.
[[nodiscard]] std::vector<CrashEvent> parse_crash_list(const std::string& csv);

/// A deterministic schedule of crash events, sorted by at_step.
class CrashPlan {
 public:
  CrashPlan() = default;
  explicit CrashPlan(std::vector<CrashEvent> events);

  /// Picks `count` distinct victims uniformly at random, crashing each at
  /// `at_step` with the given malicious step budget.
  static CrashPlan random(std::uint32_t num_processes, std::uint32_t count,
                          std::uint64_t at_step, std::uint32_t malicious_steps,
                          util::Xoshiro256& rng);

  /// Picks victims pairwise at graph distance > `min_separation`, so their
  /// failure-locality balls do not merge. Useful for clean locality
  /// measurements.
  ///
  /// When the graph cannot host `count` victims at that separation the plan
  /// holds *fewer* events: by default this is best-effort and the caller
  /// must read the achieved count back via size()/victims() (experiments
  /// that report "k crashes" without doing so under-report the injection).
  /// With `require_exact` the shortfall throws std::runtime_error instead,
  /// naming both counts.
  static CrashPlan spread(const graph::Graph& g, std::uint32_t count,
                          std::uint64_t at_step, std::uint32_t malicious_steps,
                          std::uint32_t min_separation, util::Xoshiro256& rng,
                          bool require_exact = false);

  [[nodiscard]] const std::vector<CrashEvent>& events() const noexcept {
    return events_;
  }

  /// Number of crash events actually planned — the real victim count, which
  /// for spread() may be smaller than the count requested.
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Fires every event with at_step <= now that has not fired yet. Firing
  /// is idempotent per round: an event whose victim is already dead is
  /// consumed without re-injecting (a dead process performs no writes), so
  /// a plan reset() and replayed against a system where some victims never
  /// restarted does not corrupt their neighborhoods twice. Returns the
  /// number of events that actually injected a crash.
  std::size_t apply_due(core::DinersSystem& system, std::uint64_t now,
                        util::Xoshiro256& rng,
                        const CorruptionOptions& options = {});

  /// True iff some event has at_step <= now and has not fired yet, i.e.
  /// apply_due(..., now, ...) would consume one. Inline, so a per-step
  /// caller pays one comparison when nothing is due.
  [[nodiscard]] bool due(std::uint64_t now) const noexcept {
    return next_ < events_.size() && events_[next_].at_step <= now;
  }

  [[nodiscard]] bool exhausted() const noexcept {
    return next_ >= events_.size();
  }

  /// Re-arms the plan: every event becomes due again at its original
  /// at_step. Campaigns reuse one plan template across fault/recovery
  /// rounds (restart the victims, reset the plan, replay it) instead of
  /// rebuilding the schedule each round.
  void reset() noexcept { next_ = 0; }

  /// All victim process ids in the plan.
  [[nodiscard]] std::vector<core::DinersSystem::ProcessId> victims() const;

 private:
  std::vector<CrashEvent> events_;
  std::size_t next_ = 0;
};

}  // namespace diners::fault
