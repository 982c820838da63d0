// The simulation engine: executes a Program under a Daemon, one action per
// step, with enforced weak fairness — the paper's computation model.
//
// The engine maintains the set of enabled (process, action) pairs
// incrementally: executing an action at process p re-evaluates only p and
// the guards Program::affected() reports as possibly changed (for the
// paper's algorithm, the neighbours that read what the action wrote: all
// of them after exit, p's direct descendants after join/leave, its direct
// ancestors after fixdepth, none after enter), so a step costs at most
// O(deg(p) · actions) guard evaluations instead of the classic
// O(n · actions) full scan. Programs that do not override affected() fall
// back to the full scan and behave exactly as before.
//
// The candidate list handed to the daemon is maintained incrementally as
// well: because EnabledAction stores the enabled-since *stamp* (not the
// age), an entry is constant while its action stays enabled, so the sorted
// vector only changes where enabledness changed — no per-step rebuild. The
// forced-fairness "oldest candidate" is cached and recomputed only when the
// previous holder leaves the set or is re-stamped.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/daemon.hpp"
#include "runtime/program.hpp"

namespace diners::sim {

/// Why a run() loop returned.
enum class RunOutcome {
  kPredicateSatisfied,  ///< the stop predicate became true
  kTerminated,          ///< no action enabled (maximal finite computation)
  kStepLimit,           ///< max_steps executed without either of the above
};

struct RunResult {
  RunOutcome outcome;
  std::uint64_t steps_executed;
};

/// How the engine keeps its enabled-set current between steps.
enum class ScanMode {
  /// Dirty-region updates driven by Program::affected() (the default).
  kIncremental,
  /// Re-evaluate every guard before every step — the classic engine.
  /// Semantically identical to kIncremental whenever affected() is sound;
  /// kept as the differential-testing and debugging reference.
  kFullScan,
};

/// Which engine implementation runs a scenario. The object engine executes
/// any sim::Program through the virtual interface; the flat engine
/// (core::FlatEngine) is the structure-of-arrays substrate specialized to
/// the paper's algorithm, byte-identical in its step traces.
enum class EngineKind {
  kObject,
  kFlat,
};

/// The common surface every step engine exposes: stepping, the shared
/// run() loop, observers, and the external-mutation contract. Harnesses,
/// monitors, and batch runners drive this interface so the object-model
/// Engine and the flat substrate are interchangeable.
class EngineBase {
 public:
  virtual ~EngineBase() = default;

  /// Executes one step. Returns the step record, or nullopt if no action of
  /// any live process is enabled (the computation has terminated).
  virtual std::optional<StepRecord> step() = 0;

  /// Runs until `stop` returns true (checked before each step), the program
  /// terminates, or `max_steps` further steps have executed.
  RunResult run(std::uint64_t max_steps, const std::function<bool()>& stop = {});

  /// Registers an observer invoked after every executed step.
  void add_observer(std::function<void(const StepRecord&)> observer);

  /// Steps executed since construction.
  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

  /// Of those, the steps the fairness bound chose (the oldest enabled
  /// action had waited `fairness_bound` steps) rather than the daemon.
  [[nodiscard]] std::uint64_t forced_steps() const noexcept {
    return forced_steps_;
  }

  /// Number of currently enabled actions of live processes — O(1) off the
  /// maintained enabled-set. Reflects external mutation only after
  /// invalidate_all()/reset_ages(), like the rest of the engine.
  [[nodiscard]] virtual std::size_t enabled_count() const = 0;

  /// Announces external mutation of program state (fault injection, crash,
  /// harness writes): every guard is re-evaluated before the next step.
  /// Fairness ages of actions that remain enabled are preserved.
  virtual void invalidate_all() = 0;

  /// invalidate_all() plus a reset of all fairness ages (use after fault
  /// injection, so stale ages do not force spurious executions).
  virtual void reset_ages() = 0;

 protected:
  std::uint64_t steps_ = 0;
  std::uint64_t forced_steps_ = 0;
  std::vector<std::function<void(const StepRecord&)>> observers_;
};

class Engine final : public EngineBase {
 public:
  /// The engine borrows the program; the daemon is owned. `fairness_bound`:
  /// an action continuously enabled for this many steps is forcibly
  /// executed, guaranteeing weak fairness under any daemon. It must be > 0.
  Engine(Program& program, std::unique_ptr<Daemon> daemon,
         std::uint64_t fairness_bound = 4096,
         ScanMode mode = ScanMode::kIncremental);

  std::optional<StepRecord> step() override;
  [[nodiscard]] std::size_t enabled_count() const override;
  void invalidate_all() override;
  void reset_ages() override;

  [[nodiscard]] Daemon& daemon() noexcept { return *daemon_; }
  [[nodiscard]] ScanMode scan_mode() const noexcept { return mode_; }

 private:
  /// Flattened (process, action) index; ascending slot order is exactly the
  /// (process, action)-ascending candidate order the daemons rely on.
  using Slot = std::uint32_t;

  [[nodiscard]] Slot slot_of(ProcessId p, ActionIndex a) const {
    return static_cast<Slot>(offset_[p] + a);
  }

  /// Applies any pending rebuild/dirty refresh so the enabled-set matches
  /// the program state. Called before reading the set.
  void ensure_fresh() const;
  /// Recomputes enabledness of every slot. keep_ages preserves the
  /// enabled-since stamp of slots that stay enabled.
  void rebuild(bool keep_ages) const;
  /// Recomputes enabledness of every action of `p`.
  void refresh_process(ProcessId p) const;

  /// Index of `s`'s entry in candidates_ (present or insertion point).
  [[nodiscard]] std::size_t candidate_pos(Slot s) const;
  /// Index of the forced-fairness candidate: smallest enabled_since stamp,
  /// ties to the lowest slot. Recomputes the cached holder if invalidated.
  /// Precondition: candidates_ non-empty.
  [[nodiscard]] std::size_t oldest_candidate() const;

  enum class Refresh : std::uint8_t { kNone, kKeepAges, kZeroAges };

  Program& program_;
  std::unique_ptr<Daemon> daemon_;
  std::uint64_t fairness_bound_;
  ScanMode mode_;

  std::vector<std::size_t> offset_;     ///< per-process slot base; size n+1
  std::vector<ProcessId> slot_owner_;   ///< slot -> process

  // Enabled-set state (mutable: refreshed lazily from const readers).
  mutable std::vector<std::uint8_t> enabled_bit_;  ///< per slot
  /// enabled_since_[s]: step count at which slot s last became continuously
  /// enabled without executing; age = steps_ - enabled_since_[s].
  mutable std::vector<std::uint64_t> enabled_since_;
  /// The daemon's candidate list, ascending in slot (= (process, action))
  /// order, each entry mirroring enabled_since_ of its slot. Maintained
  /// incrementally — this is the enabled-set representation.
  mutable std::vector<EnabledAction> candidates_;
  mutable std::vector<ProcessId> dirty_;     ///< processes to re-evaluate
  mutable Refresh pending_ = Refresh::kZeroAges;  ///< initial build pending

  /// Cached forced-fairness candidate (slot id); kNoOldest = recompute.
  static constexpr Slot kNoOldest = std::numeric_limits<Slot>::max();
  mutable Slot oldest_slot_ = kNoOldest;

  std::vector<ProcessId> affected_scratch_;
};

}  // namespace diners::sim
