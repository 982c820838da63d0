#include "runtime/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace diners::sim {

RunResult EngineBase::run(std::uint64_t max_steps,
                          const std::function<bool()>& stop) {
  std::uint64_t executed = 0;
  while (executed < max_steps) {
    if (stop && stop()) return RunResult{RunOutcome::kPredicateSatisfied, executed};
    if (!step()) return RunResult{RunOutcome::kTerminated, executed};
    ++executed;
  }
  if (stop && stop()) return RunResult{RunOutcome::kPredicateSatisfied, executed};
  return RunResult{RunOutcome::kStepLimit, executed};
}

void EngineBase::add_observer(std::function<void(const StepRecord&)> observer) {
  observers_.push_back(std::move(observer));
}

Engine::Engine(Program& program, std::unique_ptr<Daemon> daemon,
               std::uint64_t fairness_bound, ScanMode mode)
    : program_(program),
      daemon_(std::move(daemon)),
      fairness_bound_(fairness_bound),
      mode_(mode) {
  if (!daemon_) throw std::invalid_argument("Engine: null daemon");
  if (fairness_bound_ == 0) {
    throw std::invalid_argument("Engine: fairness bound must be positive");
  }
  const auto n = program_.topology().num_nodes();
  offset_.resize(n + 1);
  offset_[0] = 0;
  for (ProcessId p = 0; p < n; ++p) {
    offset_[p + 1] = offset_[p] + program_.num_actions(p);
  }
  const std::size_t slots = offset_[n];
  slot_owner_.resize(slots);
  for (ProcessId p = 0; p < n; ++p) {
    for (std::size_t s = offset_[p]; s < offset_[p + 1]; ++s) {
      slot_owner_[s] = p;
    }
  }
  enabled_bit_.assign(slots, 0);
  enabled_since_.assign(slots, 0);
  candidates_.reserve(slots);
  // The first build is deferred to the first step so that state written
  // between construction and stepping (workload priming, scripted initial
  // states) is observed, exactly like the classic scan-per-step engine.
}

std::size_t Engine::candidate_pos(Slot s) const {
  const ProcessId p = slot_owner_[s];
  const auto key =
      std::make_pair(p, static_cast<ActionIndex>(s - offset_[p]));
  const auto it = std::lower_bound(
      candidates_.begin(), candidates_.end(), key,
      [](const EnabledAction& c, const std::pair<ProcessId, ActionIndex>& k) {
        return std::make_pair(c.process, c.action) < k;
      });
  return static_cast<std::size_t>(it - candidates_.begin());
}

void Engine::rebuild(bool keep_ages) const {
  const auto n = program_.topology().num_nodes();
  candidates_.clear();
  oldest_slot_ = kNoOldest;
  std::uint64_t oldest_since = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const bool alive = program_.alive(p);
    for (Slot s = static_cast<Slot>(offset_[p]);
         s < static_cast<Slot>(offset_[p + 1]); ++s) {
      const auto a = static_cast<ActionIndex>(s - offset_[p]);
      const bool now = alive && program_.enabled(p, a);
      if (now) {
        if (!keep_ages || !enabled_bit_[s]) enabled_since_[s] = steps_;
        enabled_bit_[s] = 1;
        candidates_.push_back(EnabledAction{p, a, enabled_since_[s]});
        // Slot-ascending scan + strict < keeps the first (lowest-slot)
        // holder of the minimum stamp, matching forced-fairness tie-breaks.
        if (oldest_slot_ == kNoOldest || enabled_since_[s] < oldest_since) {
          oldest_slot_ = s;
          oldest_since = enabled_since_[s];
        }
      } else {
        enabled_bit_[s] = 0;
      }
    }
  }
}

void Engine::refresh_process(ProcessId p) const {
  const bool alive = program_.alive(p);
  for (Slot s = static_cast<Slot>(offset_[p]);
       s < static_cast<Slot>(offset_[p + 1]); ++s) {
    const auto a = static_cast<ActionIndex>(s - offset_[p]);
    const bool now = alive && program_.enabled(p, a);
    if (now == (enabled_bit_[s] != 0)) continue;
    const auto pos =
        static_cast<std::ptrdiff_t>(candidate_pos(s));
    if (now) {
      enabled_bit_[s] = 1;
      enabled_since_[s] = steps_;
      candidates_.insert(candidates_.begin() + pos,
                         EnabledAction{p, a, steps_});
      // A fresh stamp equals steps_ >= every existing stamp, so the cached
      // oldest only changes on a tie broken by the lower slot.
      if (oldest_slot_ != kNoOldest &&
          enabled_since_[oldest_slot_] == steps_ && s < oldest_slot_) {
        oldest_slot_ = s;
      }
    } else {
      enabled_bit_[s] = 0;
      candidates_.erase(candidates_.begin() + pos);
      if (oldest_slot_ == s) oldest_slot_ = kNoOldest;
    }
  }
}

void Engine::ensure_fresh() const {
  if (pending_ != Refresh::kNone) {
    rebuild(/*keep_ages=*/pending_ == Refresh::kKeepAges);
    dirty_.clear();
    pending_ = Refresh::kNone;
  } else if (!dirty_.empty()) {
    for (ProcessId q : dirty_) refresh_process(q);
    dirty_.clear();
  }
}

std::size_t Engine::oldest_candidate() const {
  if (oldest_slot_ != kNoOldest) return candidate_pos(oldest_slot_);
  std::size_t best = 0;
  for (std::size_t i = 1; i < candidates_.size(); ++i) {
    if (candidates_[i].enabled_since < candidates_[best].enabled_since) {
      best = i;
    }
  }
  oldest_slot_ = slot_of(candidates_[best].process, candidates_[best].action);
  return best;
}

std::optional<StepRecord> Engine::step() {
  ensure_fresh();
  if (candidates_.empty()) {
    // Never cache termination: external writes may re-enable guards before
    // the next call, and the classic engine re-scanned on every step.
    if (pending_ == Refresh::kNone) pending_ = Refresh::kKeepAges;
    return std::nullopt;
  }

  // Weak fairness: if anything has aged past the bound, force the oldest
  // (lowest (process, action) among the equally old, for stability).
  std::size_t chosen;
  const std::size_t oldest = oldest_candidate();
  if (steps_ - candidates_[oldest].enabled_since >= fairness_bound_) {
    chosen = oldest;
    ++forced_steps_;
  } else {
    chosen = daemon_->choose(candidates_);
    if (chosen >= candidates_.size()) {
      throw std::logic_error("Daemon returned out-of-range choice");
    }
  }

  const EnabledAction picked = candidates_[chosen];
  program_.execute(picked.process, picked.action);

  StepRecord record{steps_, picked.process, picked.action,
                    program_.action_name(picked.process, picked.action)};
  ++steps_;

  // The executed action restarts its continuous-enabledness age whether or
  // not it stays enabled (if it is now disabled the refresh below clears
  // the slot; if re-enabled later the stamp is rewritten anyway).
  const Slot executed = slot_of(picked.process, picked.action);
  enabled_since_[executed] = steps_;
  candidates_[chosen].enabled_since = steps_;
  if (oldest_slot_ == executed) oldest_slot_ = kNoOldest;

  // Schedule the guard re-evaluation the execution necessitates. Deferring
  // it to the next ensure_fresh() keeps guard evaluation at the same point
  // of the step cycle as the classic engine's per-step scan.
  if (mode_ == ScanMode::kIncremental) {
    affected_scratch_.clear();
    if (program_.affected(picked.process, picked.action, affected_scratch_)) {
      dirty_.push_back(picked.process);
      dirty_.insert(dirty_.end(), affected_scratch_.begin(),
                    affected_scratch_.end());
    } else if (pending_ == Refresh::kNone) {
      pending_ = Refresh::kKeepAges;
    }
  } else if (pending_ == Refresh::kNone) {
    pending_ = Refresh::kKeepAges;
  }

  for (const auto& observer : observers_) observer(record);
  return record;
}

std::size_t Engine::enabled_count() const {
  ensure_fresh();
  return candidates_.size();
}

void Engine::invalidate_all() {
  if (pending_ != Refresh::kZeroAges) pending_ = Refresh::kKeepAges;
}

void Engine::reset_ages() { pending_ = Refresh::kZeroAges; }

}  // namespace diners::sim
