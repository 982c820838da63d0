// Deliberately broken guards, for validating that the model checker finds
// and reports real counterexamples. A MutatedDiners is a sim::Program view
// of a DinersSystem with one guard altered; the underlying system's own
// guards are untouched, so traces found under a mutation can be replayed
// against the genuine program (kNoFixdepth only *removes* transitions, so
// its counterexamples replay cleanly; kGreedyEnter *adds* transitions, and
// replay pinpoints the first step the real program rejects).
#pragma once

#include <string>
#include <string_view>

#include "core/diners_system.hpp"
#include "runtime/program.hpp"

namespace diners::verify {

enum class GuardMutation {
  kNone,        ///< faithful Figure 1 semantics
  kNoFixdepth,  ///< fixdepth never fires: priority cycles are never broken
  kGreedyEnter, ///< enter ignores the no-eating-descendant conjunct
};

/// Parses "none" | "no-fixdepth" | "greedy-enter"; throws
/// std::invalid_argument otherwise.
[[nodiscard]] GuardMutation parse_guard_mutation(const std::string& text);

[[nodiscard]] std::string_view to_string(GuardMutation m) noexcept;

class MutatedDiners final : public sim::Program {
 public:
  /// Borrows `system`; with kNone this is a transparent view.
  MutatedDiners(core::DinersSystem& system, GuardMutation mutation)
      : system_(system), mutation_(mutation) {}

  const graph::Graph& topology() const override { return system_.topology(); }
  sim::ActionIndex num_actions(sim::ProcessId p) const override {
    return system_.num_actions(p);
  }
  std::string_view action_name(sim::ProcessId p,
                               sim::ActionIndex a) const override {
    return system_.action_name(p, a);
  }
  bool enabled(sim::ProcessId p, sim::ActionIndex a) const override;
  void execute(sim::ProcessId p, sim::ActionIndex a) override;
  bool alive(sim::ProcessId p) const override { return system_.alive(p); }
  // The genuine footprint stays sound here: both mutations only drop a
  // guard (fixdepth) or a conjunct (enter's no-eating-descendant test), so
  // every mutated guard reads a subset of the genuine guard's variables,
  // and execute() writes what the genuine action writes. Enter's empty
  // footprint holds under kGreedyEnter too: its enter still needs every
  // direct ancestor thinking, and no longer reads "a descendant eats".
  bool affected(sim::ProcessId p, sim::ActionIndex a,
                std::vector<sim::ProcessId>& out) const override {
    return system_.affected(p, a, out);
  }

  [[nodiscard]] core::DinersSystem& system() noexcept { return system_; }
  [[nodiscard]] GuardMutation mutation() const noexcept { return mutation_; }

 private:
  core::DinersSystem& system_;
  GuardMutation mutation_;
};

}  // namespace diners::verify
