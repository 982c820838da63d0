// The paper's contribution: the malicious-crash-tolerant dining-philosophers
// program of Figure 1, implemented as a sim::Program.
//
// Per process p (constant D = system diameter):
//
//   join:     needs(p) ∧ state p = T ∧ (∀ direct ancestor q: state q = T)
//                 → state p := H
//   leave:    state p = H ∧ (∃ direct ancestor q: state q ≠ T)
//                 → state p := T                       [dynamic threshold]
//   enter:    state p = H ∧ (∀ direct ancestor q: state q = T)
//                         ∧ (∀ direct descendant q: state q ≠ E)
//                 → state p := E
//   exit:     state p = E ∨ depth p > D
//                 → state p := T; depth p := 0;
//                   (∀ neighbor q: priority(p,q) := q)  [p yields all edges]
//   fixdepth: ∃ direct descendant q: depth p < depth q + 1
//                 → depth p := depth q + 1             [cycle detection]
//
// Priority convention: the shared edge variable priority(p,q) holds either
// endpoint id; priority(p,q) == q means the edge is directed toward p, i.e.
// q is a *direct ancestor* of p (q has higher priority).
//
// A crashed process executes nothing, but its variables stay readable — a
// crash is undetectable to neighbors, exactly as in the paper.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/philosopher_program.hpp"
#include "core/state.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "runtime/program.hpp"

namespace diners::core {

class DinersSystem final : public PhilosopherProgram {
 public:
  using ProcessId = sim::ProcessId;

  /// Action indices (stable across the library; tests rely on them).
  enum Action : sim::ActionIndex {
    kJoin = 0,
    kLeave = 1,
    kEnter = 2,
    kExit = 3,
    kFixDepth = 4,
    kNumActions = 5,
  };

  /// Builds the system over `g` (connected; throws otherwise) in the
  /// legitimate initial state: everyone thinking, depth 0, needs = true, and
  /// the priority graph oriented by id (lower id = ancestor), which is
  /// acyclic.
  explicit DinersSystem(graph::Graph g, DinersConfig config = {});

  // --- sim::Program interface -------------------------------------------
  const graph::Graph& topology() const override { return graph_; }
  sim::ActionIndex num_actions(ProcessId) const override { return kNumActions; }
  std::string_view action_name(ProcessId p, sim::ActionIndex a) const override;
  bool enabled(ProcessId p, sim::ActionIndex a) const override;
  void execute(ProcessId p, sim::ActionIndex a) override;
  bool alive(ProcessId p) const override { return alive_[p] != 0; }

  /// Action-precise locality for the incremental engines. Every Figure 1
  /// guard of q reads q's own variables, its incident priorities, and of
  /// each neighbour r only "r not thinking" (r a direct ancestor of q),
  /// "r eating" and depth r (r a direct descendant of q). So executing
  /// (p, a) can change the guards of p and of:
  ///   exit        — every neighbour (it rewrites every incident
  ///                 priority);
  ///   join, leave — p's direct descendants (state p moves between T and
  ///                 H, read only through "all ancestors thinking");
  ///   fixdepth    — p's direct ancestors (depth p moves, read through the
  ///                 descendants' max depth);
  ///   enter       — none. Enter needs every direct ancestor thinking, so
  ///                 an ancestor's only reader of "p eats" (its own enter
  ///                 guard, which needs it hungry) is false before and
  ///                 after; p's descendants read "p not thinking", true
  ///                 both as H and as E.
  /// Appends that set (p excluded) and returns true.
  bool affected(ProcessId p, sim::ActionIndex a,
                std::vector<ProcessId>& out) const override;

  // --- flat substrate (core::FlatEngine) ----------------------------------
  // The state store is already structure-of-arrays (states_/depths_/needs_/
  // alive_/priority_ are contiguous per-process and per-edge arrays); these
  // entry points expose it without virtual dispatch: one CSR neighborhood
  // pass computes every guard of a process at once, and apply_action writes
  // an action's effect without re-checking its guard.

  /// priority(p, q) by edge id, unchecked, for loops over
  /// topology().raw_edge_ids().
  /// Precondition: e < topology().num_edges().
  [[nodiscard]] ProcessId edge_priority(graph::EdgeId e) const noexcept {
    return priority_[e];
  }

  /// All five guards of `p` in one neighborhood scan, as a bitmask indexed
  /// by Action (bit a set iff enabled(p, a)). Does NOT consult alive(p) —
  /// like enabled(), guards are a function of the state only; the engine
  /// masks dead processes. Precondition: p < n.
  [[nodiscard]] std::uint32_t guard_mask(ProcessId p) const noexcept;

  /// Applies action `a` of process `p` without evaluating its guard (the
  /// flat engine already knows it is enabled). Identical effect to
  /// execute(p, a); execute() is guard-check + apply_action().
  void apply_action(ProcessId p, sim::ActionIndex a);

  // --- PhilosopherProgram interface / observers ---------------------------
  [[nodiscard]] DinerState state(ProcessId p) const override {
    return states_.at(p);
  }
  [[nodiscard]] std::int64_t depth(ProcessId p) const { return depths_.at(p); }
  [[nodiscard]] bool needs(ProcessId p) const override {
    return needs_.at(p) != 0;
  }
  [[nodiscard]] std::uint32_t diameter_constant() const noexcept { return d_; }
  [[nodiscard]] const DinersConfig& config() const noexcept { return config_; }

  /// The id held by the shared edge variable priority(p,q).
  /// Throws std::invalid_argument if p and q are not neighbors.
  [[nodiscard]] ProcessId priority(ProcessId p, ProcessId q) const;

  /// True iff q is a direct ancestor of p (priority(p,q) == q).
  [[nodiscard]] bool is_direct_ancestor(ProcessId q, ProcessId p) const;

  [[nodiscard]] std::vector<ProcessId> direct_ancestors(ProcessId p) const;
  [[nodiscard]] std::vector<ProcessId> direct_descendants(ProcessId p) const;

  /// Whole priority graph as ancestor lists (index = process).
  [[nodiscard]] graph::Orientation orientation() const;

  /// Liveness predicate bound to this system, for the graph algorithms.
  [[nodiscard]] graph::AliveFn alive_fn() const;

  [[nodiscard]] std::vector<ProcessId> dead_processes() const override;
  [[nodiscard]] std::size_t dead_count() const noexcept { return dead_count_; }

  /// Number of completed `enter` executions (meals started) per process and
  /// in total. Malicious or corrupted "eating" states do not count; only
  /// genuine enter steps do.
  [[nodiscard]] std::uint64_t meals(ProcessId p) const override {
    return meals_.at(p);
  }
  [[nodiscard]] std::uint64_t total_meals() const override {
    return total_meals_;
  }

  // --- mutators (workload, faults) ---------------------------------------
  // These model the environment: needs() "evaluates to true arbitrarily",
  // transient faults perturb any variable, malicious crash steps write
  // arbitrary values. They are NOT part of the protocol.

  void set_needs(ProcessId p, bool wants) override;
  void set_state(ProcessId p, DinerState s);
  void set_depth(ProcessId p, std::int64_t depth);

  /// Sets the shared edge variable; `owner` must be p or q (the variable's
  /// domain is the two endpoint ids). Throws otherwise.
  void set_priority(ProcessId p, ProcessId q, ProcessId owner);

  /// Benign crash: p stops executing actions forever. Idempotent.
  void crash(ProcessId p) override;

  /// Restart (rejoin): revives a dead process in the paper-legal reset
  /// state — thinking, depth 0, every incident priority edge yielded to the
  /// neighbor (exactly the post-exit assignment). Self-stabilization makes
  /// this rejoin just another tolerated transient fault: the reset writes
  /// are arbitrary-looking to the neighbors, and the system re-converges to
  /// I from the combined state. needs() and the meal counters are
  /// untouched. No-op on a live process.
  void restart(ProcessId p);

  /// Resets meal counters (statistics only; protocol state untouched).
  void reset_meals();

 private:
  [[nodiscard]] bool all_direct_ancestors_thinking(ProcessId p) const;
  [[nodiscard]] bool some_direct_ancestor_not_thinking(ProcessId p) const;
  [[nodiscard]] bool some_direct_descendant_eating(ProcessId p) const;
  /// Max depth(q) over direct descendants q; INT64_MIN if none.
  [[nodiscard]] std::int64_t max_descendant_depth(ProcessId p) const;

  graph::Graph graph_;
  DinersConfig config_;
  std::uint32_t d_;  ///< the constant D of Figure 1

  std::vector<DinerState> states_;
  std::vector<std::int64_t> depths_;
  std::vector<std::uint8_t> needs_;
  std::vector<std::uint8_t> alive_;
  /// priority_[edge id] = endpoint id currently holding priority edge
  /// direction (see class comment).
  std::vector<ProcessId> priority_;

  std::vector<std::uint64_t> meals_;
  std::uint64_t total_meals_ = 0;
  std::size_t dead_count_ = 0;
};

}  // namespace diners::core
