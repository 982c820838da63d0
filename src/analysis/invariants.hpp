// Executable versions of the paper's correctness predicates (Section 3.1):
//
//   NC — "if the priority graph contains a cycle, at least one process in
//        the cycle is dead" (Lemma 1);
//   ST — "all processes in the system are stably shallow" (Lemma 3);
//   E  — "two neighbors are eating in the same state only if they are both
//        dead" (Lemma 4);
//   I  =  NC ∧ ST ∧ E — the program invariant (Theorem 1: the program
//        stabilizes to I).
//
// holds_nc/holds_st/holds_invariant on a bare system run one flat, fail-fast
// pass over the CSR (the oracle of every steps-to-I measurement). The
// ShallowContext overloads, which the per-process vectors always use, are the
// independent Orientation + DFS reference.
#pragma once

#include <cstdint>
#include <vector>

#include "core/diners_system.hpp"
#include "graph/algorithms.hpp"

namespace diners::analysis {

/// NC: no directed cycle among live processes in the priority graph.
[[nodiscard]] bool holds_nc(const core::DinersSystem& system);

/// Per-process shallowness SH:p —
///   p dead, or
///   depth:p <= D and for every direct descendant q:
///     depth:q + l:p <= D   (q's depth cannot push p's chain past D), or
///     depth:q + 1 <= depth:p  (p's fixdepth is disabled for q).
/// where l:p is the longest all-live ancestor chain including p.
[[nodiscard]] std::vector<bool> shallow_processes(
    const core::DinersSystem& system);

/// Stably shallow: p is shallow and is dead or all its live descendants
/// (reachability in the priority graph) are shallow.
[[nodiscard]] std::vector<bool> stably_shallow_processes(
    const core::DinersSystem& system);

/// ST: every process is stably shallow (iff every live one is shallow).
[[nodiscard]] bool holds_st(const core::DinersSystem& system);

/// E: no two live-or-half-live neighbors eat simultaneously — for each edge,
/// both endpoints eating implies both endpoints dead.
[[nodiscard]] bool holds_e(const core::DinersSystem& system);

/// The invariant I = NC ∧ ST ∧ E.
[[nodiscard]] bool holds_invariant(const core::DinersSystem& system);

/// Count of edges whose endpoints are simultaneously eating with at least
/// one endpoint live (Theorem 3's measure: this count never increases, and
/// is zero under I).
[[nodiscard]] std::size_t eating_violation_count(
    const core::DinersSystem& system);

/// Precomputed per-state data for the reference predicates: the priority
/// orientation, descendant lists and longest-live-ancestor-chain table. It
/// shares no code with the flat pass, so that each can check the other.
///
/// Validity: the context depends only on the priority orientation and the
/// alive set. state/depth/needs writes do NOT invalidate it; any priority
/// write or crash does — call refresh() before the next query.
class ShallowContext {
 public:
  ShallowContext() = default;
  explicit ShallowContext(const core::DinersSystem& system) {
    refresh(system);
  }

  /// Recomputes the orientation, descendant lists, and chain table from
  /// `system`'s current priorities and alive set.
  void refresh(const core::DinersSystem& system);

  [[nodiscard]] const graph::Orientation& orientation() const noexcept {
    return orientation_;
  }
  /// descendants()[p] lists p's direct descendants (edges p->q).
  [[nodiscard]] const std::vector<std::vector<graph::NodeId>>& descendants()
      const noexcept {
    return descendants_;
  }
  /// The paper's l:p table (graph::longest_live_ancestor_chain).
  [[nodiscard]] const std::vector<std::uint32_t>& chain() const noexcept {
    return chain_;
  }

 private:
  graph::Orientation orientation_;
  std::vector<std::vector<graph::NodeId>> descendants_;
  std::vector<std::uint32_t> chain_;
};

/// Context overloads: the reference predicates. holds_nc/holds_st/
/// holds_invariant agree with the flat entry points (a differential test
/// battery pins this).
[[nodiscard]] bool holds_nc(const core::DinersSystem& system,
                            const ShallowContext& ctx);
[[nodiscard]] std::vector<bool> shallow_processes(
    const core::DinersSystem& system, const ShallowContext& ctx);
[[nodiscard]] std::vector<bool> stably_shallow_processes(
    const core::DinersSystem& system, const ShallowContext& ctx);
[[nodiscard]] bool holds_st(const core::DinersSystem& system,
                            const ShallowContext& ctx);
[[nodiscard]] bool holds_invariant(const core::DinersSystem& system,
                                   const ShallowContext& ctx);

}  // namespace diners::analysis
