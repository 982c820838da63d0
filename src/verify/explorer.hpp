// Exhaustive breadth-first exploration of the global-state transition
// relation of a DinersSystem under an arbitrary (fully nondeterministic)
// daemon — the model checker's state-graph construction.
//
// Vertices are canonical Keys (canonical.hpp); arcs are single enabled
// actions of live processes. The BFS tree (parent + parent_move per state)
// yields shortest counterexample stems for free; the per-state enabled
// mask feeds the weak-fairness SCC analysis in properties.hpp.
//
// Malicious crashes are explored exhaustively through a *demonic victim*:
// when Options::demon_victim is set, the victim is dead in the scratch
// system (it executes no protocol action) but every state additionally
// reaches, for every possible assignment of the victim's own writable
// variables, the state with that assignment written — exactly the set of
// states a crashing process's finite arbitrary write sequence can produce,
// interleaved arbitrarily with the rest of the system. Demonic arcs drive
// reachability and appear in the BFS tree (so counterexample stems can
// include the malicious writes), but are excluded from the successor lists:
// the victim writes only finitely often, so the eventual (post-crash)
// behavior analysed by the SCC machinery is victim-silent.
//
// Parallelism and determinism. explore() is a layer-synchronous sharded
// BFS over Options::jobs TrialPool workers. Each frontier layer is cut
// into fixed-size chunks (chunk size depends only on the instance, never
// on jobs); within a chunk, workers expand contiguous state blocks into
// per-worker candidate buffers whose concatenation is the *canonical
// candidate order* — ascending parent state index, then ascending move
// (join < leave < enter < exit < fixdepth per process, protocol moves
// before demonic writes). Candidates are deduplicated against a visited
// set sharded by key hash (shard = KeyHash % jobs; each worker owns its
// shards, so the hot insert path takes no locks), then a serial merge
// admits fresh states in canonical candidate order. That order is exactly
// the discovery order a serial BFS would produce, so the resulting
// StateGraph — keys, enabled, parent, parent_move, succ, layers — is
// bit-identical for every jobs value, matching the determinism contract
// BatchRunner and diners_chaos already honor.
//
// Successor generation never round-trips through codec.decode/execute/
// encode on the hot path: each action's effect is applied as a bit-field
// patch directly on the packed key, and the enabled mask is computed by a
// single sweep over the key's incident-edge fields. tests/verify/
// explorer_test.cpp checks every expanded state against the decode /
// execute / encode round-trip through the reference program.
// Reductions (Options::reduce_sym / reduce_por). With reduce_sym the graph
// is the quotient under the stabilizer of the environment inputs inside the
// topology's automorphism group: every candidate key is canonicalized to
// its orbit minimum before dedup, and each arc records the group element w
// ("witness") with rep(target) == A_w(raw successor of rep(source)). Box
// seeds are the exception: when the seed span is the whole depth box in
// ascending order, each orbit's first seed is its minimum, so explore()
// admits the seeds SymmetryGroup::is_canonical accepts (the lex-leaders)
// with the identity witness, and only counts the rest as canonical hits —
// the same graph and counts as canonicalizing and probing every seed.
// Counterexample lifting and the fair-cycle search's product lifts in
// properties.cpp consume the witnesses; the quotient answers reachability
// questions about the orbit closure of the seed set (for symmetric
// properties this equals the unreduced verdict — DESIGN.md section 10).
// With reduce_por a state whose only enabled action at some process p is
// fixdepth, all of whose neighbors have no enabled action, keeps only that
// fixdepth arc, provided the invariant label is unchanged and the target is
// not already visited (the cycle proviso — see DESIGN.md). POR switches
// itself off under a demonic victim, where writes make everything
// dependent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/diners_system.hpp"
#include "verify/canonical.hpp"
#include "verify/mutation.hpp"
#include "verify/symmetry.hpp"

namespace diners::verify {

inline constexpr std::uint32_t kNoIndex = static_cast<std::uint32_t>(-1);

/// Moves below kDemonMoveBase are protocol moves, flattened as
/// process * kNumActions + action. kDemonMoveBase + i is the demonic
/// victim write with crash-assignment index i (fault::apply_crash_assignment
/// over the codec's depth box).
inline constexpr std::uint16_t kDemonMoveBase = 0x8000;
/// parent_move value of seed states (no parent).
inline constexpr std::uint16_t kSeedMove = 0xFFFF;

[[nodiscard]] constexpr std::uint16_t protocol_move(
    sim::ProcessId p, sim::ActionIndex a) noexcept {
  return static_cast<std::uint16_t>(p * core::DinersSystem::kNumActions + a);
}
[[nodiscard]] constexpr sim::ProcessId move_process(std::uint16_t m) noexcept {
  return m / core::DinersSystem::kNumActions;
}
[[nodiscard]] constexpr sim::ActionIndex move_action(
    std::uint16_t m) noexcept {
  return m % core::DinersSystem::kNumActions;
}

/// The explored transition graph. States are dense indices in BFS
/// discovery order; seeds occupy [0, num_seeds).
///
/// Truncation shape: when exploration hits Options::max_states, `complete`
/// is false and the graph holds *exactly* max_states states — keys, parent
/// and parent_move cover all of them, but enabled, succ_begin and succ
/// cover only the expanded prefix [0, num_expanded): the chunk whose
/// expansion overflowed the cap contributes no successor rows. Property
/// oracles (check_closure etc.) reject incomplete graphs.
struct StateGraph {
  struct Arc {
    std::uint32_t to;
    std::uint16_t move;  ///< always a protocol move (demonic arcs are not
                         ///< stored; they appear only as parent_move)
    /// Symmetry witness: rep(to) == A_witness(raw result of `move` at
    /// rep(source)). Always kIdentity without --reduce=sym.
    std::uint16_t witness = SymmetryGroup::kIdentity;
  };

  /// Reduction accounting (zero when no reduction is active).
  struct ReductionStats {
    std::uint64_t raw_candidates = 0;   ///< keys generated before reduction
    std::uint64_t canonical_hits = 0;   ///< keys moved by canonicalization
    std::uint64_t por_ample_states = 0; ///< states reduced to an ample arc
    std::uint64_t por_arcs_pruned = 0;  ///< protocol arcs the ample rule cut
  };

  std::vector<Key> keys;

  /// Per expanded state: bit protocol_move(p, a) set iff the (possibly
  /// mutated) program has (p, a) enabled there and p is alive.
  std::vector<std::uint64_t> enabled;

  std::vector<std::uint32_t> parent;       ///< BFS tree; kNoIndex for seeds
  std::vector<std::uint16_t> parent_move;  ///< kSeedMove for seeds
  /// Symmetry witness of the BFS tree arc (for a seed: the element mapping
  /// the original seed key to its canonical representative). Empty when
  /// `sym` is null.
  std::vector<std::uint16_t> parent_witness;

  /// CSR successor lists over protocol arcs: state i's arcs are
  /// succ[succ_begin[i] .. succ_begin[i+1]), for i < num_expanded.
  std::vector<std::uint32_t> succ_begin;
  std::vector<Arc> succ;

  /// The symmetry group the quotient was taken under, or null when the
  /// graph is unreduced (reduce_sym off, or the stabilizer of the
  /// environment inputs is trivial). Property oracles branch on this.
  std::shared_ptr<const SymmetryGroup> sym;
  ReductionStats reduction;

  std::uint32_t num_seeds = 0;
  /// States [0, num_expanded) have enabled masks and successor lists;
  /// equals num_states() iff `complete`.
  std::uint32_t num_expanded = 0;
  /// Max BFS layer reached — the eccentricity of the seed set in the state
  /// graph (the "diameter" column of the EXPERIMENTS table).
  std::uint32_t layers = 0;
  /// False iff exploration dropped a fresh state at Options::max_states;
  /// the property checks are only meaningful on a complete graph.
  bool complete = true;

  [[nodiscard]] std::uint32_t num_states() const noexcept {
    return static_cast<std::uint32_t>(keys.size());
  }
  [[nodiscard]] std::span<const Arc> arcs_of(std::uint32_t i) const {
    return {succ.data() + succ_begin[i], succ.data() + succ_begin[i + 1]};
  }
};

class Explorer {
 public:
  struct Options {
    GuardMutation mutation = GuardMutation::kNone;
    /// Exact cap on admitted states (the graph never exceeds it; see the
    /// StateGraph truncation-shape comment). Values above 2^31 - 2 are
    /// clamped (state indices are tagged 31-bit during the merge).
    std::uint32_t max_states = 4'000'000;
    /// Exploration worker threads; the StateGraph is bit-identical for
    /// every value. Zero throws.
    unsigned jobs = 1;
    /// Visited-set capacity hint. 0 = derive from the codec's full domain
    /// size (the arbitrary-start state box), clamped to max_states. Under
    /// symmetry reduction the visited shards reserve expected_states / |G|
    /// (|G| the quotient group's order): by orbit-stabilizer a set of that
    /// many states has at least that many orbits. They grow on demand.
    std::uint64_t expected_states = 0;
    /// Demonic malicious-crash victim (see file comment). The victim must
    /// already be dead in the scratch system.
    std::optional<sim::ProcessId> demon_victim;
    /// Quotient the graph by the stabilizer of (needs, alive) inside the
    /// topology's automorphism group (see the file comment). No effect when
    /// that stabilizer is trivial.
    bool reduce_sym = false;
    /// Ample-set partial-order reduction on fixdepth actions (see the file
    /// comment). Automatically inert under a demonic victim.
    bool reduce_por = false;
    /// Store visited keys bit-packed at their codec width (CompactKeyIndex,
    /// ~21 bytes/key at ring-6 vs 48) at the cost of an indirection per
    /// probe. Output is byte-identical either way.
    bool compact_visited = false;
  };

  /// `scratch` supplies the topology, config, needs and alive sets — all
  /// constant over an exploration (needs is environment input; crashes
  /// happen between explorations). Its state/depth/priority variables are
  /// clobbered. Both `scratch` and `codec` must outlive the Explorer.
  Explorer(core::DinersSystem& scratch, const StateCodec& codec,
           Options options);

  /// BFS from `seeds` (deduplicated, order preserved) to the full
  /// reachable set. Seeds must be codec-canonical (as produced by
  /// StateCodec::encode / domain_key); a key with an out-of-box depth
  /// field raises std::invalid_argument. Seeds that are exactly the depth
  /// box in ascending order (StateCodec::domain_keys) are admitted by a
  /// lex-leader scan instead of one canonicalization and probe per seed;
  /// the graph and its ReductionStats are the same either way.
  [[nodiscard]] StateGraph explore(std::span<const Key> seeds);

 private:
  /// Pending successor discovery: the packed state + BFS provenance.
  struct Cand {
    Key key;
    std::uint32_t parent;
    std::uint16_t move;
    std::uint16_t witness = SymmetryGroup::kIdentity;
  };

  /// Per-process precomputed geometry for the key-patch generator.
  struct ProcGen {
    std::uint32_t state_pos;
    std::uint32_t depth_pos;
    Key exit_clear;  ///< process_mask(p): fields exit overwrites
    Key exit_set;    ///< post-exit field values: T, depth enc(0), edges yielded
    std::uint32_t nbr_begin;  ///< into nbrs_; procs_[p + 1].nbr_begin ends
    std::uint8_t needs = 0;
    std::uint8_t alive = 0;
  };
  /// One incident edge of a process, as seen from the key.
  struct NbrGen {
    std::uint32_t state_pos;  ///< neighbor's state field
    std::uint32_t depth_pos;  ///< neighbor's depth field
    std::uint32_t edge_pos;   ///< shared edge's orientation bit
    std::uint8_t anc_bit;     ///< neighbor is a direct ancestor iff the
                              ///< edge bit equals this
  };

  /// Appends the protocol successors of `k` (state index `self`) to `out`
  /// in canonical move order and returns the enabled mask.
  std::uint64_t expand_fast(const Key& k, std::uint32_t self,
                            std::vector<Cand>& out) const;

  core::DinersSystem& scratch_;
  const StateCodec& codec_;
  Options options_;
  /// codec_.domain_size(), or 0 when the box exceeds 2^63 keys.
  std::uint64_t box_size_;

  // Key-patch generator tables (built at construction; needs/alive are
  // refreshed from scratch_ at each explore() since crashes and workload
  // changes happen between explorations).
  std::vector<ProcGen> procs_;  ///< n + 1 entries (sentinel nbr_begin)
  std::vector<NbrGen> nbrs_;
  std::uint32_t depth_bits_;
  std::int64_t depth_min_;
  std::int64_t threshold_d_;  ///< the constant D of Figure 1
  bool dyn_threshold_;
  bool cycle_breaking_;

  /// Demon write patterns: victim-owned bit assignments, and the victim's
  /// owned-bit mask. Computed once at construction when demon_victim set.
  std::vector<Key> demon_patterns_;
  Key demon_mask_;

  /// Full automorphism group of the topology (reduce_sym only); the
  /// per-exploration quotient group is its (needs, alive)-stabilizer.
  std::shared_ptr<const SymmetryGroup> full_group_;
  /// Per process p: the enabled-mask bits of all of p's neighbors (the
  /// ample rule requires them clear).
  std::vector<std::uint64_t> nbr_mask_;
};

}  // namespace diners::verify
