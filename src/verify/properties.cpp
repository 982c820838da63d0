#include "verify/properties.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>

#include "analysis/invariants.hpp"

namespace diners::verify {

namespace {

using core::DinersSystem;
using Arc = StateGraph::Arc;

/// The check_* oracles reason about *every* reachable behavior; a graph
/// truncated at Options::max_states has unexpanded states whose outgoing
/// behavior is unknown, so any verdict over it would be unsound.
void require_complete(const StateGraph& g, const char* property) {
  if (!g.complete) {
    throw std::invalid_argument(
        std::string(property) +
        ": state graph is truncated (complete == false); raise "
        "Explorer::Options::max_states");
  }
}

/// Bits of every process's join action — excluded from the fairness-forced
/// set (see the file comment of properties.hpp).
constexpr std::uint64_t join_bits() noexcept {
  std::uint64_t m = 0;
  for (unsigned pos = DinersSystem::kJoin; pos < 64;
       pos += DinersSystem::kNumActions) {
    m |= std::uint64_t{1} << pos;
  }
  return m;
}
constexpr std::uint64_t kJoinBits = join_bits();

bool terminal(const StateGraph& g, std::uint32_t i) {
  return g.succ_begin[i + 1] == g.succ_begin[i];
}

// ---- weak-fairness SCC search over coset frames --------------------------
//
// A quotient graph (g.sym non-null) stores one representative per orbit;
// fairness is NOT symmetric state-by-state (an SCC of representatives mixes
// frames), so the exact object is the *product* of the graph with its group
// G: product node (s, h) stands for the concrete state A_{h^{-1}}(rep(s)).
// Arc (s -> t, move m, witness w) lifts to (s, h) -> (t, w∘h) executing the
// concrete move (h^{-1}(proc(m)), act(m)), and the concrete enabled mask at
// (s, h) is enabled[s] permuted by h^{-1}. This product is exactly the
// concrete transition graph over the orbit closure of the seed set, so the
// exactness argument of properties.hpp applies to its SCCs; an unreduced
// graph is the |G| = 1 case.
//
// The search never enumerates the product (DESIGN.md §10). The bad set and
// the excluded arcs depend on a frame h only through the tracked process's
// position h(tracked) in its orbit, and not at all for the frame-free
// convergence and far-safety labels, which get a single position. Tarjan
// therefore runs over *coset nodes* (s, q), q an orbit position, with arc
// (s, q) -> (t, w(q)); every product SCC lies over one coset SCC. Each
// cyclic coset SCC C is decided by one BFS over the product component lifted
// from its smallest member (s0, q0), entered at the smallest frame h0 with
// h0(tracked) = q0. One lift per SCC is exact:
//   - right-multiplying every frame by an element k of the tracked process's
//     stabilizer maps product arcs, the bad set and the excluded arcs onto
//     themselves and permutes both fairness masks by k^{-1}. Every product
//     SCC over C holds some node over (s0, q0), and those nodes are the
//     (s0, h0∘k), so every lift of C gets the same verdict;
//   - a closed walk's witness product has finite order, so repeating the
//     walk returns to its start frame. Every node the entry reaches inside
//     C's lift therefore reaches the entry back: the lift is strongly
//     connected, it is exactly one product SCC, and it is cyclic iff C is.
// The BFS visits every node and intra-arc of the lift, gathering the
// always-enabled and executed masks, and its first arc back into the entry
// closes a shortest witness cycle. That cycle returns to the entry's frame,
// so its witness product is the identity and the returned rep-frame arcs
// close concretely from *any* start frame — counterexample lifting needs no
// frame alignment.
//
// Coset node (s, q) is the flat-array slot rank[s] * |orbit| + q over the
// live states, and a lift's product node (s, h) is the bit
// (member index of (s, h(tracked))) * |stabilizer| + (h's index in its
// coset), so no hash table sits on the search path and the arrays hold
// states × |orbit| entries, not states × |G|.

class FairCycleSearch {
 public:
  /// One SCC of coset nodes, valid during its on_scc call. Tarjan numbers
  /// the nodes consecutively in SCC emission order: members[k] is numbered
  /// base + k.
  struct Scc {
    std::span<const std::uint32_t> members;
    std::uint32_t base;
    bool cyclic;  ///< has an intra-arc
  };

  /// The product component lifted from an SCC's smallest member.
  struct Lift {
    std::uint32_t entry_state;
    std::uint32_t size;  ///< product nodes
    bool fair;  ///< cyclic, and every always-enabled action is executed
    std::vector<Arc> cycle;  ///< if fair: a shortest cycle through the entry
  };

  /// The coset graph of `g` over the ascending state list `states`. Without
  /// `hungry` every node is bad, no arc is excluded and there is one
  /// position; with it, the positions are the orbit of `tracked` under
  /// g.sym, (s, q) is bad iff rep process q is hungry in s, and q's enter
  /// arcs are excluded there.
  FairCycleSearch(const StateGraph& g, std::vector<std::uint32_t> states,
                  const std::vector<std::uint16_t>* hungry = nullptr,
                  sim::ProcessId tracked = 0)
      : g_(g),
        grp_(g.sym.get()),
        states_(std::move(states)),
        rank_(g.num_states(), kNoIndex),
        hungry_(hungry),
        orbit_{tracked} {
    const std::size_t order = grp_ != nullptr ? grp_->size() : 1;
    if (hungry != nullptr && grp_ != nullptr) {
      for (auto& orbit : grp_->node_orbits()) {
        if (std::binary_search(orbit.begin(), orbit.end(), tracked)) {
          orbit_ = std::move(orbit);
        }
      }
    }
    frames_ = static_cast<std::uint32_t>(orbit_.size());
    stab_ = static_cast<std::uint32_t>(order / frames_);  // orbit-stabilizer
    if (std::uint64_t{frames_} * states_.size() >= kNoIndex) {
      throw std::length_error("fair-cycle search exceeds 2^32 nodes");
    }
    for (std::uint32_t r = 0; r < states_.size(); ++r) rank_[states_[r]] = r;
    const auto position = [&](graph::NodeId q) {
      return static_cast<std::uint16_t>(
          std::lower_bound(orbit_.begin(), orbit_.end(), q) - orbit_.begin());
    };
    shift_.resize(order * frames_);
    coset_idx_.resize(order);
    coset_elems_.resize(order);
    std::vector<std::uint32_t> filled(frames_, 0);
    for (std::size_t e = 0; e < order; ++e) {
      const auto elem = static_cast<SymmetryGroup::ElemId>(e);
      for (std::uint32_t q = 0; q < frames_; ++q) {
        shift_[e * frames_ + q] =
            frames_ == 1 ? 0 : position(grp_->apply_node(elem, orbit_[q]));
      }
      const std::uint32_t c =
          frames_ == 1 ? 0 : position(grp_->apply_node(elem, tracked));
      coset_idx_[e] = static_cast<std::uint16_t>(filled[c]);
      coset_elems_[c * stab_ + filled[c]++] = elem;
    }
  }

  [[nodiscard]] std::uint32_t state_of(std::uint32_t node) const {
    return states_[node / frames_];
  }

  /// Iterative Tarjan from every bad coset node in (state, position) order.
  /// Calls on_scc(const Scc&) at each SCC root and stops once it returns
  /// true.
  template <class OnScc>
  void for_each_scc(OnScc&& on_scc) {
    const auto n = static_cast<std::uint32_t>(states_.size() * frames_);
    idx_.assign(n, kNoIndex);
    low_.assign(n, 0);
    comp_.assign(n, kNoIndex);  // visited and unnumbered == on the stack
    std::vector<std::uint32_t> stack;
    struct Call {
      std::uint32_t node, arc, end;
    };
    std::vector<Call> dfs;
    std::uint32_t counter = 0, done = 0;
    const auto visit = [&](std::uint32_t v) {
      idx_[v] = low_[v] = counter++;
      stack.push_back(v);
      const std::uint32_t s = state_of(v);
      dfs.push_back({v, g_.succ_begin[s], g_.succ_begin[s + 1]});
    };

    for (std::uint32_t root = 0; root < n; ++root) {
      if (idx_[root] != kNoIndex || !bad(state_of(root), root % frames_)) {
        continue;
      }
      visit(root);
      while (!dfs.empty()) {
        Call& c = dfs.back();
        const std::uint32_t u = c.node;
        if (c.arc < c.end) {
          const std::uint32_t v = follow(u % frames_, g_.succ[c.arc++]);
          if (v == kNoIndex) continue;
          if (idx_[v] == kNoIndex) {
            visit(v);
          } else if (comp_[v] == kNoIndex) {
            low_[u] = std::min(low_[u], idx_[v]);
          }
          continue;
        }
        dfs.pop_back();
        if (!dfs.empty()) {
          low_[dfs.back().node] = std::min(low_[dfs.back().node], low_[u]);
        }
        if (low_[u] != idx_[u]) continue;

        // u roots an SCC: the stack from u up.
        auto first = stack.end();
        do {
          --first;
        } while (*first != u);
        const auto size = static_cast<std::uint32_t>(stack.end() - first);
        for (std::uint32_t k = 0; k < size; ++k) comp_[first[k]] = done + k;
        const bool stop =
            on_scc(Scc{{first, stack.end()}, done, size > 1 || self_loop(u)});
        stack.erase(first, stack.end());
        done += size;
        if (stop) return;
      }
    }
  }

  /// BFS over the product component lifted from the smallest member of
  /// `scc`, the SCC being reported to on_scc.
  [[nodiscard]] Lift lift(const Scc& scc) {
    const auto size = static_cast<std::uint32_t>(scc.members.size());
    if (std::uint64_t{size} * stab_ >= kNoIndex) {
      throw std::length_error("fair-cycle lift exceeds 2^32 nodes");
    }
    // Lift slot k * stab_ + i is the i-th frame of member k's coset; the
    // lift visits a fraction of them, so only a bit per slot is reserved.
    seen_.assign((std::size_t{size} * stab_ + 63) / 64, 0);
    const auto visit = [&](std::uint32_t slot, std::uint32_t from,
                           std::uint32_t arc) {
      seen_[slot / 64] |= std::uint64_t{1} << (slot % 64);
      queue_.push_back({slot, from, arc});
    };
    // Entry: the smallest member at the first frame of its coset.
    const auto entry_member = static_cast<std::uint32_t>(
        std::min_element(scc.members.begin(), scc.members.end()) -
        scc.members.begin());
    const std::uint32_t entry = entry_member * stab_;
    queue_.clear();
    visit(entry, kNoIndex, 0);
    std::uint64_t always = ~std::uint64_t{0};
    std::uint64_t executed = 0;
    std::uint32_t close_from = kNoIndex;  ///< queue position
    std::uint32_t close_arc = 0;
    for (std::uint32_t head = 0; head < queue_.size(); ++head) {
      const std::uint32_t u = queue_[head].slot;
      const std::uint32_t node = scc.members[u / stab_];
      const std::uint32_t s = state_of(node);
      const std::uint32_t q = node % frames_;
      const SymmetryGroup::ElemId h = coset_elems_[q * stab_ + u % stab_];
      const SymmetryGroup::ElemId h_inv =
          grp_ != nullptr ? grp_->inverse(h) : h;
      always &= grp_ != nullptr ? grp_->permute_mask(h_inv, g_.enabled[s])
                                : g_.enabled[s];
      for (std::uint32_t a = g_.succ_begin[s]; a < g_.succ_begin[s + 1];
           ++a) {
        const Arc& arc = g_.succ[a];
        const std::uint32_t v = follow(q, arc);
        if (v == kNoIndex || comp_[v] - scc.base >= size) continue;
        executed |= std::uint64_t{1}
                    << (grp_ != nullptr ? grp_->permute_move(h_inv, arc.move)
                                        : arc.move);
        const SymmetryGroup::ElemId t =
            grp_ != nullptr ? grp_->compose(arc.witness, h) : h;
        const std::uint32_t w = (comp_[v] - scc.base) * stab_ + coset_idx_[t];
        if (w == entry && close_from == kNoIndex) {
          close_from = head;
          close_arc = a;
        }
        if (((seen_[w / 64] >> (w % 64)) & 1) == 0) visit(w, head, a);
      }
    }
    always &= ~kJoinBits;
    Lift out{state_of(scc.members[entry_member]),
             static_cast<std::uint32_t>(queue_.size()),
             scc.cyclic && (always & ~executed) == 0,
             {}};
    if (out.fair) {
      out.cycle.push_back(g_.succ[close_arc]);
      for (std::uint32_t i = close_from; i != 0; i = queue_[i].from) {
        out.cycle.push_back(g_.succ[queue_[i].arc]);
      }
      std::reverse(out.cycle.begin(), out.cycle.end());
    }
    return out;
  }

 private:
  [[nodiscard]] bool bad(std::uint32_t s, std::uint32_t q) const {
    return hungry_ == nullptr || (((*hungry_)[s] >> orbit_[q]) & 1) != 0;
  }

  /// The coset arc from position q along `arc`, or kNoIndex when the arc is
  /// excluded at q or leaves the live bad set.
  [[nodiscard]] std::uint32_t follow(std::uint32_t q, const Arc& arc) const {
    const std::uint32_t r = rank_[arc.to];
    if (r == kNoIndex ||
        (hungry_ != nullptr && move_action(arc.move) == DinersSystem::kEnter &&
         move_process(arc.move) == orbit_[q])) {
      return kNoIndex;
    }
    const std::uint32_t t = shift_[arc.witness * frames_ + q];
    if (!bad(arc.to, t)) return kNoIndex;
    return r * frames_ + t;
  }

  [[nodiscard]] bool self_loop(std::uint32_t u) const {
    const std::uint32_t s = state_of(u);
    for (std::uint32_t a = g_.succ_begin[s]; a < g_.succ_begin[s + 1]; ++a) {
      if (follow(u % frames_, g_.succ[a]) == u) return true;
    }
    return false;
  }

  const StateGraph& g_;
  const SymmetryGroup* grp_;
  std::vector<std::uint32_t> states_;  ///< rank -> state
  std::vector<std::uint32_t> rank_;    ///< state -> rank or kNoIndex
  const std::vector<std::uint16_t>* hungry_;
  std::vector<graph::NodeId> orbit_;  ///< position -> rep process
  std::uint32_t frames_ = 1;          ///< positions
  std::uint32_t stab_ = 1;            ///< frames per position
  std::vector<std::uint16_t> shift_;  ///< (element, position) -> position
  std::vector<std::uint16_t> coset_idx_;  ///< element -> index in its coset
  std::vector<SymmetryGroup::ElemId> coset_elems_;  ///< ascending per coset
  std::vector<std::uint32_t> idx_, low_, comp_;
  /// Lift scratch: a bit per lift slot, and the BFS queue, where each
  /// visited slot records the queue position and arc it was reached from.
  struct Visit {
    std::uint32_t slot, from, arc;
  };
  std::vector<std::uint64_t> seen_;
  std::vector<Visit> queue_;
};

/// The shared body of the liveness checks. A terminal state of the
/// frame-free label `live` is stuck; otherwise the first weakly-fair-feasible
/// SCC inside the bad set (see properties.hpp for the exactness argument) is
/// a violation. `hungry`/`tracked` refine `live` per orbit position as
/// FairCycleSearch describes.
std::optional<Violation> check_eventually(
    const StateGraph& g, const std::vector<std::uint8_t>& live,
    std::string property, std::string stuck, std::string forever,
    const std::vector<std::uint16_t>* hungry = nullptr,
    sim::ProcessId tracked = 0) {
  Violation v;
  v.property = std::move(property);
  std::vector<std::uint32_t> states;
  for (std::uint32_t s = 0; s < g.num_states(); ++s) {
    if (live[s] == 0) continue;
    if (terminal(g, s)) {
      v.kind = Violation::Kind::kStuck;
      v.detail = std::move(stuck);
      v.state = s;
      return v;
    }
    states.push_back(s);
  }
  if (hungry != nullptr && g.sym != nullptr) {
    // Prefilter: the one-position pass over the hungry-orbit superset
    // `live` keeps the states of its cyclic SCCs (DESIGN.md §10).
    FairCycleSearch superset(g, std::move(states));
    states.clear();
    superset.for_each_scc([&](const FairCycleSearch::Scc& scc) {
      if (scc.cyclic) {
        for (const auto d : scc.members) states.push_back(superset.state_of(d));
      }
      return false;
    });
    std::sort(states.begin(), states.end());
  }
  FairCycleSearch search(g, std::move(states), hungry, tracked);
  bool found = false;
  search.for_each_scc([&](const FairCycleSearch::Scc& scc) {
    if (!scc.cyclic) return false;
    FairCycleSearch::Lift lift = search.lift(scc);
    if (!lift.fair) return false;
    v.kind = Violation::Kind::kCycle;
    v.state = lift.entry_state;
    v.cycle = std::move(lift.cycle);
    v.detail = std::move(forever) + " (fair-feasible SCC of " +
               std::to_string(lift.size) + " states, witness cycle length " +
               std::to_string(v.cycle.size()) + ")";
    found = true;
    return true;
  });
  if (!found) return std::nullopt;
  return v;
}

}  // namespace

std::vector<std::uint8_t> label_invariant(const StateGraph& g,
                                          const StateCodec& codec,
                                          core::DinersSystem& scratch) {
  std::vector<std::uint8_t> inv(g.num_states(), 0);
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    codec.decode(g.keys[i], scratch);
    inv[i] = analysis::holds_invariant(scratch) ? 1 : 0;
  }
  return inv;
}

std::vector<std::uint8_t> label_far_violation(
    const StateGraph& g, const StateCodec& codec,
    const core::DinersSystem& scratch,
    const std::vector<std::uint32_t>& dist, std::uint32_t radius) {
  std::vector<std::uint8_t> bad(g.num_states(), 0);
  const auto& edges = codec.topology().edges();
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    for (graph::EdgeId e = 0; e < codec.topology().num_edges(); ++e) {
      const auto u = edges[e].u, v = edges[e].v;
      if (codec.state_of(g.keys[i], u) != core::DinerState::kEating ||
          codec.state_of(g.keys[i], v) != core::DinerState::kEating) {
        continue;
      }
      const bool far_live_endpoint =
          (scratch.alive(u) && dist[u] > radius) ||
          (scratch.alive(v) && dist[v] > radius);
      if (far_live_endpoint) {
        bad[i] = 1;
        break;
      }
    }
  }
  return bad;
}

std::optional<Violation> check_closure(
    const StateGraph& g, const std::vector<std::uint8_t>& invariant) {
  require_complete(g, "check_closure");
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    if (invariant[i] == 0) continue;
    for (const auto& arc : g.arcs_of(i)) {
      if (invariant[arc.to] != 0) continue;
      Violation v;
      v.kind = Violation::Kind::kClosure;
      v.property = "closure";
      v.detail = "process " + std::to_string(move_process(arc.move)) +
                 " action " + std::to_string(move_action(arc.move)) +
                 " leads from an I-state to a state outside I";
      v.state = i;
      v.move = arc.move;
      v.successor = arc.to;
      return v;
    }
  }
  return std::nullopt;
}

std::optional<Violation> check_convergence(
    const StateGraph& g, const std::vector<std::uint8_t>& invariant) {
  require_complete(g, "check_convergence");
  std::vector<std::uint8_t> bad(g.num_states());
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    bad[i] = invariant[i] == 0 ? 1 : 0;
  }
  return check_eventually(g, bad, "convergence",
                          "terminal state outside I (no action enabled)",
                          "weakly fair run stays outside I forever");
}

std::optional<Violation> check_far_safety(
    const StateGraph& g, const std::vector<std::uint8_t>& far_bad) {
  require_complete(g, "check_far_safety");
  return check_eventually(
      g, far_bad, "far-safety", "terminal state keeps a far eating violation",
      "weakly fair run keeps a far eating violation forever");
}

std::optional<Violation> check_no_starvation(const StateGraph& g,
                                             const StateCodec& codec,
                                             sim::ProcessId p) {
  require_complete(g, "check_no_starvation");
  // On a symmetry-reduced graph each representative covers its whole orbit
  // of concrete states, so p is hungry "at rep s under frame h" iff h(p) is
  // hungry in the rep: the labels become bitmasks over p's orbit, and the
  // verdict covers every process in it (the lifted run may starve any of
  // them, up to relabeling by an automorphism). Unreduced, the orbit is {p}.
  std::uint16_t orbit_bits = static_cast<std::uint16_t>(1u << p);
  for (SymmetryGroup::ElemId e = 0; g.sym != nullptr && e < g.sym->size();
       ++e) {
    orbit_bits |= static_cast<std::uint16_t>(1u << g.sym->apply_node(e, p));
  }
  std::vector<std::uint16_t> hungry(g.num_states(), 0);
  std::vector<std::uint8_t> live(g.num_states(), 0);
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    for (std::uint16_t rest = orbit_bits; rest != 0; rest &= rest - 1) {
      const auto q = static_cast<graph::NodeId>(std::countr_zero(rest));
      if (codec.state_of(g.keys[i], q) == core::DinerState::kHungry) {
        hungry[i] |= static_cast<std::uint16_t>(1u << q);
      }
    }
    live[i] = hungry[i] != 0 ? 1 : 0;
  }
  const std::string who =
      g.sym != nullptr
          ? "a process in the orbit of process " + std::to_string(p)
          : "process " + std::to_string(p);
  const std::string where =
      g.sym != nullptr ? " (symmetry-reduced graph)" : "";
  return check_eventually(
      g, live, "starvation", who + " is hungry in a terminal state" + where,
      who + " stays hungry forever without eating" + where, &hungry, p);
}

}  // namespace diners::verify
