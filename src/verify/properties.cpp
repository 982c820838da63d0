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

// ---- weak-fairness SCC search over the group product ---------------------
//
// A quotient graph (g.sym non-null) stores one representative per orbit;
// fairness is NOT symmetric state-by-state (an SCC of representatives mixes
// frames), so the SCC analysis runs on the *product* of the graph with its
// group: product node (s, h) stands for the concrete state
// A_{h^{-1}}(rep(s)). Arc (s -> t, move m, witness w) lifts to
// (s, h) -> (t, w∘h) executing the concrete move (h^{-1}(proc(m)), act(m)),
// and the concrete enabled mask at (s, h) is enabled[s] permuted by h^{-1}.
// This product is exactly the concrete transition graph over the orbit
// closure of the seed set, so the exactness argument of properties.hpp
// applies verbatim; an unreduced graph is the |G| = 1 case. Any closed
// product cycle has witness product == identity (closure at a fixed frame
// forces it), so the returned rep-frame arc cycle closes concretely from
// *any* start frame — counterexample lifting needs no frame alignment.
//
// Nodes are dense: (s, h) is slot rank[s] * |G| + h over the live states.
// On a reduced graph a quotient-SCC prefilter first drops most of them
// (DESIGN.md §10): every product arc projects onto a quotient arc between
// states of a frame-free superset of the bad set, so every product cycle
// lies over one quotient SCC of that superset with an intra-arc, and states
// outside such SCCs never enter the product.

class Product {
 public:
  struct Scc {
    std::span<const std::uint32_t> members;
    std::uint32_t id;
    bool cyclic;  ///< has an intra-arc
    bool fair;    ///< cyclic, and every always-enabled action is executed
  };

  /// The product of `g` with `grp` (the trivial group when null) over the
  /// ascending state list `states`. Without `hungry` every node is bad and
  /// no arc is excluded; with it, (s, h) is bad iff rep process h(tracked)
  /// is hungry in s, and that process's enter arcs are excluded there.
  Product(const StateGraph& g, const SymmetryGroup* grp,
          std::vector<std::uint32_t> states,
          const std::vector<std::uint16_t>* hungry = nullptr,
          sim::ProcessId tracked = 0)
      : g_(g),
        grp_(grp),
        frames_(grp != nullptr ? static_cast<std::uint32_t>(grp->size()) : 1),
        states_(std::move(states)),
        rank_(g.num_states(), kNoIndex),
        hungry_(hungry) {
    if (std::uint64_t{frames_} * states_.size() >= kNoIndex) {
      throw std::length_error("fair-cycle product exceeds 2^32 nodes");
    }
    for (std::uint32_t r = 0; r < states_.size(); ++r) rank_[states_[r]] = r;
    for (std::uint32_t h = 0; h < frames_; ++h) {
      tracked_at_.push_back(
          grp != nullptr
              ? grp->apply_node(static_cast<SymmetryGroup::ElemId>(h), tracked)
              : tracked);
    }
  }

  [[nodiscard]] std::uint32_t state_of(std::uint32_t node) const {
    return states_[node / frames_];
  }

  /// Iterative Tarjan from every bad node in (state, frame) order. Calls
  /// on_scc(Scc) at each SCC root and stops once it returns true.
  template <class OnScc>
  void for_each_scc(OnScc&& on_scc) {
    const auto n = static_cast<std::uint32_t>(states_.size() * frames_);
    idx_.assign(n, kNoIndex);
    low_.assign(n, 0);
    comp_.assign(n, kNoIndex);  // visited and unassigned == on the stack
    std::vector<std::uint32_t> stack;
    struct Frame {
      std::uint32_t node, arc, end;
      std::uint16_t h;
    };
    std::vector<Frame> dfs;
    std::uint32_t counter = 0, comps = 0;
    const auto visit = [&](std::uint32_t v, std::uint32_t s,
                           std::uint16_t h) {
      idx_[v] = low_[v] = counter++;
      stack.push_back(v);
      dfs.push_back({v, g_.succ_begin[s], g_.succ_begin[s + 1], h});
    };

    for (std::uint32_t root = 0; root < n; ++root) {
      const std::uint32_t root_s = state_of(root);
      const auto root_h = static_cast<std::uint16_t>(root % frames_);
      if (idx_[root] != kNoIndex || !bad(root_s, root_h)) continue;
      visit(root, root_s, root_h);
      while (!dfs.empty()) {
        Frame& f = dfs.back();
        const std::uint32_t u = f.node;
        if (f.arc < f.end) {
          const Arc& arc = g_.succ[f.arc++];
          const auto [v, h] = follow(f.h, arc);
          if (v == kNoIndex) continue;
          if (idx_[v] == kNoIndex) {
            visit(v, arc.to, h);
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
          comp_[*--first] = comps;
        } while (*first != u);
        const bool stop = on_scc(summarize({first, stack.end()}, comps));
        stack.erase(first, stack.end());
        ++comps;
        if (stop) return;
      }
    }
  }

  /// Shortest product cycle through `entry` over the intra-arcs of SCC `id`
  /// (from the last for_each_scc), as rep-frame arcs. Precondition: `id`
  /// is cyclic and contains `entry`.
  [[nodiscard]] std::vector<Arc> witness_cycle(std::uint32_t entry,
                                               std::uint32_t id) const {
    std::vector<std::uint32_t> pred(comp_.size(), kNoIndex);
    std::vector<std::uint32_t> via(comp_.size(), 0);  ///< index into g.succ
    std::vector<std::uint32_t> queue{entry};
    for (std::size_t head = 0; pred[entry] == kNoIndex; ++head) {
      const std::uint32_t u = queue[head];
      const std::uint32_t s = state_of(u);
      const auto h = static_cast<std::uint16_t>(u % frames_);
      for (std::uint32_t a = g_.succ_begin[s]; a < g_.succ_begin[s + 1];
           ++a) {
        const std::uint32_t v = follow(h, g_.succ[a]).node;
        if (v == kNoIndex || comp_[v] != id || pred[v] != kNoIndex) continue;
        pred[v] = u;
        via[v] = a;
        if (v == entry) break;
        queue.push_back(v);
      }
    }
    std::vector<Arc> cycle;
    for (std::uint32_t v = entry; cycle.empty() || v != entry; v = pred[v]) {
      cycle.push_back(g_.succ[via[v]]);
    }
    std::reverse(cycle.begin(), cycle.end());
    return cycle;
  }

 private:
  struct Step {
    std::uint32_t node;
    std::uint16_t h;
  };

  [[nodiscard]] bool bad(std::uint32_t s, std::uint16_t h) const {
    return hungry_ == nullptr || (((*hungry_)[s] >> tracked_at_[h]) & 1) != 0;
  }

  /// The product arc from frame h along `arc`, or node kNoIndex when the
  /// arc is excluded at h or leaves the live bad set.
  [[nodiscard]] Step follow(std::uint16_t h, const Arc& arc) const {
    const std::uint32_t r = rank_[arc.to];
    if (r == kNoIndex ||
        (hungry_ != nullptr && move_action(arc.move) == DinersSystem::kEnter &&
         move_process(arc.move) == tracked_at_[h])) {
      return {kNoIndex, 0};
    }
    const std::uint16_t t = grp_ != nullptr ? grp_->compose(arc.witness, h) : 0;
    if (!bad(arc.to, t)) return {kNoIndex, 0};
    return {r * frames_ + t, t};
  }

  [[nodiscard]] Scc summarize(std::span<const std::uint32_t> members,
                              std::uint32_t id) const {
    std::uint64_t always = ~std::uint64_t{0};
    std::uint64_t executed = 0;
    bool cyclic = false;
    for (const std::uint32_t d : members) {
      const std::uint32_t s = state_of(d);
      const auto h = static_cast<std::uint16_t>(d % frames_);
      const auto h_inv = grp_ != nullptr ? grp_->inverse(h) : h;
      always &= grp_ != nullptr ? grp_->permute_mask(h_inv, g_.enabled[s])
                                : g_.enabled[s];
      for (const Arc& arc : g_.arcs_of(s)) {
        const std::uint32_t v = follow(h, arc).node;
        if (v == kNoIndex || comp_[v] != id) continue;
        cyclic = true;
        const std::uint16_t move =
            grp_ != nullptr ? grp_->permute_move(h_inv, arc.move) : arc.move;
        executed |= std::uint64_t{1} << move;
      }
    }
    always &= ~kJoinBits;
    return {members, id, cyclic, cyclic && (always & ~executed) == 0};
  }

  const StateGraph& g_;
  const SymmetryGroup* grp_;
  std::uint32_t frames_;
  std::vector<std::uint32_t> states_;  ///< rank -> state
  std::vector<std::uint32_t> rank_;    ///< state -> rank or kNoIndex
  const std::vector<std::uint16_t>* hungry_;
  std::vector<sim::ProcessId> tracked_at_;  ///< frame -> rep process
  std::vector<std::uint32_t> idx_, low_, comp_;
};

/// The shared body of the liveness checks. A terminal state of the
/// frame-free label `live` is stuck; otherwise the first weakly-fair-feasible
/// SCC inside the bad set (see properties.hpp for the exactness argument) is
/// a violation. `hungry`/`tracked` refine `live` per frame as Product
/// describes.
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
  if (g.sym != nullptr) {
    // Quotient prefilter: keep the states of cyclic SCCs of `live`.
    Product quotient(g, nullptr, std::move(states));
    states.clear();
    quotient.for_each_scc([&](const Product::Scc& scc) {
      if (scc.cyclic) {
        for (const auto d : scc.members) states.push_back(quotient.state_of(d));
      }
      return false;
    });
    std::sort(states.begin(), states.end());
  }
  Product product(g, g.sym.get(), std::move(states), hungry, tracked);
  bool found = false;
  product.for_each_scc([&](const Product::Scc& scc) {
    if (!scc.fair) return false;
    // Entry: the member with the smallest (state, frame).
    const std::uint32_t entry =
        *std::min_element(scc.members.begin(), scc.members.end());
    v.kind = Violation::Kind::kCycle;
    v.state = product.state_of(entry);
    v.cycle = product.witness_cycle(entry, scc.id);
    v.detail = std::move(forever) + " (fair-feasible SCC of " +
               std::to_string(scc.members.size()) +
               " states, witness cycle length " +
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
