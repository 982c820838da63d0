#include "verify/properties.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "analysis/invariants.hpp"
#include "core/serialize.hpp"
#include "graph/automorphisms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "verify/explorer.hpp"
#include "verify/symmetry.hpp"

namespace diners::verify {
namespace {

using core::DinersConfig;
using core::DinersSystem;
using P = DinersSystem::ProcessId;

/// Hand-built state graphs pin the weak-fairness SCC feasibility condition
/// exactly (see properties.hpp for the proof sketch it implements).
StateGraph tiny_graph(std::vector<std::uint64_t> enabled,
                      std::vector<std::vector<StateGraph::Arc>> arcs) {
  StateGraph g;
  const auto n = enabled.size();
  g.keys.resize(n);
  g.enabled = std::move(enabled);
  g.parent.assign(n, kNoIndex);
  g.parent_move.assign(n, kSeedMove);
  g.num_seeds = static_cast<std::uint32_t>(n);
  g.succ_begin.push_back(0);
  for (auto& out : arcs) {
    for (const auto& a : out) g.succ.push_back(a);
    g.succ_begin.push_back(static_cast<std::uint32_t>(g.succ.size()));
  }
  return g;
}

constexpr std::uint16_t kMoveA = protocol_move(0, DinersSystem::kLeave);
constexpr std::uint16_t kMoveB = protocol_move(1, DinersSystem::kEnter);
constexpr std::uint16_t kMoveJoin = protocol_move(1, DinersSystem::kJoin);

TEST(FairCycle, CycleExecutingEveryAlwaysEnabledActionIsFeasible) {
  // Two states looping via kMoveA; only kMoveA is enabled anywhere, so the
  // loop executes everything weak fairness can force.
  auto g = tiny_graph({std::uint64_t{1} << kMoveA, std::uint64_t{1} << kMoveA},
                      {{{1, kMoveA}}, {{0, kMoveA}}});
  const std::vector<std::uint8_t> bad{1, 1};
  const auto v = check_convergence(g, {0, 0});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kCycle);
  EXPECT_EQ(v->cycle.size(), 2u);
  // The witness starts and ends at the reported entry state.
  EXPECT_EQ(v->cycle.back().to, v->state);
}

TEST(FairCycle, ContinuouslyEnabledUnexecutedActionKillsTheCycle) {
  // Same loop, but kMoveB is enabled in both states and never fired: any
  // run staying in the loop is unfair, so no violation exists (both states
  // are non-terminal, so the stuck check does not fire either).
  const std::uint64_t both =
      (std::uint64_t{1} << kMoveA) | (std::uint64_t{1} << kMoveB);
  auto g = tiny_graph({both, both}, {{{1, kMoveA}}, {{0, kMoveA}}});
  EXPECT_FALSE(check_convergence(g, {0, 0}).has_value());
}

TEST(FairCycle, JoinIsNeverFairnessForced) {
  // The unexecuted action is a join: becoming hungry is the environment's
  // choice, so the loop must still count as a fair run.
  const std::uint64_t both =
      (std::uint64_t{1} << kMoveA) | (std::uint64_t{1} << kMoveJoin);
  auto g = tiny_graph({both, both}, {{{1, kMoveA}}, {{0, kMoveA}}});
  const auto v = check_convergence(g, {0, 0});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kCycle);
}

TEST(FairCycle, TerminalBadStateReportedAsStuck) {
  auto g = tiny_graph({0}, {{}});
  const auto v = check_convergence(g, {0});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kStuck);
  EXPECT_EQ(v->state, 0u);
}

TEST(Closure, ReportsTheViolatingMove) {
  // State 0 in I steps to state 1 outside I.
  auto g = tiny_graph({std::uint64_t{1} << kMoveA, 0}, {{{1, kMoveA}}, {}});
  const auto v = check_closure(g, {1, 0});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kClosure);
  EXPECT_EQ(v->state, 0u);
  EXPECT_EQ(v->move, kMoveA);
  EXPECT_EQ(v->successor, 1u);
}

// ---------------------------------------------------------------------------
// The group-product search on hand-built quotient graphs over K2 and its
// swap group. Product node (s, h) stands for the concrete state
// A_{h^{-1}}(rep(s)), so the frame decides which rep process is the tracked
// one: the same quotient arcs starve p or not depending on their witnesses.
// Keys carry only the diner states, which is all check_no_starvation reads.

class SwapProduct : public ::testing::Test {
 protected:
  static constexpr SymmetryGroup::ElemId kSwap = 1;
  static constexpr auto kH = core::DinerState::kHungry;
  static constexpr auto kT = core::DinerState::kThinking;

  void SetUp() override {
    ASSERT_EQ(group_->size(), 2u);
    ASSERT_EQ(group_->apply_node(kSwap, 0), 1u);
  }

  /// tiny_graph over keys with the given (p0, p1) diner states, reduced
  /// under the swap group.
  StateGraph quotient(
      const std::vector<std::pair<core::DinerState, core::DinerState>>& states,
      std::vector<std::uint64_t> enabled,
      std::vector<std::vector<StateGraph::Arc>> arcs) const {
    StateGraph g = tiny_graph(std::move(enabled), std::move(arcs));
    for (std::size_t i = 0; i < states.size(); ++i) {
      key_set_bits(g.keys[i], codec_.state_pos(0), 2,
                   static_cast<std::uint64_t>(states[i].first));
      key_set_bits(g.keys[i], codec_.state_pos(1), 2,
                   static_cast<std::uint64_t>(states[i].second));
    }
    g.sym = group_;
    return g;
  }

  static constexpr std::uint64_t bit(std::uint16_t move) {
    return std::uint64_t{1} << move;
  }

  graph::Graph topo_ = graph::make_path(2);
  StateCodec codec_{topo_, 0, 1};
  std::shared_ptr<const SymmetryGroup> group_ =
      std::make_shared<SymmetryGroup>(codec_,
                                      graph::automorphism_generators(topo_));
};

constexpr std::uint16_t kFix0 = protocol_move(0, DinersSystem::kFixDepth);
constexpr std::uint16_t kFix1 = protocol_move(1, DinersSystem::kFixDepth);
constexpr std::uint16_t kEnter1 = protocol_move(1, DinersSystem::kEnter);

TEST_F(SwapProduct, CycleThroughANonIdentityFrameIsFoundAndClosesAtItsEntry) {
  // Rep 0 has p0 hungry, rep 1 has p1 hungry, and both arcs swap frames:
  // (0, id) -> (1, swap) -> (0, id) keeps the tracked p0 hungry throughout
  // while p1 runs fixdepth forever (concretely (1, fixdepth) both times).
  const auto g = quotient({{kH, kT}, {kT, kH}}, {bit(kFix1), bit(kFix0)},
                          {{{1, kFix1, kSwap}}, {{0, kFix0, kSwap}}});
  const auto v = check_no_starvation(g, codec_, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kCycle);
  EXPECT_EQ(v->state, 0u);
  ASSERT_EQ(v->cycle.size(), 2u);
  EXPECT_EQ(v->cycle.back().to, v->state);
  EXPECT_EQ(group_->compose(v->cycle[1].witness, v->cycle[0].witness),
            SymmetryGroup::kIdentity);

  // The same arcs without the frame swap leave p0's hungry set at rep 1.
  const auto plain = quotient({{kH, kT}, {kT, kH}}, {bit(kFix1), bit(kFix0)},
                              {{{1, kFix1}}, {{0, kFix0}}});
  EXPECT_FALSE(check_no_starvation(plain, codec_, 0).has_value());
}

TEST_F(SwapProduct, LoopWhoseFrameFlipLeavesTheHungrySetIsNoViolation) {
  // Rep 0 has only p0 hungry, so its orbit is in the hungry superset and
  // the quotient prefilter keeps the self-loop. But the loop swaps frames:
  // (0, id) -> (0, swap) tracks p1 there, who is thinking — no product
  // cycle stays hungry.
  const auto flip =
      quotient({{kH, kT}}, {bit(kFix1)}, {{{0, kFix1, kSwap}}});
  EXPECT_FALSE(check_no_starvation(flip, codec_, 0).has_value());

  const auto stay = quotient({{kH, kT}}, {bit(kFix1)}, {{{0, kFix1}}});
  const auto v = check_no_starvation(stay, codec_, 0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kCycle);
  EXPECT_EQ(v->cycle.size(), 1u);
}

TEST_F(SwapProduct, EnterIsExcludedInOneFrameAndExecutedInAnother) {
  // Both hungry; rep process 1 enters forever. Tracking p1, the identity
  // frame maps p1 to rep 1, whose enter is excluded; the swap frame maps p1
  // to rep 0, so rep 1's enter is the concrete (0, enter) there and p1
  // starves while p0 eats.
  const auto both = quotient({{kH, kH}}, {bit(kEnter1)}, {{{0, kEnter1}}});
  const auto v = check_no_starvation(both, codec_, 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kCycle);
  EXPECT_EQ(v->state, 0u);
  ASSERT_EQ(v->cycle.size(), 1u);
  EXPECT_EQ(v->cycle[0].move, kEnter1);

  // With only p1 hungry the swap frame is outside the hungry set and the
  // identity frame's only arc is p1's own enter: nobody starves.
  const auto one = quotient({{kT, kH}}, {bit(kEnter1)}, {{{0, kEnter1}}});
  EXPECT_FALSE(check_no_starvation(one, codec_, 1).has_value());
}

TEST_F(SwapProduct, BadStateInATrivialQuotientSccIsNeverReported) {
  // Rep 0 is bad and hungry but lies on no quotient cycle: it only feeds
  // (through a frame swap) the fair loop 1 <-> 2. The violation must be
  // reported at the loop, never at 0.
  const std::uint64_t both = bit(kFix0) | bit(kFix1);
  const auto g = quotient({{kH, kH}, {kH, kH}, {kH, kH}}, {both, both, both},
                          {{{1, kFix0, kSwap}},
                           {{2, kFix1}},
                           {{1, kFix0}}});
  const auto conv = check_convergence(g, {0, 0, 0});
  ASSERT_TRUE(conv.has_value());
  EXPECT_EQ(conv->kind, Violation::Kind::kCycle);
  EXPECT_EQ(conv->state, 1u);
  const auto starve = check_no_starvation(g, codec_, 0);
  ASSERT_TRUE(starve.has_value());
  EXPECT_EQ(starve->state, 1u);

  // Without the loop's back arc every bad state is trivial: 0 -> 1 -> 2
  // ends in the good, thinking, self-looping state 2.
  const auto chain = quotient({{kH, kH}, {kH, kH}, {kT, kT}},
                              {both, both, bit(kFix0)},
                              {{{1, kFix0, kSwap}},
                               {{2, kFix1, kSwap}},
                               {{2, kFix0}}});
  EXPECT_FALSE(check_convergence(chain, {0, 0, 1}).has_value());
  EXPECT_FALSE(check_no_starvation(chain, codec_, 0).has_value());
}

// ---------------------------------------------------------------------------
// One lift spans as many frames as the witness product of its cycle has
// order: a quotient self-loop under an order-3 witness of K3's S3 closes
// only after three laps, one per frame.

TEST(FairCycleLift, OrderThreeSelfLoopSpansThreeFrames) {
  const graph::Graph topo = graph::make_complete(3);
  const StateCodec codec(topo, 0, 1);
  const auto group = std::make_shared<SymmetryGroup>(
      codec, graph::automorphism_generators(topo));
  ASSERT_EQ(group->size(), 6u);
  SymmetryGroup::ElemId rot = SymmetryGroup::kIdentity;
  for (SymmetryGroup::ElemId e = 1; e < group->size(); ++e) {
    const SymmetryGroup::ElemId twice = group->compose(e, e);
    if (twice != SymmetryGroup::kIdentity &&
        group->compose(e, twice) == SymmetryGroup::kIdentity) {
      rot = e;
      break;
    }
  }
  ASSERT_NE(rot, SymmetryGroup::kIdentity);

  const auto bits = [](sim::ActionIndex a) {
    std::uint64_t m = 0;
    for (P p = 0; p < 3; ++p) m |= std::uint64_t{1} << protocol_move(p, a);
    return m;
  };
  const std::uint64_t fixes = bits(DinersSystem::kFixDepth);
  constexpr std::uint16_t kFix = protocol_move(0, DinersSystem::kFixDepth);
  // One all-hungry state whose only arc is a self-loop running (0, fixdepth)
  // under `witness`.
  const auto loop = [&](SymmetryGroup::ElemId witness,
                        std::uint64_t enabled) {
    StateGraph g = tiny_graph({enabled}, {{{0, kFix, witness}}});
    for (P p = 0; p < 3; ++p) {
      key_set_bits(g.keys[0], codec.state_pos(p), 2,
                   static_cast<std::uint64_t>(core::DinerState::kHungry));
    }
    g.sym = group;
    return g;
  };

  // Fair: the lift from (0, id) passes frames id, rot and rot^2, so each
  // process runs fixdepth in turn and every always-enabled action fires.
  const StateGraph fair = loop(rot, fixes);
  for (const auto& v :
       {check_convergence(fair, {0}), check_no_starvation(fair, codec, 0)}) {
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->kind, Violation::Kind::kCycle);
    EXPECT_EQ(v->state, 0u);
    ASSERT_EQ(v->cycle.size(), 3u);
    for (const auto& arc : v->cycle) {
      EXPECT_EQ(arc.to, 0u);
      EXPECT_EQ(arc.witness, rot);
    }
    EXPECT_NE(v->detail.find("SCC of 3 states"), std::string::npos)
        << v->detail;
  }

  // Unfair: every process's exit is enabled throughout and never fires.
  const StateGraph unfair = loop(rot, fixes | bits(DinersSystem::kExit));
  EXPECT_FALSE(check_convergence(unfair, {0}).has_value());
  EXPECT_FALSE(check_no_starvation(unfair, codec, 0).has_value());

  // Under the identity witness the loop never leaves its frame: only
  // (0, fixdepth) fires while the other two stay enabled.
  EXPECT_FALSE(
      check_convergence(loop(SymmetryGroup::kIdentity, fixes), {0})
          .has_value());
}

// ---------------------------------------------------------------------------
// Differential: the coset-frame search against a brute-force reference that
// runs one Tarjan over every (state, group element) product node. The lift
// argument uses only the group's action on frames, never the symmetry of
// the keys, so random quotient graphs with random witnesses are valid
// inputs.

/// The product of a quotient graph with its group (trivial when g.sym is
/// null), restricted to `bad` nodes minus `excluded` arcs: node (s, h) is
/// s * |G| + h and stands for A_{h^{-1}}(rep(s)).
class BruteForceProduct {
 public:
  using Elem = SymmetryGroup::ElemId;
  using Bad = std::function<bool(std::uint32_t, Elem)>;
  using Excluded = std::function<bool(Elem, const StateGraph::Arc&)>;

  BruteForceProduct(const StateGraph& g, Bad bad, Excluded excluded)
      : g_(g),
        order_(g.sym != nullptr ? g.sym->size() : 1),
        bad_(std::move(bad)),
        excluded_(std::move(excluded)),
        index_(g.num_states() * order_, -1),
        low_(index_.size(), 0),
        on_stack_(index_.size(), 0),
        scc_(index_.size(), -1) {
    for (std::size_t u = 0; u < index_.size(); ++u) {
      if (index_[u] < 0 && is_bad(u)) strong_connect(u);
    }
    std::vector<std::uint64_t> always(fair_.size(), ~std::uint64_t{0});
    std::vector<std::uint64_t> executed(fair_.size(), 0);
    std::vector<std::uint8_t> cyclic(fair_.size(), 0);
    for (std::size_t u = 0; u < index_.size(); ++u) {
      if (scc_[u] < 0) continue;
      const auto c = static_cast<std::size_t>(scc_[u]);
      const Elem h_inv = inverse(frame(u));
      always[c] &= permute_mask(h_inv, g_.enabled[state(u)]);
      for (const auto& arc : g_.arcs_of(state(u))) {
        const auto v = step(u, arc);
        if (!v || scc_[*v] != scc_[u]) continue;
        cyclic[c] = 1;
        executed[c] |= std::uint64_t{1} << permute_move(h_inv, arc.move);
      }
    }
    std::uint64_t joins = 0;
    for (std::uint16_t m = DinersSystem::kJoin; m < 64;
         m += DinersSystem::kNumActions) {
      joins |= std::uint64_t{1} << m;
    }
    for (std::size_t c = 0; c < fair_.size(); ++c) {
      fair_[c] = cyclic[c] != 0 && (always[c] & ~joins & ~executed[c]) == 0;
    }
  }

  [[nodiscard]] std::size_t order() const { return order_; }
  [[nodiscard]] bool any_fair() const {
    return std::find(fair_.begin(), fair_.end(), 1) != fair_.end();
  }

  /// Whether `cycle`, walked from (s, h), stays inside one fair SCC and
  /// closes at (s, h).
  [[nodiscard]] bool closes_in_fair_scc(
      std::uint32_t s, Elem h, const std::vector<StateGraph::Arc>& cycle) const {
    const std::size_t start = s * order_ + h;
    if (scc_[start] < 0 || fair_[static_cast<std::size_t>(scc_[start])] == 0) {
      return false;
    }
    std::size_t u = start;
    for (const auto& arc : cycle) {
      const auto out = g_.arcs_of(state(u));
      const bool listed =
          std::any_of(out.begin(), out.end(), [&](const StateGraph::Arc& a) {
            return a.to == arc.to && a.move == arc.move &&
                   a.witness == arc.witness;
          });
      const auto v = step(u, arc);
      if (!listed || !v || scc_[*v] != scc_[start]) return false;
      u = *v;
    }
    return u == start;
  }

 private:
  [[nodiscard]] std::uint32_t state(std::size_t u) const {
    return static_cast<std::uint32_t>(u / order_);
  }
  [[nodiscard]] Elem frame(std::size_t u) const {
    return static_cast<Elem>(u % order_);
  }
  [[nodiscard]] bool is_bad(std::size_t u) const {
    return bad_(state(u), frame(u));
  }
  [[nodiscard]] Elem inverse(Elem h) const {
    return g_.sym != nullptr ? g_.sym->inverse(h) : h;
  }
  [[nodiscard]] std::uint64_t permute_mask(Elem e, std::uint64_t m) const {
    return g_.sym != nullptr ? g_.sym->permute_mask(e, m) : m;
  }
  [[nodiscard]] std::uint16_t permute_move(Elem e, std::uint16_t m) const {
    return g_.sym != nullptr ? g_.sym->permute_move(e, m) : m;
  }

  /// The product arc from u along `arc`, if it is kept and ends bad.
  [[nodiscard]] std::optional<std::size_t> step(
      std::size_t u, const StateGraph::Arc& arc) const {
    if (excluded_(frame(u), arc)) return std::nullopt;
    const Elem t =
        g_.sym != nullptr ? g_.sym->compose(arc.witness, frame(u)) : 0;
    const std::size_t v = arc.to * order_ + t;
    if (!is_bad(v)) return std::nullopt;
    return v;
  }

  void strong_connect(std::size_t u) {
    index_[u] = low_[u] = counter_++;
    stack_.push_back(u);
    on_stack_[u] = 1;
    for (const auto& arc : g_.arcs_of(state(u))) {
      const auto v = step(u, arc);
      if (!v) continue;
      if (index_[*v] < 0) {
        strong_connect(*v);
        low_[u] = std::min(low_[u], low_[*v]);
      } else if (on_stack_[*v] != 0) {
        low_[u] = std::min(low_[u], index_[*v]);
      }
    }
    if (low_[u] != index_[u]) return;
    const auto id = static_cast<int>(fair_.size());
    fair_.push_back(0);
    std::size_t v;
    do {
      v = stack_.back();
      stack_.pop_back();
      on_stack_[v] = 0;
      scc_[v] = id;
    } while (v != u);
  }

  const StateGraph& g_;
  std::size_t order_;
  Bad bad_;
  Excluded excluded_;
  std::vector<int> index_, low_;
  std::vector<std::uint8_t> on_stack_;
  std::vector<int> scc_;  ///< node -> SCC id, -1 for good nodes
  std::vector<std::uint8_t> fair_;  ///< SCC id -> fair-feasible
  std::vector<std::size_t> stack_;
  int counter_ = 0;
};

TEST(FairCycleDifferential, CosetSearchMatchesTheBruteForceProduct) {
  struct Family {
    std::string name;
    graph::Graph topo;
    bool reduced;
    bool fix_node0;  ///< use the stabilizer of node 0 instead of Aut
  };
  std::vector<Family> families;
  families.push_back({"K3 under S3", graph::make_complete(3), true, false});
  families.push_back({"ring-4 under D4", graph::make_ring(4), true, false});
  families.push_back(
      {"ring-4 under the stabilizer of 0", graph::make_ring(4), true, true});
  families.push_back({"K3 unreduced", graph::make_complete(3), false, false});

  util::Xoshiro256 rng(27);
  std::size_t graphs = 0;
  std::map<std::string, std::size_t> outcomes;
  for (const auto& fam : families) {
    const StateCodec codec(fam.topo, 0, 1);
    const auto n = static_cast<P>(fam.topo.num_nodes());
    std::shared_ptr<const SymmetryGroup> group;
    if (fam.reduced) {
      group = std::make_shared<SymmetryGroup>(
          codec, graph::automorphism_generators(fam.topo));
      if (fam.fix_node0) {
        std::vector<std::uint8_t> label(n, 0);
        label[0] = 1;
        group = group->stabilizer(label);
      }
    }
    for (int trial = 0; trial < 150; ++trial, ++graphs) {
      const auto states = static_cast<std::uint32_t>(1 + rng.below(12));
      std::vector<std::uint64_t> enabled(states, 0);
      std::vector<std::vector<StateGraph::Arc>> arcs(states);
      for (std::uint32_t s = 0; s < states; ++s) {
        const std::uint64_t out = rng.chance(1.0 / 16) ? 0 : 1 + rng.below(3);
        for (std::uint64_t a = 0; a < out; ++a) {
          const auto move = protocol_move(
              static_cast<P>(rng.below(n)),
              static_cast<sim::ActionIndex>(
                  rng.below(DinersSystem::kNumActions)));
          const auto witness = static_cast<SymmetryGroup::ElemId>(
              group != nullptr ? rng.below(group->size()) : 0);
          arcs[s].push_back(StateGraph::Arc{
              static_cast<std::uint32_t>(rng.below(states)), move, witness});
          enabled[s] |= std::uint64_t{1} << move;
        }
        for (std::uint16_t m = 0; m < n * DinersSystem::kNumActions; ++m) {
          if (rng.chance(1.0 / 8)) enabled[s] |= std::uint64_t{1} << m;
        }
      }
      StateGraph g = tiny_graph(std::move(enabled), std::move(arcs));
      g.sym = group;
      std::vector<std::uint8_t> inv(states);
      for (std::uint32_t s = 0; s < states; ++s) {
        inv[s] = rng.chance(0.25) ? 1 : 0;
        for (P p = 0; p < n; ++p) {
          const auto diner = rng.chance(0.5)   ? core::DinerState::kHungry
                             : rng.chance(0.5) ? core::DinerState::kThinking
                                               : core::DinerState::kEating;
          key_set_bits(g.keys[s], codec.state_pos(p), 2,
                       static_cast<std::uint64_t>(diner));
        }
      }
      const std::string ctx =
          fam.name + " trial " + std::to_string(trial);

      // The check agrees with the reference: the first terminal state of
      // `live` is stuck; otherwise a violation exists iff the product has a
      // fair SCC, and the reported cycle closes inside one from its state.
      const auto agree = [&](const std::optional<Violation>& v,
                             const std::vector<std::uint8_t>& live,
                             const BruteForceProduct& ref,
                             const std::string& what) {
        std::optional<std::uint32_t> stuck;
        for (std::uint32_t s = 0; s < states && !stuck; ++s) {
          if (live[s] != 0 && g.succ_begin[s] == g.succ_begin[s + 1]) {
            stuck = s;
          }
        }
        ++outcomes[what.substr(0, what.find(' ')) + " " +
                   (stuck ? "stuck" : ref.any_fair() ? "cycle" : "ok")];
        if (stuck) {
          ASSERT_TRUE(v.has_value()) << ctx << " " << what;
          EXPECT_EQ(v->kind, Violation::Kind::kStuck) << ctx << " " << what;
          EXPECT_EQ(v->state, *stuck) << ctx << " " << what;
          return;
        }
        ASSERT_EQ(v.has_value(), ref.any_fair()) << ctx << " " << what;
        if (!v) return;
        EXPECT_EQ(v->kind, Violation::Kind::kCycle) << ctx << " " << what;
        bool closes = false;
        for (std::size_t h = 0; h < ref.order() && !closes; ++h) {
          closes = ref.closes_in_fair_scc(
              v->state, static_cast<SymmetryGroup::ElemId>(h), v->cycle);
        }
        EXPECT_TRUE(closes) << ctx << " " << what << ": " << v->detail;
      };

      std::vector<std::uint8_t> not_inv(states);
      for (std::uint32_t s = 0; s < states; ++s) not_inv[s] = 1 - inv[s];
      agree(check_convergence(g, inv), not_inv,
            BruteForceProduct(
                g, [&](std::uint32_t s, auto) { return inv[s] == 0; },
                [](auto, const auto&) { return false; }),
            "convergence");

      for (P p = 0; p < n; ++p) {
        const auto at = [&](SymmetryGroup::ElemId h) {
          return group != nullptr ? group->apply_node(h, p) : p;
        };
        const auto hungry = [&](std::uint32_t s, P q) {
          return codec.state_of(g.keys[s], q) == core::DinerState::kHungry;
        };
        std::vector<std::uint8_t> live(states, 0);
        for (std::uint32_t s = 0; s < states; ++s) {
          for (std::size_t h = 0; h < (group ? group->size() : 1); ++h) {
            if (hungry(s, at(static_cast<SymmetryGroup::ElemId>(h)))) {
              live[s] = 1;
            }
          }
        }
        agree(check_no_starvation(g, codec, p), live,
              BruteForceProduct(
                  g,
                  [&](std::uint32_t s, SymmetryGroup::ElemId h) {
                    return hungry(s, at(h));
                  },
                  [&](SymmetryGroup::ElemId h, const StateGraph::Arc& arc) {
                    return move_action(arc.move) == DinersSystem::kEnter &&
                           move_process(arc.move) == at(h);
                  }),
              "starvation of " + std::to_string(p));
      }
    }
  }
  // Every outcome occurs often, so that a search that misses real cycles or
  // reports spurious ones cannot pass by never meeting either.
  EXPECT_GE(graphs, 500u);
  for (const char* check : {"convergence", "starvation"}) {
    for (const char* outcome : {"stuck", "cycle", "ok"}) {
      EXPECT_GE(outcomes[std::string(check) + " " + outcome], 100u)
          << check << " " << outcome;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end on real explorations.

DinersSystem hungry_system(graph::Graph g, DinersConfig cfg = {}) {
  DinersSystem s(std::move(g), cfg);
  for (P p = 0; p < s.topology().num_nodes(); ++p) s.set_needs(p, true);
  return s;
}

StateGraph explore_box(DinersSystem& scratch, const StateCodec& codec,
                       Explorer::Options opts = {}) {
  Explorer explorer(scratch, codec, opts);
  return explorer.explore(codec.domain_keys());
}

TEST(Theorems, TriangleSoundThresholdSatisfiesAllProperties) {
  DinersConfig cfg;
  cfg.diameter_override = 2;
  DinersSystem scratch = hungry_system(graph::make_complete(3), cfg);
  const StateCodec codec(scratch.topology(), 0, 3);
  StateGraph g = explore_box(scratch, codec);
  ASSERT_TRUE(g.complete);

  const auto inv = label_invariant(g, codec, scratch);
  EXPECT_FALSE(check_closure(g, inv).has_value());
  EXPECT_FALSE(check_convergence(g, inv).has_value());
  for (P p = 0; p < 3; ++p) {
    EXPECT_FALSE(check_no_starvation(g, codec, p).has_value())
        << "process " << p << " starves";
  }
}

TEST(Theorems, NoFixdepthMutationBreaksConvergence) {
  // With fixdepth disabled, a seeded priority cycle is never broken: the
  // checker must find a fair run that stays outside I forever.
  DinersConfig cfg;
  cfg.diameter_override = 2;
  DinersSystem scratch = hungry_system(graph::make_complete(3), cfg);
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer::Options opts;
  opts.mutation = GuardMutation::kNoFixdepth;
  StateGraph g = explore_box(scratch, codec, opts);
  ASSERT_TRUE(g.complete);

  const auto inv = label_invariant(g, codec, scratch);
  const auto v = check_convergence(g, inv);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->kind, Violation::Kind::kCycle);
  EXPECT_FALSE(v->cycle.empty());
}

TEST(Theorems, LocalityTwoHoldsOnPath4UnderADemonicVictim) {
  // Crash an endpoint of path-4 maliciously: the far end (distance 3) must
  // neither keep an eating violation nor starve. Instance-seeded to keep the
  // demonized space small.
  DinersConfig cfg;
  cfg.diameter_override = 3;  // sound for n = 4
  DinersSystem prototype = hungry_system(graph::make_path(4), cfg);
  const StateCodec codec(prototype.topology(), 0, 4);

  DinersSystem healthy_scratch = core::clone(prototype);
  Explorer healthy(healthy_scratch, codec, {});
  const Key seed = codec.encode(prototype);
  const StateGraph hg = healthy.explore(std::span<const Key>(&seed, 1));
  ASSERT_TRUE(hg.complete);

  DinersSystem crashed_scratch = core::clone(prototype);
  crashed_scratch.crash(0);
  Explorer::Options opts;
  opts.demon_victim = 0;
  Explorer demon(crashed_scratch, codec, opts);
  const StateGraph cg = demon.explore(hg.keys);
  ASSERT_TRUE(cg.complete);
  EXPECT_GT(cg.num_states(), hg.num_states());

  const std::vector<P> dead{0};
  const auto dist = graph::distances_to_set(prototype.topology(),
                                            std::span<const P>(dead));
  const auto far_bad = label_far_violation(cg, codec, crashed_scratch, dist,
                                           2);
  EXPECT_FALSE(check_far_safety(cg, far_bad).has_value());
  for (P p = 0; p < 4; ++p) {
    if (dist[p] <= 2) continue;
    EXPECT_FALSE(check_no_starvation(cg, codec, p).has_value())
        << "far process " << p << " starves";
  }
}

TEST(Theorems, LabelInvariantAgreesWithTheNaiveOracle) {
  DinersConfig cfg;
  cfg.diameter_override = 2;
  DinersSystem scratch = hungry_system(graph::make_path(3), cfg);
  const StateCodec codec(scratch.topology(), 0, 2);
  StateGraph g = explore_box(scratch, codec);
  const auto inv = label_invariant(g, codec, scratch);
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    codec.decode(g.keys[i], scratch);
    EXPECT_EQ(inv[i] != 0, analysis::holds_invariant(scratch)) << i;
  }
}

}  // namespace
}  // namespace diners::verify
