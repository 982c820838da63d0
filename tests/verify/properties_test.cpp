#include "verify/properties.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>

#include "analysis/invariants.hpp"
#include "core/serialize.hpp"
#include "graph/automorphisms.hpp"
#include "graph/generators.hpp"
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
