// Unit tests for the five actions of Figure 1, guard by guard, on small
// hand-built configurations.
#include "core/diners_system.hpp"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace diners::core {
namespace {

using P = DinersSystem::ProcessId;
using A = DinersSystem::Action;

// Path 0-1-2 with default orientation 0->1->2 (lower id = ancestor).
DinersSystem path3() { return DinersSystem(graph::make_path(3)); }

TEST(Construction, RequiresConnectedTopology) {
  graph::Graph::Builder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  EXPECT_THROW(DinersSystem(std::move(b).build()), std::invalid_argument);
}

TEST(Construction, InitialStateIsAllThinking) {
  auto s = path3();
  for (P p = 0; p < 3; ++p) {
    EXPECT_EQ(s.state(p), DinerState::kThinking);
    EXPECT_EQ(s.depth(p), 0);
    EXPECT_TRUE(s.needs(p));
    EXPECT_TRUE(s.alive(p));
    EXPECT_EQ(s.meals(p), 0u);
  }
  EXPECT_EQ(s.total_meals(), 0u);
}

TEST(Construction, InitialOrientationIsIdOrder) {
  auto s = path3();
  EXPECT_EQ(s.priority(0, 1), 0u);  // 0 is the ancestor endpoint
  EXPECT_EQ(s.priority(1, 2), 1u);
  EXPECT_TRUE(s.is_direct_ancestor(0, 1));
  EXPECT_FALSE(s.is_direct_ancestor(1, 0));
}

TEST(Construction, DiameterConstantDefaultsToTopologyDiameter) {
  EXPECT_EQ(path3().diameter_constant(), 2u);
  DinersConfig cfg;
  cfg.diameter_override = 7;
  DinersSystem s(graph::make_path(3), cfg);
  EXPECT_EQ(s.diameter_constant(), 7u);
}

TEST(Construction, ActionNamesMatchPaper) {
  auto s = path3();
  EXPECT_EQ(s.action_name(0, A::kJoin), "join");
  EXPECT_EQ(s.action_name(0, A::kLeave), "leave");
  EXPECT_EQ(s.action_name(0, A::kEnter), "enter");
  EXPECT_EQ(s.action_name(0, A::kExit), "exit");
  EXPECT_EQ(s.action_name(0, A::kFixDepth), "fixdepth");
  EXPECT_THROW((void)s.action_name(0, 5), std::out_of_range);
}

// --- join ----------------------------------------------------------------

TEST(Join, EnabledWhenThinkingAndAncestorsThinking) {
  auto s = path3();
  EXPECT_TRUE(s.enabled(1, A::kJoin));
}

TEST(Join, DisabledWithoutAppetite) {
  auto s = path3();
  s.set_needs(1, false);
  EXPECT_FALSE(s.enabled(1, A::kJoin));
}

TEST(Join, DisabledWhenAncestorHungry) {
  auto s = path3();
  s.set_state(0, DinerState::kHungry);  // 0 is 1's direct ancestor
  EXPECT_FALSE(s.enabled(1, A::kJoin));
}

TEST(Join, DisabledWhenAncestorEating) {
  auto s = path3();
  s.set_state(0, DinerState::kEating);
  EXPECT_FALSE(s.enabled(1, A::kJoin));
}

TEST(Join, IgnoresDescendantStates) {
  auto s = path3();
  s.set_state(2, DinerState::kEating);  // 2 is 1's descendant
  EXPECT_TRUE(s.enabled(1, A::kJoin));
}

TEST(Join, DisabledWhenAlreadyHungryOrEating) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  EXPECT_FALSE(s.enabled(1, A::kJoin));
  s.set_state(1, DinerState::kEating);
  EXPECT_FALSE(s.enabled(1, A::kJoin));
}

TEST(Join, ExecuteMakesHungry) {
  auto s = path3();
  s.execute(1, A::kJoin);
  EXPECT_EQ(s.state(1), DinerState::kHungry);
}

// --- leave (dynamic threshold) --------------------------------------------

TEST(Leave, EnabledWhenHungryWithNonThinkingAncestor) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.set_state(0, DinerState::kHungry);
  EXPECT_TRUE(s.enabled(1, A::kLeave));
}

TEST(Leave, DisabledWhenAncestorsAllThinking) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  EXPECT_FALSE(s.enabled(1, A::kLeave));
}

TEST(Leave, DisabledWhenThinking) {
  auto s = path3();
  s.set_state(0, DinerState::kHungry);
  EXPECT_FALSE(s.enabled(1, A::kLeave));
}

TEST(Leave, DescendantStateIrrelevant) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.set_state(2, DinerState::kEating);
  EXPECT_FALSE(s.enabled(1, A::kLeave));
}

TEST(Leave, ExecuteReturnsToThinking) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.set_state(0, DinerState::kEating);
  s.execute(1, A::kLeave);
  EXPECT_EQ(s.state(1), DinerState::kThinking);
}

// --- enter -----------------------------------------------------------------

TEST(Enter, EnabledWhenAncestorsThinkAndDescendantsNotEating) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  EXPECT_TRUE(s.enabled(1, A::kEnter));
}

TEST(Enter, DisabledWhenAncestorHungry) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.set_state(0, DinerState::kHungry);
  EXPECT_FALSE(s.enabled(1, A::kEnter));
}

TEST(Enter, DisabledWhenDescendantEating) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.set_state(2, DinerState::kEating);
  EXPECT_FALSE(s.enabled(1, A::kEnter));
}

TEST(Enter, HungryDescendantDoesNotBlock) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.set_state(2, DinerState::kHungry);
  EXPECT_TRUE(s.enabled(1, A::kEnter));
}

TEST(Enter, ExecuteCountsMeal) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.execute(1, A::kEnter);
  EXPECT_EQ(s.state(1), DinerState::kEating);
  EXPECT_EQ(s.meals(1), 1u);
  EXPECT_EQ(s.total_meals(), 1u);
}

// --- exit -------------------------------------------------------------------

TEST(Exit, EnabledWhenEating) {
  auto s = path3();
  s.set_state(1, DinerState::kEating);
  EXPECT_TRUE(s.enabled(1, A::kExit));
}

TEST(Exit, EnabledWhenDepthExceedsD) {
  auto s = path3();  // D = 2
  s.set_depth(1, 3);
  EXPECT_TRUE(s.enabled(1, A::kExit));
}

TEST(Exit, DisabledAtDepthExactlyD) {
  auto s = path3();
  s.set_depth(1, 2);
  EXPECT_FALSE(s.enabled(1, A::kExit));
}

TEST(Exit, ExecuteYieldsAllEdgesAndResetsDepth) {
  auto s = path3();
  s.set_state(1, DinerState::kEating);
  s.set_depth(1, 1);
  s.execute(1, A::kExit);
  EXPECT_EQ(s.state(1), DinerState::kThinking);
  EXPECT_EQ(s.depth(1), 0);
  // Both neighbors became ancestors of 1.
  EXPECT_EQ(s.priority(1, 0), 0u);
  EXPECT_EQ(s.priority(1, 2), 2u);
  EXPECT_TRUE(s.direct_descendants(1).empty());
}

TEST(Exit, SpuriousExitFromHungryAllowedByDepth) {
  auto s = path3();
  s.set_state(1, DinerState::kHungry);
  s.set_depth(1, 5);
  ASSERT_TRUE(s.enabled(1, A::kExit));
  s.execute(1, A::kExit);
  EXPECT_EQ(s.state(1), DinerState::kThinking);
  EXPECT_EQ(s.meals(1), 0u);  // no meal was recorded
}

// --- fixdepth ----------------------------------------------------------------

TEST(FixDepth, EnabledWhenDescendantDeeper) {
  auto s = path3();
  s.set_depth(2, 1);  // descendant of 1
  EXPECT_TRUE(s.enabled(1, A::kFixDepth));  // depth 1 is 0 < 1 + 1
}

TEST(FixDepth, EnabledAtEqualDepthPlusOne) {
  auto s = path3();
  // depth(1)=0, descendant depth(2)=0: 0 < 0+1, still enabled.
  EXPECT_TRUE(s.enabled(1, A::kFixDepth));
}

TEST(FixDepth, DisabledWhenAlreadyAhead) {
  auto s = path3();
  s.set_depth(1, 1);
  EXPECT_FALSE(s.enabled(1, A::kFixDepth));
}

TEST(FixDepth, DisabledForSink) {
  auto s = path3();
  EXPECT_FALSE(s.enabled(2, A::kFixDepth));  // 2 has no descendants
}

TEST(FixDepth, ExecuteTakesMaxDescendantPlusOne) {
  auto s = path3();
  s.set_depth(2, 4);
  s.execute(1, A::kFixDepth);
  EXPECT_EQ(s.depth(1), 5);
}

TEST(FixDepth, NegativeCorruptedDepthRecovers) {
  auto s = path3();
  s.set_depth(1, -100);
  ASSERT_TRUE(s.enabled(1, A::kFixDepth));
  s.execute(1, A::kFixDepth);
  EXPECT_EQ(s.depth(1), 1);
}

TEST(FixDepth, SaturatesAtInt64Max) {
  // A replay file may hold any int64 depth. Dead process 0 sits at
  // INT64_MAX below live process 1 (the ring-4 fixture of
  // tests/data/fixdepth_int64_max.cex): max + 1 would overflow, so the
  // command saturates, and the guard depth <= max still holds afterwards.
  DinersConfig cfg;
  cfg.diameter_override = 3;
  DinersSystem s(graph::make_ring(4), cfg);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  s.set_priority(0, 1, 1);
  s.set_depth(0, kMax);
  s.crash(0);
  ASSERT_TRUE(s.enabled(1, A::kFixDepth));
  s.execute(1, A::kFixDepth);
  EXPECT_EQ(s.depth(1), kMax);
  EXPECT_TRUE(s.enabled(1, A::kFixDepth));
  EXPECT_NE(s.guard_mask(1) & (1u << A::kFixDepth), 0u);
  EXPECT_TRUE(s.enabled(1, A::kExit));  // depth > D: exit breaks the loop
}

// --- crash & misc -----------------------------------------------------------

TEST(Crash, DeadProcessKeepsReadableState) {
  auto s = path3();
  s.set_state(0, DinerState::kEating);
  s.crash(0);
  EXPECT_FALSE(s.alive(0));
  EXPECT_EQ(s.state(0), DinerState::kEating);
  EXPECT_EQ(s.dead_count(), 1u);
  const std::vector<P> expected = {0};
  EXPECT_EQ(s.dead_processes(), expected);
}

TEST(Crash, Idempotent) {
  auto s = path3();
  s.crash(0);
  s.crash(0);
  EXPECT_EQ(s.dead_count(), 1u);
}

TEST(Execute, ThrowsWhenGuardFalse) {
  auto s = path3();
  EXPECT_THROW(s.execute(0, A::kLeave), std::logic_error);
}

TEST(Priority, NonNeighborsThrow) {
  auto s = path3();
  EXPECT_THROW((void)s.priority(0, 2), std::invalid_argument);
  EXPECT_THROW(s.set_priority(0, 2, 0), std::invalid_argument);
}

TEST(Priority, OwnerMustBeEndpoint) {
  auto s = path3();
  EXPECT_THROW(s.set_priority(0, 1, 2), std::invalid_argument);
}

TEST(Orientation, MatchesAncestorLists) {
  auto s = path3();
  const auto o = s.orientation();
  ASSERT_EQ(o.ancestors.size(), 3u);
  EXPECT_TRUE(o.ancestors[0].empty());
  EXPECT_EQ(o.ancestors[1], std::vector<graph::NodeId>{0});
  EXPECT_EQ(o.ancestors[2], std::vector<graph::NodeId>{1});
}

TEST(Meals, ResetClearsCounters) {
  auto s = path3();
  s.set_state(0, DinerState::kHungry);
  s.execute(0, A::kEnter);
  ASSERT_EQ(s.total_meals(), 1u);
  s.reset_meals();
  EXPECT_EQ(s.total_meals(), 0u);
  EXPECT_EQ(s.meals(0), 0u);
}

}  // namespace
}  // namespace diners::core
