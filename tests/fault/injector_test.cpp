#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace diners::fault {
namespace {

using core::DinerState;
using core::DinersSystem;
using P = DinersSystem::ProcessId;

TEST(CorruptGlobal, TouchesOnlyConfiguredDomains) {
  DinersSystem s(graph::make_path(6));
  util::Xoshiro256 rng(1);
  CorruptionOptions opt;
  opt.corrupt_states = false;
  opt.corrupt_priorities = false;
  opt.corrupt_depths = true;
  corrupt_global_state(s, rng, opt);
  for (P p = 0; p < 6; ++p) {
    EXPECT_EQ(s.state(p), DinerState::kThinking);  // untouched
  }
  EXPECT_EQ(s.priority(0, 1), 0u);  // untouched
}

TEST(CorruptGlobal, DepthStaysInConfiguredRange) {
  DinersSystem s(graph::make_path(6));  // D = 5
  util::Xoshiro256 rng(2);
  CorruptionOptions opt;
  opt.depth_slack = 3;
  for (int round = 0; round < 20; ++round) {
    corrupt_global_state(s, rng, opt);
    for (P p = 0; p < 6; ++p) {
      EXPECT_GE(s.depth(p), -3);
      EXPECT_LE(s.depth(p), 8);
    }
  }
}

TEST(CorruptGlobal, NeedsPreservedByDefault) {
  DinersSystem s(graph::make_path(6));
  s.set_needs(3, false);
  util::Xoshiro256 rng(3);
  corrupt_global_state(s, rng);
  EXPECT_FALSE(s.needs(3));
}

TEST(CorruptGlobal, Deterministic) {
  DinersSystem a(graph::make_ring(8));
  DinersSystem b(graph::make_ring(8));
  util::Xoshiro256 ra(9);
  util::Xoshiro256 rb(9);
  corrupt_global_state(a, ra);
  corrupt_global_state(b, rb);
  for (P p = 0; p < 8; ++p) {
    EXPECT_EQ(a.state(p), b.state(p));
    EXPECT_EQ(a.depth(p), b.depth(p));
  }
  for (const auto& e : a.topology().edges()) {
    EXPECT_EQ(a.priority(e.u, e.v), b.priority(e.u, e.v));
  }
}

TEST(CorruptProcess, OnlyTouchesProcessAndIncidentEdges) {
  DinersSystem s(graph::make_path(5));
  util::Xoshiro256 rng(4);
  corrupt_process_state(s, 2, rng);
  // Far-away state untouched.
  EXPECT_EQ(s.state(0), DinerState::kThinking);
  EXPECT_EQ(s.depth(4), 0);
  EXPECT_EQ(s.priority(0, 1), 0u);
}

TEST(MaliciousCrash, ZeroStepsIsBenign) {
  DinersSystem s(graph::make_path(5));
  util::Xoshiro256 rng(5);
  malicious_crash(s, 2, 0, rng);
  EXPECT_FALSE(s.alive(2));
  EXPECT_EQ(s.state(2), DinerState::kThinking);
  EXPECT_EQ(s.depth(2), 0);
}

TEST(MaliciousCrash, AlwaysEndsDead) {
  DinersSystem s(graph::make_ring(6));
  util::Xoshiro256 rng(6);
  malicious_crash(s, 3, 64, rng);
  EXPECT_FALSE(s.alive(3));
}

TEST(MaliciousCrash, WritesStayWithinVictimFootprint) {
  // Only the victim's own variables and its incident edge variables may
  // change, whatever the malicious steps do.
  DinersSystem s(graph::make_path(6));
  util::Xoshiro256 rng(7);
  malicious_crash(s, 2, 128, rng);
  EXPECT_EQ(s.state(0), DinerState::kThinking);
  EXPECT_EQ(s.state(4), DinerState::kThinking);
  EXPECT_EQ(s.depth(5), 0);
  EXPECT_EQ(s.priority(4, 5), 4u);  // non-incident edge untouched
}

TEST(CrashPlan, SortsEventsByStep) {
  CrashPlan plan({CrashEvent{50, 1, 0}, CrashEvent{10, 2, 0}});
  EXPECT_EQ(plan.events()[0].at_step, 10u);
  EXPECT_EQ(plan.events()[1].at_step, 50u);
}

TEST(CrashPlan, ApplyDueFiresInOrder) {
  DinersSystem s(graph::make_path(6));
  util::Xoshiro256 rng(8);
  CrashPlan plan({CrashEvent{10, 1, 0}, CrashEvent{20, 3, 0}});
  EXPECT_EQ(plan.apply_due(s, 5, rng), 0u);
  EXPECT_TRUE(s.alive(1));
  EXPECT_EQ(plan.apply_due(s, 10, rng), 1u);
  EXPECT_FALSE(s.alive(1));
  EXPECT_TRUE(s.alive(3));
  EXPECT_EQ(plan.apply_due(s, 100, rng), 1u);
  EXPECT_FALSE(s.alive(3));
  EXPECT_TRUE(plan.exhausted());
}

TEST(CrashPlan, ApplyDueConsumesDeadVictimsWithoutReinjecting) {
  // Idempotent firing: a victim already dead when its event comes due is
  // consumed silently (a dead process performs no writes), so replaying a
  // plan cannot corrupt the victim's neighborhood twice.
  DinersSystem s(graph::make_path(6));
  s.crash(1);
  s.set_state(1, DinerState::kEating);  // sentinel: a re-fire would scribble
  util::Xoshiro256 rng(12);
  CrashPlan plan({CrashEvent{10, 1, 32}, CrashEvent{10, 3, 0}});
  EXPECT_EQ(plan.apply_due(s, 10, rng), 1u);  // only 3 actually injected
  EXPECT_TRUE(plan.exhausted());
  EXPECT_FALSE(s.alive(3));
  EXPECT_EQ(s.state(1), DinerState::kEating);  // untouched
}

TEST(CrashPlan, ResetReArmsEveryEvent) {
  // The campaign loop: fire the plan, restart the victims, reset(), fire
  // again — the same template injects each round.
  DinersSystem s(graph::make_path(6));
  util::Xoshiro256 rng(13);
  CrashPlan plan({CrashEvent{10, 1, 0}, CrashEvent{20, 3, 0}});
  EXPECT_EQ(plan.apply_due(s, 100, rng), 2u);
  EXPECT_TRUE(plan.exhausted());
  s.restart(1);
  s.restart(3);
  plan.reset();
  EXPECT_FALSE(plan.exhausted());
  EXPECT_EQ(plan.apply_due(s, 100, rng), 2u);
  EXPECT_FALSE(s.alive(1));
  EXPECT_FALSE(s.alive(3));
}

TEST(CrashPlan, ResetWithoutRestartIsHarmless) {
  // Victims that never restarted are consumed without a second injection.
  DinersSystem s(graph::make_path(6));
  util::Xoshiro256 rng(14);
  CrashPlan plan({CrashEvent{10, 2, 16}});
  EXPECT_EQ(plan.apply_due(s, 100, rng), 1u);
  plan.reset();
  EXPECT_EQ(plan.apply_due(s, 100, rng), 0u);
  EXPECT_TRUE(plan.exhausted());
}

TEST(Restart, RevivesWithPaperLegalResetState) {
  DinersSystem s(graph::make_path(5));
  util::Xoshiro256 rng(15);
  malicious_crash(s, 2, 64, rng);  // scribble, then die
  ASSERT_FALSE(s.alive(2));
  s.restart(2);
  EXPECT_TRUE(s.alive(2));
  EXPECT_EQ(s.state(2), DinerState::kThinking);
  EXPECT_EQ(s.depth(2), 0);
  // Every incident edge yielded: the neighbors are the ancestors.
  EXPECT_EQ(s.priority(2, 1), 1u);
  EXPECT_EQ(s.priority(2, 3), 3u);
}

TEST(CrashPlan, RandomPicksDistinctVictims) {
  util::Xoshiro256 rng(9);
  const auto plan = CrashPlan::random(10, 4, 0, 8, rng);
  auto victims = plan.victims();
  std::sort(victims.begin(), victims.end());
  EXPECT_EQ(std::unique(victims.begin(), victims.end()), victims.end());
  EXPECT_EQ(victims.size(), 4u);
}

TEST(CrashPlan, RandomRejectsTooMany) {
  util::Xoshiro256 rng(9);
  EXPECT_THROW((void)CrashPlan::random(3, 4, 0, 0, rng),
               std::invalid_argument);
}

TEST(CrashPlan, SpreadKeepsVictimsApart) {
  const auto g = graph::make_path(30);
  util::Xoshiro256 rng(10);
  const auto plan = CrashPlan::spread(g, 3, 0, 0, /*min_separation=*/5, rng);
  const auto victims = plan.victims();
  ASSERT_GE(victims.size(), 2u);
  for (std::size_t i = 0; i < victims.size(); ++i) {
    for (std::size_t j = i + 1; j < victims.size(); ++j) {
      EXPECT_GT(graph::distance(g, victims[i], victims[j]), 5u);
    }
  }
}

TEST(CrashPlan, SpreadStopsEarlyWhenImpossible) {
  const auto g = graph::make_path(4);
  util::Xoshiro256 rng(11);
  const auto plan = CrashPlan::spread(g, 4, 0, 0, /*min_separation=*/10, rng);
  EXPECT_EQ(plan.victims().size(), 1u);
}

TEST(CrashPlan, SpreadExposesActualVictimCount) {
  // Regression: experiments reading back only the *requested* count would
  // report "4 crashes" while the plan silently injects 1.
  const auto g = graph::make_path(4);
  util::Xoshiro256 rng(11);
  const auto plan = CrashPlan::spread(g, 4, 0, 0, /*min_separation=*/10, rng);
  EXPECT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.size(), plan.victims().size());
}

TEST(CrashPlan, SpreadRequireExactThrowsOnShortfall) {
  const auto g = graph::make_path(4);
  util::Xoshiro256 rng(11);
  EXPECT_THROW(CrashPlan::spread(g, 4, 0, 0, /*min_separation=*/10, rng,
                                 /*require_exact=*/true),
               std::runtime_error);
}

TEST(CrashPlan, SpreadRequireExactSucceedsWhenFeasible) {
  const auto g = graph::make_path(30);
  util::Xoshiro256 rng(10);
  const auto plan = CrashPlan::spread(g, 3, 0, 0, /*min_separation=*/5, rng,
                                      /*require_exact=*/true);
  EXPECT_EQ(plan.size(), 3u);
}

TEST(ParseCrash, ParsesFullSpec) {
  const auto e = parse_crash_event("1000:7:32");
  EXPECT_EQ(e.at_step, 1000u);
  EXPECT_EQ(e.process, 7u);
  EXPECT_EQ(e.malicious_steps, 32u);
}

TEST(ParseCrash, MaliceDefaultsToBenign) {
  const auto e = parse_crash_event("250:3");
  EXPECT_EQ(e.at_step, 250u);
  EXPECT_EQ(e.process, 3u);
  EXPECT_EQ(e.malicious_steps, 0u);
}

TEST(ParseCrash, RejectsMalformedTokens) {
  EXPECT_THROW((void)parse_crash_event("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event("100"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event("100:seven"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event("100:7:many"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event("-5:7"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event("100:7 "), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event("100::3"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event(":7"), std::invalid_argument);
  EXPECT_THROW((void)parse_crash_event("100:7:4294967296"),  // 2^32: overflow
               std::invalid_argument);
}

TEST(ParseCrash, ListSplitsOnCommasAndSkipsEmptyTokens) {
  const auto events = parse_crash_list("500:3:8,,1500:13:0,");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at_step, 500u);
  EXPECT_EQ(events[0].process, 3u);
  EXPECT_EQ(events[0].malicious_steps, 8u);
  EXPECT_EQ(events[1].at_step, 1500u);
  EXPECT_EQ(events[1].process, 13u);
  EXPECT_EQ(events[1].malicious_steps, 0u);
}

TEST(ParseCrash, EmptyListIsEmpty) {
  EXPECT_TRUE(parse_crash_list("").empty());
}

TEST(ParseCrash, ListRejectsMalformedToken) {
  EXPECT_THROW(parse_crash_list("500:3:8,bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace diners::fault
