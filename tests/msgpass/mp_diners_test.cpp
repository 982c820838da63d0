// Tests for the message-passing transformation (Section 4 of the paper).
#include "msgpass/mp_diners.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace diners::msgpass {
namespace {

using core::DinerState;
using P = MessagePassingDiners::ProcessId;

TEST(MpDiners, RejectsBadModulus) {
  MpOptions options;
  options.handshake_modulus = 1;
  EXPECT_THROW(MessagePassingDiners(graph::make_path(3), {}, options),
               std::invalid_argument);
}

TEST(MpDiners, BottomHoldsTokensInitially) {
  MessagePassingDiners s(graph::make_path(3));
  // Edge {0,1}: 0 is bottom and counters agree -> 0 privileged.
  const auto e01 = s.topology().edge_index(0, 1);
  const auto e12 = s.topology().edge_index(1, 2);
  EXPECT_TRUE(s.holds_token(0, e01));
  EXPECT_FALSE(s.holds_token(1, e01));
  EXPECT_TRUE(s.holds_token(1, e12));
  EXPECT_FALSE(s.holds_token(2, e12));
}

TEST(MpDiners, TokenExclusionIsStructural) {
  // At any reachable point, at most one endpoint of an edge believes it is
  // privileged *after the channels flush*; from a clean start this holds at
  // every step because caches begin consistent.
  MessagePassingDiners s(graph::make_ring(5));
  for (int i = 0; i < 4000; ++i) {
    s.step();
    for (const auto& e : s.topology().edges()) {
      const auto idx = s.topology().edge_index(e.u, e.v);
      // Both ends privileged simultaneously would mean a duplicated token.
      EXPECT_FALSE(s.holds_token(e.u, idx) && s.holds_token(e.v, idx))
          << "step " << i;
    }
  }
}

TEST(MpDiners, EveryoneEatsFaultFree) {
  MessagePassingDiners s(graph::make_ring(6));
  s.run(60000);
  for (P p = 0; p < 6; ++p) {
    EXPECT_GT(s.meals(p), 0u) << "process " << p;
  }
}

TEST(MpDiners, SafetyHoldsFromCleanStart) {
  MessagePassingDiners s(graph::make_ring(6));
  for (int i = 0; i < 30000; ++i) {
    s.step();
    ASSERT_EQ(s.eating_violations(), 0u) << "step " << i;
  }
}

TEST(MpDiners, EventualSafetyAfterCorruption) {
  // From arbitrary local state + garbage channels, exclusion is restored
  // once the handshakes flush, and stays.
  MessagePassingDiners s(graph::make_ring(6));
  util::Xoshiro256 rng(5);
  s.corrupt(rng);
  s.run(30000);  // flush + stabilize
  for (int i = 0; i < 20000; ++i) {
    s.step();
    ASSERT_EQ(s.eating_violations(), 0u) << "step " << i;
  }
}

TEST(MpDiners, LivenessAfterCorruption) {
  MessagePassingDiners s(graph::make_path(6));
  util::Xoshiro256 rng(6);
  s.corrupt(rng);
  s.run(40000);
  const auto before = s.total_meals();
  s.run(40000);
  EXPECT_GT(s.total_meals(), before);
}

TEST(MpDiners, CrashContainedOnPath) {
  MessagePassingDiners s(graph::make_path(8));
  s.run(20000);
  s.crash(0);
  s.run(30000);  // absorb
  std::vector<std::uint64_t> base(8);
  for (P p = 0; p < 8; ++p) base[p] = s.meals(p);
  s.run(60000);
  // Distance >= 3 from the dead process keeps eating.
  for (P p = 3; p < 8; ++p) {
    EXPECT_GT(s.meals(p), base[p]) << "process " << p;
  }
}

TEST(MpDiners, MessageCountsTracked) {
  MessagePassingDiners s(graph::make_ring(5));
  s.run(5000);
  EXPECT_GT(s.messages_sent(), 0u);
  EXPECT_GT(s.messages_delivered(), 0u);
  EXPECT_GE(s.messages_sent(), s.messages_delivered());
}

TEST(MpDiners, DeterministicForSeed) {
  MpOptions options;
  options.seed = 42;
  MessagePassingDiners a(graph::make_ring(6), {}, options);
  MessagePassingDiners b(graph::make_ring(6), {}, options);
  a.run(20000);
  b.run(20000);
  for (P p = 0; p < 6; ++p) EXPECT_EQ(a.meals(p), b.meals(p));
  EXPECT_EQ(a.messages_sent(), b.messages_sent());
}

TEST(MpDiners, DeadProcessFreezesTokens) {
  MessagePassingDiners s(graph::make_path(3));
  s.crash(1);
  const auto before = s.messages_sent();
  // Only ticks of 0 and 2 generate traffic; 1 stays silent.
  s.run(2000);
  EXPECT_GT(s.messages_sent(), before);
  EXPECT_EQ(s.state(1), DinerState::kThinking);  // frozen forever
}

TEST(MpDiners, LivenessSurvivesHeavyMessageLoss) {
  MpOptions options;
  options.network_faults.drop = 0.3;
  options.seed = 9;
  MessagePassingDiners s(graph::make_ring(6), {}, options);
  s.run(150000);
  EXPECT_GT(s.network().total_dropped(), 1000u);  // the loss really happened
  for (P p = 0; p < 6; ++p) {
    EXPECT_GT(s.meals(p), 0u) << "process " << p;
  }
}

TEST(MpDiners, SafetyHoldsUnderMessageLoss) {
  // Loss only delays tokens; it cannot duplicate them, so exclusion is
  // unaffected from a clean start.
  MpOptions options;
  options.network_faults.drop = 0.25;
  options.seed = 10;
  MessagePassingDiners s(graph::make_ring(6), {}, options);
  for (int i = 0; i < 40000; ++i) {
    s.step();
    ASSERT_EQ(s.eating_violations(), 0u) << "step " << i;
  }
}

TEST(MpDiners, RestartRejoinsAndEatsAgain) {
  MpOptions options;
  options.seed = 21;
  MessagePassingDiners s(graph::make_ring(6), {}, options);
  s.run(30000);
  s.crash(2);
  s.run(30000);  // absorb the crash
  const auto base = s.meals(2);
  s.restart(2);
  EXPECT_TRUE(s.alive(2));
  s.run(120000);
  // The rejoined process participates again: it eats beyond its pre-crash
  // count, and the handshake has re-stabilized (no lingering overlap).
  EXPECT_GT(s.meals(2), base);
  for (int i = 0; i < 10000; ++i) {
    s.step();
    ASSERT_EQ(s.eating_violations(), 0u) << "step " << i;
  }
}

TEST(MpDiners, RestartOnLiveProcessIsNoOp) {
  MessagePassingDiners s(graph::make_path(3));
  s.run(5000);
  const auto meals = s.total_meals();
  s.restart(1);  // alive: must not reset anything
  EXPECT_TRUE(s.alive(1));
  EXPECT_EQ(s.total_meals(), meals);
}

TEST(MpDiners, ConvergesOverUnreliableNetwork) {
  // Dolev & Herman's unsupportive environment: drop, duplicate, and
  // reorder active the whole run. Stabilization still delivers liveness,
  // and once the faults stop (quiescent window), safety returns and holds.
  MpOptions options;
  options.seed = 22;
  options.network_faults.drop = 0.01;
  options.network_faults.duplicate = 0.01;
  options.network_faults.reorder = 0.05;
  MessagePassingDiners s(graph::make_ring(6), {}, options);
  s.run(200000);
  for (P p = 0; p < 6; ++p) {
    EXPECT_GT(s.meals(p), 0u) << "process " << p;
  }
  s.network().set_fault_model({});
  s.run(30000);  // flush the damaged channels
  for (int i = 0; i < 20000; ++i) {
    s.step();
    ASSERT_EQ(s.eating_violations(), 0u) << "step " << i;
  }
}

TEST(MpDiners, UnreliableRunConservesMessages) {
  MpOptions options;
  options.seed = 23;
  options.network_faults.drop = 0.05;
  options.network_faults.duplicate = 0.05;
  options.network_faults.reorder = 0.1;
  options.network_faults.corrupt = 0.01;
  MessagePassingDiners s(graph::make_ring(5), {}, options);
  s.run(80000);
  const auto& net = s.network();
  EXPECT_GT(net.total_dropped(), 0u);
  EXPECT_GT(net.total_duplicated(), 0u);
  EXPECT_EQ(net.total_sent(),
            net.total_delivered() + net.total_dropped() + net.pending());
}

TEST(MpDiners, HoldEatingPinsTheMealUntilCleared) {
  // The lease primitive under the service layer: a pinned process that
  // reaches eating STAYS eating (its voluntary exit is deferred), its
  // neighbors stay excluded the whole time, and clearing the pin lets the
  // ordinary exit land.
  MpOptions options;
  options.seed = 31;
  MessagePassingDiners s(graph::make_path(3), {}, options);
  for (P p = 0; p < 3; ++p) s.set_needs(p, false);
  s.set_needs(1, true);
  s.set_hold_eating(1, true);
  EXPECT_TRUE(s.hold_eating(1));
  int guard = 0;
  while (s.state(1) != core::DinerState::kEating && guard++ < 100000) s.step();
  ASSERT_EQ(s.state(1), core::DinerState::kEating);
  const auto meals = s.meals(1);
  for (int i = 0; i < 20000; ++i) {
    s.step();
    ASSERT_EQ(s.state(1), core::DinerState::kEating) << "step " << i;
    ASSERT_EQ(s.eating_violations(), 0u);
  }
  EXPECT_EQ(s.meals(1), meals);  // one pinned meal, not thousands
  // Dropping the pin (and the appetite) releases the section.
  s.set_needs(1, false);
  s.set_hold_eating(1, false);
  guard = 0;
  while (s.state(1) == core::DinerState::kEating && guard++ < 100000) s.step();
  EXPECT_NE(s.state(1), core::DinerState::kEating);
}

TEST(MpDiners, RestartClearsTheEatingPin) {
  // A crashed holder must not come back still wedged in the critical
  // section: restart() clears the pin along with the protocol state.
  MpOptions options;
  options.seed = 32;
  MessagePassingDiners s(graph::make_path(2), {}, options);
  s.set_needs(1, false);
  s.set_hold_eating(0, true);
  int guard = 0;
  while (s.state(0) != core::DinerState::kEating && guard++ < 100000) s.step();
  ASSERT_EQ(s.state(0), core::DinerState::kEating);
  s.crash(0);
  s.restart(0);
  EXPECT_FALSE(s.hold_eating(0));
  s.set_needs(1, true);
  s.run(50000);
  EXPECT_GT(s.meals(1), 0u);  // the neighbor is not starved by a stale pin
}

TEST(MpDiners, TotalLossFreezesProgressButNothingBreaks) {
  MpOptions options;
  options.network_faults.drop = 1.0;
  options.seed = 11;
  MessagePassingDiners s(graph::make_path(4), {}, options);
  s.run(20000);
  // With every message lost, caches never update; nobody beyond the initial
  // token holders can coordinate. No crash, no exception, no violation.
  EXPECT_EQ(s.eating_violations(), 0u);
}

}  // namespace
}  // namespace diners::msgpass
