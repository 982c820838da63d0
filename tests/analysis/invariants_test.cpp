#include "analysis/invariants.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/figure2.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"
#include "verify/canonical.hpp"

namespace diners::analysis {
namespace {

using core::DinerState;
using core::DinersSystem;
using P = DinersSystem::ProcessId;

TEST(NC, HoldsInInitialState) {
  DinersSystem s(graph::make_ring(6));
  EXPECT_TRUE(holds_nc(s));
}

TEST(NC, DetectsSeededCycle) {
  DinersSystem s(graph::make_ring(4));
  for (P p = 0; p < 4; ++p) s.set_priority(p, (p + 1) % 4, p);
  EXPECT_FALSE(holds_nc(s));
}

TEST(NC, DeadProcessExcusesCycle) {
  DinersSystem s(graph::make_ring(4));
  for (P p = 0; p < 4; ++p) s.set_priority(p, (p + 1) % 4, p);
  s.crash(2);
  EXPECT_TRUE(holds_nc(s));
}

TEST(E, HoldsWhenNoNeighborsEat) {
  DinersSystem s(graph::make_path(4));
  s.set_state(0, DinerState::kEating);
  s.set_state(2, DinerState::kEating);  // not neighbors
  EXPECT_TRUE(holds_e(s));
  EXPECT_EQ(eating_violation_count(s), 0u);
}

TEST(E, DetectsEatingNeighbors) {
  DinersSystem s(graph::make_path(4));
  s.set_state(1, DinerState::kEating);
  s.set_state(2, DinerState::kEating);
  EXPECT_FALSE(holds_e(s));
  EXPECT_EQ(eating_violation_count(s), 1u);
}

TEST(E, BothDeadNeighborsExcused) {
  DinersSystem s(graph::make_path(4));
  s.set_state(1, DinerState::kEating);
  s.set_state(2, DinerState::kEating);
  s.crash(1);
  EXPECT_FALSE(holds_e(s));  // one live endpoint still counts
  s.crash(2);
  EXPECT_TRUE(holds_e(s));
}

TEST(ST, HoldsInInitialStateOnTrees) {
  // On trees every simple path is at most the diameter, so the id-order
  // initial orientation with zero depths is shallow everywhere.
  EXPECT_TRUE(holds_st(DinersSystem(graph::make_path(8))));
  EXPECT_TRUE(holds_st(DinersSystem(graph::make_star(8))));
  EXPECT_TRUE(holds_st(DinersSystem(graph::make_binary_tree(15))));
}

TEST(ST, ViolatedByOverDeepProcess) {
  DinersSystem s(graph::make_path(4));  // D = 3
  s.set_depth(1, 9);
  EXPECT_FALSE(holds_st(s));
}

TEST(ST, DeadProcessIsShallowButItsFrozenDepthPoisonsLiveAncestors) {
  // The dead process itself is stably shallow by definition, but a live
  // ancestor reading its frozen over-deep value is not — it must escape by
  // a (spurious) exit, after which the toxic edge points the other way and
  // ST converges.
  DinersSystem s(graph::make_path(4));  // 0 -> 1 -> 2 -> 3, D = 3
  s.set_depth(1, 9);
  s.crash(1);
  const auto stable = stably_shallow_processes(s);
  EXPECT_TRUE(stable[1]);   // dead
  EXPECT_FALSE(stable[0]);  // 1 is 0's descendant with frozen depth 9
  EXPECT_FALSE(holds_st(s));
  sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
  engine.run(5000);
  EXPECT_TRUE(holds_st(s));  // 0 exited; the 0-1 edge now points at 0
  EXPECT_TRUE(s.is_direct_ancestor(1, 0));
}

TEST(ST, ShallowButUnstableIsNotStable) {
  // 0 -> 1 -> 2 -> 3 (id orientation). Make the sink 3 deep; its ancestors
  // are shallow themselves but reach a deep descendant.
  DinersSystem s(graph::make_path(4));
  s.set_depth(3, 5);  // depth > D = 3: 3 is deep
  const auto shallow = shallow_processes(s);
  const auto stable = stably_shallow_processes(s);
  EXPECT_FALSE(shallow[3]);
  EXPECT_FALSE(stable[3]);
  EXPECT_FALSE(stable[2]);  // reaches deep 3
  EXPECT_FALSE(stable[0]);
}

TEST(ST, FixdepthDisabledDisjunctCounts) {
  // Descendant deeper than D would suggest trouble, but if p's depth is
  // already past it, p's fixdepth is disabled and p can stay shallow.
  DinersSystem s(graph::make_path(3));  // D = 2, orientation 0->1->2
  s.set_depth(2, 1);
  s.set_depth(1, 2);
  s.set_depth(0, 2);
  // SH(1): depth 2 <= 2; desc 2: depth 1 + l(1)=2 = 3 > 2 but 1+1 <= 2. OK.
  const auto shallow = shallow_processes(s);
  EXPECT_TRUE(shallow[1]);
}

TEST(ST, DepthNearInt64MaxDoesNotWrapTheShallowTest) {
  // A replay file may write any int64 depth. Process 1's dead descendant 0
  // holds INT64_MAX, so SH:1 fails: INT64_MAX > D - l:1 and INT64_MAX >=
  // depth:1. Written as depth:q + l:p <= D and depth:q + 1 <= depth:p, both
  // tests overflow, and both oracle paths used to report that I holds.
  core::DinersConfig cfg;
  cfg.diameter_override = 3;
  DinersSystem s(graph::make_ring(4), cfg);
  s.set_priority(0, 1, 1);
  s.set_depth(0, std::numeric_limits<std::int64_t>::max());
  s.crash(0);
  EXPECT_FALSE(shallow_processes(s)[1]);
  EXPECT_FALSE(holds_st(s));
  EXPECT_FALSE(holds_invariant(s));
  const ShallowContext ctx(s);
  EXPECT_FALSE(holds_st(s, ctx));
  EXPECT_FALSE(holds_invariant(s, ctx));
}

TEST(Invariant, InitialTreeStateSatisfiesI) {
  DinersSystem s(graph::make_path(6));
  EXPECT_TRUE(holds_invariant(s));
}

TEST(Invariant, ClosedUnderExecutionOnTree) {
  // Run from a legitimate state; I must hold at every step (closure,
  // Theorem 1's closed half).
  DinersSystem s(graph::make_path(6));
  ASSERT_TRUE(holds_invariant(s));
  sim::Engine engine(s, sim::make_daemon("random", 5), 64);
  for (int i = 0; i < 2000; ++i) {
    if (!engine.step()) break;
    ASSERT_TRUE(holds_invariant(s)) << "I broken at step " << i;
  }
}

TEST(Invariant, ClosedUnderExecutionWithCrash) {
  DinersSystem s(graph::make_star(7));
  ASSERT_TRUE(holds_invariant(s));
  sim::Engine engine(s, sim::make_daemon("random", 6), 64);
  engine.run(200);
  s.crash(0);  // benign crash of the hub
  engine.reset_ages();
  for (int i = 0; i < 2000; ++i) {
    if (!engine.step()) break;
    ASSERT_TRUE(holds_invariant(s)) << "I broken at step " << i;
  }
}

TEST(Invariant, RegressionK3ClosureWitnessUnderPaperThreshold) {
  // The exact counterexample from the model checker (EXPERIMENTS.md E1):
  // on K3 with the paper's D = 1, the state [order 0>1>2, depths (1,0,-1),
  // process 2 eating] satisfies I, yet 2's ordinary exit breaks ST. This
  // pins the erratum to a 3-line witness; under the sound threshold D = 2
  // the same transition preserves I.
  {
    DinersSystem s(graph::make_ring(3));  // paper threshold: D = 1
    s.set_depth(0, 1);
    s.set_depth(1, 0);
    s.set_depth(2, -1);
    s.set_state(2, DinerState::kEating);
    ASSERT_TRUE(holds_invariant(s));
    s.execute(2, DinersSystem::kExit);
    EXPECT_FALSE(holds_st(s));  // process 1 became deep
    EXPECT_FALSE(holds_invariant(s));
  }
  {
    core::DinersConfig cfg;
    cfg.diameter_override = 2;  // sound threshold
    DinersSystem s(graph::make_ring(3), cfg);
    s.set_depth(0, 1);
    s.set_depth(1, 0);
    s.set_depth(2, -1);
    s.set_state(2, DinerState::kEating);
    ASSERT_TRUE(holds_invariant(s));
    s.execute(2, DinersSystem::kExit);
    EXPECT_TRUE(holds_invariant(s));
  }
}

TEST(Invariant, ClosedUnderEveryDaemon) {
  // Closure of I (Theorem 1's closed half) must not depend on the schedule:
  // from a legitimate hungry start under the sound threshold, every one of
  // the four daemons keeps I at every step.
  for (const char* daemon :
       {"round-robin", "random", "adversarial-age", "biased"}) {
    core::DinersConfig cfg;
    cfg.diameter_override = 5;  // sound threshold n - 1 for ring-6
    DinersSystem s(graph::make_ring(6), cfg);
    for (P p = 0; p < 6; ++p) s.set_needs(p, true);
    ASSERT_TRUE(holds_invariant(s)) << daemon;
    sim::Engine engine(s, sim::make_daemon(daemon, 9), 64);
    for (int i = 0; i < 1500; ++i) {
      if (!engine.step()) break;
      ASSERT_TRUE(holds_invariant(s))
          << "I broken at step " << i << " under daemon " << daemon;
    }
  }
}

// Which conjuncts of I failed across a differential battery, so that a
// battery cannot pass by never reaching one of the flat pass's exits.
struct Verdicts {
  int holds = 0;
  int nc_fails = 0;
  int only_st_fails_with_no_live_process_deeper_than_d = 0;
  int only_e_fails = 0;
};

// The flat entry points against the ShallowContext reference on one state,
// plus the equivalence the flat pass rests on: ST iff every live process
// is shallow.
::testing::AssertionResult flat_matches_reference(const DinersSystem& s,
                                                  Verdicts& v) {
  const ShallowContext ctx(s);
  const bool nc = holds_nc(s, ctx);
  const bool st = holds_st(s, ctx);
  const bool e = holds_e(s);
  const bool inv = holds_invariant(s, ctx);
  const auto shallow = shallow_processes(s, ctx);
  const auto d = static_cast<std::int64_t>(s.diameter_constant());
  bool every_live_shallow = true;
  bool none_too_deep = true;
  for (P p = 0; p < s.topology().num_nodes(); ++p) {
    if (!s.alive(p)) continue;
    every_live_shallow = every_live_shallow && shallow[p];
    none_too_deep = none_too_deep && s.depth(p) <= d;
  }
  if (holds_nc(s) != nc || holds_st(s) != st || holds_invariant(s) != inv ||
      every_live_shallow != st || inv != (nc && st && e)) {
    return ::testing::AssertionFailure()
           << "reference NC/ST/E/I = " << nc << st << e << inv << ", flat = "
           << holds_nc(s) << holds_st(s) << holds_invariant(s)
           << ", every live process shallow = " << every_live_shallow;
  }
  v.holds += inv;
  v.nc_fails += !nc;
  v.only_st_fails_with_no_live_process_deeper_than_d +=
      nc && !st && e && none_too_deep;
  v.only_e_fails += nc && st && !e;
  return ::testing::AssertionSuccess();
}

TEST(ShallowContext, MatchesTheNaivePredicatesOnCorruptedStates) {
  // Differential battery: the flat entry points against the reference on
  // eight topologies, random dead sets, corrupted depths within D plus a
  // slack of 0, 1 or 8, and states part-way back to I under a random daemon.
  constexpr std::int64_t kDepthSlacks[] = {0, 1, 8};
  util::Xoshiro256 rng(21);
  Verdicts v;
  for (const char* topology : {"ring", "grid", "star", "complete", "wheel",
                               "path", "gnp", "figure2"}) {
    for (int round = 0; round < 6; ++round) {
      DinersSystem s(graph::make_named(topology, 8, 100 + round, 0.35));
      for (P p = 0; p < s.topology().num_nodes(); ++p) {
        if (rng.chance(0.2)) s.crash(p);
      }
      fault::CorruptionOptions corruption;
      corruption.depth_slack = kDepthSlacks[round % 3];
      for (int trial = 0; trial < 25; ++trial) {
        fault::corrupt_global_state(s, rng, corruption);
        ASSERT_TRUE(flat_matches_reference(s, v)) << topology << " " << round;
        sim::Engine engine(s, sim::make_daemon("random", rng.next()), 64);
        for (int burst = 0; burst < 4 && engine.run(8).steps_executed > 0;
             ++burst) {
          ASSERT_TRUE(flat_matches_reference(s, v))
              << topology << " " << round << " after " << burst << " bursts";
        }
      }
    }
  }
  EXPECT_GT(v.holds, 0);
  EXPECT_GT(v.nc_fails, 0);
  EXPECT_GT(v.only_st_fails_with_no_live_process_deeper_than_d, 0);
  EXPECT_GT(v.only_e_fails, 0);
}

TEST(ShallowContext, MatchesTheFlatPassWhenExactlyOneConjunctFails) {
  Verdicts v;
  {
    // A live cycle with every depth <= D: the pre-scan passes, and no
    // process of the cycle ever pops. (Any live cycle also breaks ST.)
    DinersSystem s(graph::make_ring(4));
    for (P p = 0; p < 4; ++p) s.set_priority(p, (p + 1) % 4, p);
    EXPECT_FALSE(holds_nc(s));
    EXPECT_FALSE(holds_st(s));
    EXPECT_TRUE(holds_e(s));
    EXPECT_TRUE(flat_matches_reference(s, v));
  }
  {
    // Only ST fails, and only by a chain: 0 -> 1 -> 2 -> 3 with D = 3,
    // l:2 = 3 and depth:3 = 2 > D - l:2, while no depth exceeds D.
    DinersSystem s(graph::make_path(4));
    s.set_depth(3, 2);
    EXPECT_TRUE(holds_nc(s));
    EXPECT_FALSE(holds_st(s));
    EXPECT_FALSE(shallow_processes(s)[2]);
    EXPECT_TRUE(flat_matches_reference(s, v));
  }
  {
    // Only E fails: two live neighbors eat in the legitimate orientation.
    DinersSystem s(graph::make_path(4));
    s.set_state(1, DinerState::kEating);
    s.set_state(2, DinerState::kEating);
    EXPECT_TRUE(holds_nc(s));
    EXPECT_TRUE(holds_st(s));
    EXPECT_FALSE(holds_invariant(s));
    EXPECT_TRUE(flat_matches_reference(s, v));
  }
  EXPECT_EQ(v.nc_fails, 1);
  EXPECT_EQ(v.only_st_fails_with_no_live_process_deeper_than_d, 1);
  EXPECT_EQ(v.only_e_fails, 1);
}

TEST(ShallowContext, MatchesTheFlatPassWhenEveryProcessIsDead) {
  // No live process: NC, ST and E hold vacuously, whatever the corpses hold.
  util::Xoshiro256 rng(5);
  DinersSystem s(graph::make_wheel(6));
  for (P p = 0; p < 6; ++p) s.crash(p);
  Verdicts v;
  for (int trial = 0; trial < 20; ++trial) {
    fault::corrupt_global_state(s, rng);
    ASSERT_TRUE(flat_matches_reference(s, v));
  }
  EXPECT_EQ(v.holds, 20);
}

TEST(ShallowContext, MatchesTheFlatPassAcrossTheRing4Box) {
  // A fixed stride through the arbitrary-start box of the V1 ring-4
  // instance (sound threshold D = 3, depths 0..4, 810,000 keys), healthy
  // and with process 0 crashed.
  core::DinersConfig cfg;
  cfg.diameter_override = 3;
  DinersSystem healthy(graph::make_ring(4), cfg);
  DinersSystem crashed(graph::make_ring(4), cfg);
  crashed.crash(0);
  const verify::StateCodec codec(healthy.topology(), 0, 4);
  ASSERT_EQ(codec.domain_size(), 810000u);
  Verdicts v;
  for (std::uint64_t i = 0; i < codec.domain_size(); i += 7) {
    for (DinersSystem* s : {&healthy, &crashed}) {
      codec.decode(codec.domain_key(i), *s);
      ASSERT_TRUE(flat_matches_reference(*s, v)) << "key " << i;
    }
  }
  EXPECT_GT(v.holds, 0);
  EXPECT_GT(v.nc_fails, 0);
  EXPECT_GT(v.only_st_fails_with_no_live_process_deeper_than_d, 0);
  EXPECT_GT(v.only_e_fails, 0);
}

TEST(ShallowContext, SurvivesStateAndDepthWritesWithoutRefresh) {
  // The documented validity contract: state/depth writes do not invalidate
  // the context.
  DinersSystem s(graph::make_path(5));
  ShallowContext ctx(s);
  s.set_depth(2, 9);
  s.set_state(1, DinerState::kEating);
  EXPECT_EQ(holds_st(s, ctx), holds_st(s));
  EXPECT_EQ(holds_invariant(s, ctx), holds_invariant(s));
}

TEST(Invariant, Figure2FrameIsTransientAndGetsRepaired) {
  // The figure's first frame violates NC (the e-f-g cycle has no dead
  // member): it is a transient-fault state the algorithm then repairs.
  auto s = core::make_figure2_system();
  EXPECT_FALSE(holds_nc(s));
  sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
  engine.run(3000);
  EXPECT_TRUE(holds_nc(s));
  EXPECT_TRUE(holds_e(s));
}

}  // namespace
}  // namespace diners::analysis
