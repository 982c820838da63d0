// Reproduction of Figure 2 of the paper ("Example operation"), both as the
// exact narrated computation fragment (each step checked legal) and as a
// free-running computation whose eventual behavior must match the figure's
// claims: the crash of `a` is contained within distance 2, the priority
// cycle e->f->g is detected via depth > D and broken, and e eats.
#include "core/figure2.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/harness.hpp"
#include "analysis/red_green.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "runtime/trace.hpp"

namespace diners::core {
namespace {

using F = Figure2;
using A = DinersSystem::Action;

TEST(Figure2, InitialFrameMatchesThePaper) {
  auto s = make_figure2_system();
  EXPECT_EQ(s.diameter_constant(), 3u);
  EXPECT_FALSE(s.alive(F::a));
  EXPECT_EQ(s.state(F::a), DinerState::kEating);
  EXPECT_EQ(s.state(F::b), DinerState::kHungry);
  EXPECT_EQ(s.state(F::c), DinerState::kThinking);
  EXPECT_EQ(s.state(F::d), DinerState::kHungry);
  EXPECT_EQ(s.state(F::e), DinerState::kHungry);
  EXPECT_EQ(s.state(F::f), DinerState::kThinking);
  EXPECT_EQ(s.state(F::g), DinerState::kHungry);
  EXPECT_EQ(s.depth(F::g), 4);
}

TEST(Figure2, PriorityCycleEfgPresentInitially) {
  auto s = make_figure2_system();
  // e -> f -> g -> e: each is the ancestor of the next.
  EXPECT_TRUE(s.is_direct_ancestor(F::e, F::f));
  EXPECT_TRUE(s.is_direct_ancestor(F::f, F::g));
  EXPECT_TRUE(s.is_direct_ancestor(F::g, F::e));
  const auto cycle =
      graph::find_directed_cycle(s.orientation(), s.alive_fn());
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 3u);
}

TEST(Figure2, NarratedComputationFragmentIsLegal) {
  auto s = make_figure2_system();

  // Frame 1 -> 2: "d executes leave" (dynamic threshold: ancestor b hungry).
  ASSERT_TRUE(s.enabled(F::d, A::kLeave));
  s.execute(F::d, A::kLeave);
  EXPECT_EQ(s.state(F::d), DinerState::kThinking);

  // Frame 2 -> 3: "depth.g > D ... g executes exit, breaking the cycle".
  ASSERT_TRUE(s.enabled(F::g, A::kExit));
  ASSERT_EQ(s.state(F::g), DinerState::kHungry);  // a *spurious* exit
  s.execute(F::g, A::kExit);
  EXPECT_EQ(s.state(F::g), DinerState::kThinking);
  EXPECT_EQ(s.depth(F::g), 0);
  EXPECT_FALSE(
      graph::has_directed_cycle(s.orientation(), s.alive_fn()));

  // Frame 3: "e eats".
  ASSERT_TRUE(s.enabled(F::e, A::kEnter));
  s.execute(F::e, A::kEnter);
  EXPECT_EQ(s.state(F::e), DinerState::kEating);
}

TEST(Figure2, BlockedSetIsExactlyTheRedSet) {
  auto s = make_figure2_system();
  const auto red = analysis::red_processes(s);
  EXPECT_TRUE(red[F::a]);  // dead
  EXPECT_TRUE(red[F::b]);  // hungry forever: descendant a eats forever
  EXPECT_TRUE(red[F::c]);  // thinking forever: ancestor a never leaves
  EXPECT_FALSE(red[F::e]);
  EXPECT_FALSE(red[F::f]);
  EXPECT_FALSE(red[F::g]);
}

// EXPERIMENTS.md F2 prints its tables from this test and the two threshold
// tests below:  build/tests/core_tests --gtest_filter='Figure2.*'
TEST(Figure2, FreeRunReachesTheNarratedOutcome) {
  auto s = make_figure2_system();
  sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
  sim::TraceRecorder trace;
  trace.attach(engine);
  const auto acyclic = [&] {
    return !graph::has_directed_cycle(s.orientation(), s.alive_fn());
  };
  const std::uint64_t cycle_broken = engine.run(4000, acyclic).steps_executed;
  engine.run(4000 - cycle_broken);

  // The step of each narrated event under round-robin.
  const struct {
    const char* event;
    std::uint64_t step, expected;
  } events[] = {
      {"d yields to e (leave)", trace.first(F::d, "leave"), 2},
      {"cycle e->f->g broken", cycle_broken, 9},
      {"e eats (enter)", trace.first(F::e, "enter"), 13},
  };
  for (const auto& e : events) {
    std::printf("| %s | step %llu |\n", e.event,
                static_cast<unsigned long long>(e.step));
    EXPECT_EQ(e.step, e.expected) << e.event;
  }

  // The cycle stays broken: no live cycle remains.
  EXPECT_FALSE(graph::has_directed_cycle(s.orientation(), s.alive_fn()));
  // e ate; so did g.
  EXPECT_GE(s.meals(F::e), 1u);
  EXPECT_GE(s.meals(F::g), 1u);
  // The permanently sacrificed processes never ate: b and c at distance 1.
  EXPECT_EQ(s.meals(F::a), 0u);
  EXPECT_EQ(s.meals(F::b), 0u);
  EXPECT_EQ(s.meals(F::c), 0u);
  // f has no appetite in the figure, so it never ate either.
  EXPECT_EQ(s.meals(F::f), 0u);
}

// Counts after 20k round-robin steps from the figure's first frame.
struct SteadyState {
  std::size_t b_exits;
  std::uint64_t b, c, d, e_plus_g;  // meals
};

// Prints the F2 steady-state row of `threshold` and pins it.
void expect_steady_state(const char* threshold, const DinersSystem& s,
                         const sim::TraceRecorder& trace,
                         const SteadyState& expected) {
  const SteadyState got{trace.count(F::b, "exit"), s.meals(F::b),
                        s.meals(F::c), s.meals(F::d),
                        s.meals(F::e) + s.meals(F::g)};
  std::printf("| %s | %zu | %llu | %llu | %llu | %llu |\n", threshold,
              got.b_exits, static_cast<unsigned long long>(got.b),
              static_cast<unsigned long long>(got.c),
              static_cast<unsigned long long>(got.d),
              static_cast<unsigned long long>(got.e_plus_g));
  EXPECT_EQ(got.b_exits, expected.b_exits) << threshold;
  EXPECT_EQ(got.b, expected.b) << threshold;
  EXPECT_EQ(got.c, expected.c) << threshold;
  EXPECT_EQ(got.d, expected.d) << threshold;
  EXPECT_EQ(got.e_plus_g, expected.e_plus_g) << threshold;
}

TEST(Figure2, PaperThresholdEventuallyUnblocksD) {
  // Reproduction finding (EXPERIMENTS.md F2): with the paper's D = 3, b's
  // legitimate descendant chain b->d->e->f->g has 4 edges, so depth:b
  // eventually exceeds D and b exits *spuriously* — releasing d, which then
  // eats. The figure's "d stays blocked" narration holds only until depth
  // propagation catches up; the sacrifice shrinks to distance 1.
  auto s = make_figure2_system();
  sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
  sim::TraceRecorder trace;
  trace.attach(engine);
  engine.run(20000);
  expect_steady_state("paper D = 3", s, trace, {1, 0, 0, 2220, 4442});
  EXPECT_EQ(s.state(F::b), DinerState::kThinking);
}

TEST(Figure2, SoundThresholdPreservesTheNarratedSacrifice) {
  // With the conservative cycle threshold n-1 = 6 and fresh depth values,
  // no legitimate chain can trip exit, so the narrated outcome is permanent:
  // d (distance 2) is sacrificed by the dynamic threshold and never eats.
  // (Depths start at 0 here: the figure's drawn depths 2/3/4 are mid-pump
  // values which, propagated upward by fixdepth, would evict b under any
  // threshold — stale depth garbage is absorbed by spurious exits.)
  auto s = make_figure2_system();
  DinersConfig cfg;
  cfg.diameter_override = 6;
  DinersSystem sound(graph::make_figure2_topology(), cfg);
  for (DinersSystem::ProcessId p = 0; p < 7; ++p) {
    sound.set_state(p, s.state(p));
    sound.set_needs(p, s.needs(p));
  }
  for (const auto& e : s.topology().edges()) {
    sound.set_priority(e.u, e.v, s.priority(e.u, e.v));
  }
  sound.crash(F::a);

  sim::Engine engine(sound, sim::make_daemon("round-robin", 1), 64);
  sim::TraceRecorder trace;
  trace.attach(engine);
  engine.run(20000);
  // The distance-2 sacrifice of d persists.
  expect_steady_state("sound n-1 = 6", sound, trace, {0, 0, 0, 0, 6663});
  EXPECT_GT(sound.meals(F::e), 0u);
  EXPECT_GT(sound.meals(F::g), 0u);
  EXPECT_EQ(sound.state(F::b), DinerState::kHungry);  // as drawn
}

TEST(Figure2, CrashEffectContainedWithinDistanceTwo) {
  auto s = make_figure2_system();
  // Give everyone appetite so starvation is measured uniformly.
  for (DinersSystem::ProcessId p = 0; p < 7; ++p) s.set_needs(p, true);
  sim::Engine engine(s, sim::make_daemon("round-robin", 2), 64);
  engine.run(2000);  // let it settle
  const auto report = analysis::measure_starvation(s, engine, 4000);
  EXPECT_LE(report.locality_radius, 2u);
  // Someone inside the ball really is sacrificed (b or c or d).
  EXPECT_FALSE(report.starved.empty());
  // Every process at distance >= 3 from a kept eating.
  const graph::NodeId dead[] = {F::a};
  const auto dist = graph::distances_to_set(s.topology(), dead);
  for (auto p : report.starved) EXPECT_LE(dist[p], 2u);
}

TEST(Figure2, LivenessHoldsForGreenProcessesLongRun) {
  auto s = make_figure2_system();
  sim::Engine engine(s, sim::make_daemon("random", 3), 64);
  engine.run(5000);
  const auto before_e = s.meals(F::e);
  const auto before_g = s.meals(F::g);
  engine.run(5000);
  // Green processes keep making progress indefinitely.
  EXPECT_GT(s.meals(F::e), before_e);
  EXPECT_GT(s.meals(F::g), before_g);
}

}  // namespace
}  // namespace diners::core
