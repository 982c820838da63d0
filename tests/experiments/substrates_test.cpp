// Experiments on the other substrates: E8 (the message-passing
// transformation of Section 4 against shared memory), E9 (drinking
// philosophers layered on the diners) and E10 (why Section 4 needs the
// handshake: a naive read/write refinement against it). Each test runs the
// scenario of an EXPERIMENTS.md table, prints the table's rows and asserts
// every number in them exactly:
//   build/tests/experiments_tests --gtest_filter='E8.*:E9.*:E10.*'
#include <gtest/gtest.h>

#include <cstdio>

#include "core/diners_system.hpp"
#include "drinkers/drinking_system.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "lowatomic/rw_diners.hpp"
#include "msgpass/mp_diners.hpp"
#include "runtime/engine.hpp"

namespace diners {
namespace {

using graph::NodeId;
using msgpass::MessagePassingDiners;

// Rings of n: meals in 50k steps after 5k of warmup, shared memory
// (round-robin, seed 1, fairness bound 128) against message passing, and
// the messages message passing delivered in that window.
TEST(E8, MessagePassingCostsStepsAndMessages) {
  const struct {
    NodeId n;
    std::uint64_t shared_meals, mp_meals, mp_messages;
  } rows[] = {{6, 16666, 773, 37706},
              {12, 16666, 729, 37706},
              {24, 16666, 735, 37706}};
  std::printf("| ring n | shared memory meals/1k steps | message passing "
              "meals/1k steps | messages per meal |\n");
  for (const auto& row : rows) {
    core::DinersSystem shared(graph::make_ring(row.n));
    sim::Engine engine(shared, sim::make_daemon("round-robin", 1), 128);
    engine.run(5000);
    const std::uint64_t shared_before = shared.total_meals();
    engine.run(50000);
    const std::uint64_t shared_meals = shared.total_meals() - shared_before;

    MessagePassingDiners mp(graph::make_ring(row.n));
    mp.run(5000);
    const std::uint64_t meals_before = mp.total_meals();
    const std::uint64_t messages_before = mp.messages_delivered();
    mp.run(50000);
    const std::uint64_t meals = mp.total_meals() - meals_before;
    const std::uint64_t messages = mp.messages_delivered() - messages_before;
    std::printf("| %u | %g | %g | %.2f |\n", row.n, shared_meals / 50.0,
                meals / 50.0, static_cast<double>(messages) / meals);
    EXPECT_EQ(shared_meals, row.shared_meals) << "n=" << row.n;
    EXPECT_EQ(meals, row.mp_meals) << "n=" << row.n;
    EXPECT_EQ(messages, row.mp_messages) << "n=" << row.n;
  }
}

// Message passing only: steps to the first meal after corrupting every
// local variable and channel of a ring of 12 (rng seed 17); and meals per
// 1k steps over 50k steps once the head of a path of 10 has crashed (after
// 20k steps) and 20k more steps have absorbed it.
TEST(E8, RecoveryAndLocalityUnderMessagePassing) {
  MessagePassingDiners ring(graph::make_ring(12));
  util::Xoshiro256 rng(17);
  ring.corrupt(rng);
  std::uint64_t steps = 0;
  while (ring.total_meals() == 0 && steps < 500000) {
    ring.step();
    ++steps;
  }

  MessagePassingDiners path(graph::make_path(10));
  path.run(20000);
  path.crash(0);
  path.run(20000);
  const std::uint64_t before = path.total_meals();
  path.run(50000);
  const std::uint64_t after_crash = path.total_meals() - before;

  std::printf("| recovery after full state+channel corruption | %llu steps "
              "to first meal |\n",
              static_cast<unsigned long long>(steps));
  std::printf("| throughput at distance >= 3 after a head crash (path 10) | "
              "%g meals/1k |\n",
              after_crash / 50.0);
  EXPECT_EQ(steps, 57u);
  EXPECT_EQ(after_crash, 1076u);
}

// Keeps every thinking philosopher thirsty with a random bottle subset.
void top_up(drinkers::DrinkingSystem& s, util::Xoshiro256& rng) {
  for (NodeId p = 0; p < s.topology().num_nodes(); ++p) {
    if (s.alive(p) && s.substrate().state(p) == core::DinerState::kThinking) {
      s.request_drink(p, drinkers::random_bottles(s.topology(), p, rng));
    }
  }
}

// Drinking sessions on rings over 20k round-robin steps, topped up every
// 100 steps (rng seed 5); and sessions at distance >= 3 from the head of a
// path of 10 that crashes while eating with `malice` writes.
TEST(E9, DrinkersInheritTheDinersLocality) {
  const struct {
    NodeId n;
    std::uint64_t sessions;
    double utilization;
  } rings[] = {{8, 1600, 0.6271875}, {32, 4406, 0.6218792555605992}};
  std::printf("| ring n | sessions/1k steps | bottle utilization |\n");
  for (const auto& row : rings) {
    drinkers::DrinkingSystem s(graph::make_ring(row.n));
    util::Xoshiro256 rng(5);
    sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
    for (int r = 0; r < 200; ++r) {
      top_up(s, rng);
      engine.run(100);
    }
    std::printf("| %u | %g | %.16g |\n", row.n, s.total_sessions() / 20.0,
                s.bottle_utilization());
    EXPECT_EQ(s.total_sessions(), row.sessions) << "n=" << row.n;
    EXPECT_DOUBLE_EQ(s.bottle_utilization(), row.utilization) << "n=" << row.n;
  }

  const struct {
    std::uint32_t malice;
    std::uint64_t far_sessions;
  } crashes[] = {{0, 420}, {64, 420}};
  std::printf("| head crash malice | far-zone sessions in 6k steps |\n");
  for (const auto& row : crashes) {
    drinkers::DrinkingSystem s(graph::make_path(10));
    util::Xoshiro256 rng(7);
    sim::Engine engine(s, sim::make_daemon("round-robin", 1), 64);
    const auto rounds = [&](int count) {
      for (int r = 0; r < count; ++r) {
        top_up(s, rng);
        engine.run(100);
      }
    };
    const auto far_sessions = [&] {
      std::uint64_t sum = 0;
      for (NodeId p = 3; p < 10; ++p) sum += s.sessions(p);
      return sum;
    };
    rounds(20);
    s.substrate().set_state(0, core::DinerState::kEating);
    fault::malicious_crash(s.substrate(), 0, row.malice, rng);
    engine.reset_ages();
    rounds(30);
    const std::uint64_t before = far_sessions();
    rounds(60);
    const std::uint64_t far = far_sessions() - before;
    std::printf("| %u | %llu |\n", row.malice,
                static_cast<unsigned long long>(far));
    EXPECT_EQ(far, row.far_sessions) << "malice " << row.malice;
  }
}

// Ring of 8, 40k steps of a random daemon (seeds 0-4, fairness bound 256
// for the naive refinement), totals over the five runs.
TEST(E10, NaiveRefinementLosesExclusionTheHandshakeKeeps) {
  std::uint64_t naive_violations = 0, naive_meals = 0;
  std::uint64_t handshake_violations = 0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    lowatomic::NaiveRwDiners naive(graph::make_ring(8));
    sim::Engine engine(naive, sim::make_daemon("random", seed), 256);
    engine.run(40000);
    naive_violations += naive.violations_entered();
    naive_meals += naive.total_meals();

    msgpass::MpOptions options;
    options.seed = seed;
    MessagePassingDiners mp(graph::make_ring(8), {}, options);
    std::size_t last = 0;
    for (int i = 0; i < 40000; ++i) {
      mp.step();
      const std::size_t now = mp.eating_violations();
      if (now > last) handshake_violations += now - last;
      last = now;
    }
  }
  std::printf("| naive read/write refinement | %.16g violations per 1k "
              "meals |\n| handshake (message passing) | %llu violations |\n",
              1000.0 * naive_violations / naive_meals,
              static_cast<unsigned long long>(handshake_violations));
  EXPECT_EQ(naive_violations, 59u);
  EXPECT_EQ(naive_meals, 10043u);
  EXPECT_EQ(handshake_violations, 0u);
}

}  // namespace
}  // namespace diners
