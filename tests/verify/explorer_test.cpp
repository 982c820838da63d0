#include "verify/explorer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "analysis/invariants.hpp"
#include "core/serialize.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "verify/key_index.hpp"
#include "verify/properties.hpp"

namespace diners::verify {
namespace {

using core::DinersConfig;
using core::DinersSystem;
using P = DinersSystem::ProcessId;

DinersSystem hungry_system(graph::Graph g, DinersConfig cfg = {}) {
  DinersSystem s(std::move(g), cfg);
  for (P p = 0; p < s.topology().num_nodes(); ++p) s.set_needs(p, true);
  return s;
}

TEST(Explorer, InstanceSeededPath3HasConsistentBfsTree) {
  DinersSystem scratch = hungry_system(graph::make_path(3));
  const StateCodec codec(scratch.topology(), 0,
                         static_cast<std::int64_t>(scratch.topology()
                                                       .num_nodes()));
  Explorer explorer(scratch, codec, {});
  const Key seed = codec.encode(scratch);
  const StateGraph g = explorer.explore(std::span<const Key>(&seed, 1));

  ASSERT_TRUE(g.complete);
  ASSERT_EQ(g.num_seeds, 1u);
  EXPECT_GT(g.num_states(), 10u);
  EXPECT_GT(g.layers, 0u);
  EXPECT_EQ(g.parent[0], kNoIndex);
  EXPECT_EQ(g.parent_move[0], kSeedMove);

  KeyIndex index(g.num_states());
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    // Keys are distinct.
    EXPECT_TRUE(index.insert(g.keys[i], i).second);
    // BFS parents precede their children in discovery order.
    if (i >= g.num_seeds) {
      ASSERT_LT(g.parent[i], i);
      ASSERT_LT(g.parent_move[i], kDemonMoveBase);
    }
    // Every recorded arc is a genuinely enabled action whose execution
    // produces exactly the recorded successor key.
    for (const auto& arc : g.arcs_of(i)) {
      codec.decode(g.keys[i], scratch);
      const auto p = move_process(arc.move);
      const auto a = move_action(arc.move);
      ASSERT_TRUE((g.enabled[i] >> arc.move) & 1);
      ASSERT_TRUE(scratch.enabled(p, a));
      scratch.execute(p, a);
      EXPECT_EQ(codec.encode(scratch), g.keys[arc.to]);
    }
  }
}

TEST(Explorer, BoxSeededTriangleSoundThresholdVerifies) {
  // K3 with the sound threshold D = 2 (the repo's documented erratum fix):
  // closure and fair convergence both hold over the full arbitrary-start
  // box.
  DinersConfig cfg;
  cfg.diameter_override = 2;
  DinersSystem scratch = hungry_system(graph::make_complete(3), cfg);
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer explorer(scratch, codec, {});
  const auto seeds = codec.domain_keys();
  const StateGraph g = explorer.explore(seeds);

  ASSERT_TRUE(g.complete);
  EXPECT_EQ(g.num_states(), codec.domain_size());
  const auto inv = label_invariant(g, codec, scratch);
  EXPECT_FALSE(check_closure(g, inv).has_value());
  EXPECT_FALSE(check_convergence(g, inv).has_value());
}

TEST(Explorer, BoxSeededTrianglePaperThresholdNeverConverges) {
  // The erratum, settled by the fairness machinery: with the paper's
  // D = diameter = 1 on K3, no reachable state satisfies I, so every fair
  // run stays outside I forever and convergence must report a violation.
  DinersSystem scratch = hungry_system(graph::make_complete(3));
  const StateCodec codec(scratch.topology(), 0, 2);
  Explorer explorer(scratch, codec, {});
  const StateGraph g = explorer.explore(codec.domain_keys());

  ASSERT_TRUE(g.complete);
  const auto inv = label_invariant(g, codec, scratch);
  std::uint64_t legit = 0;
  for (const auto b : inv) legit += b;
  EXPECT_EQ(legit, 0u);
  const auto v = check_convergence(g, inv);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->property, "convergence");
}

TEST(Explorer, MaxStatesCapIsExactAndShapesTruncatedGraph) {
  DinersSystem scratch = hungry_system(graph::make_ring(4));
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer::Options opts;
  opts.max_states = 100;
  Explorer explorer(scratch, codec, opts);
  const Key seed = codec.encode(scratch);
  const StateGraph g = explorer.explore(std::span<const Key>(&seed, 1));
  EXPECT_FALSE(g.complete);
  // The cap is exact: the graph holds exactly max_states states, and only
  // the expanded prefix carries enabled masks / successor rows.
  EXPECT_EQ(g.num_states(), 100u);
  EXPECT_EQ(g.keys.size(), 100u);
  EXPECT_EQ(g.parent.size(), 100u);
  EXPECT_EQ(g.parent_move.size(), 100u);
  EXPECT_LE(g.num_expanded, g.num_states());
  EXPECT_EQ(g.enabled.size(), g.num_expanded);
  EXPECT_EQ(g.succ_begin.size(), g.num_expanded + 1u);
}

TEST(Explorer, PropertyOraclesRejectTruncatedGraphs) {
  DinersSystem scratch = hungry_system(graph::make_ring(4));
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer::Options opts;
  opts.max_states = 100;
  Explorer explorer(scratch, codec, opts);
  const Key seed = codec.encode(scratch);
  const StateGraph g = explorer.explore(std::span<const Key>(&seed, 1));
  ASSERT_FALSE(g.complete);

  // label_* helpers stay usable on the truncated graph...
  const auto inv = label_invariant(g, codec, scratch);
  EXPECT_EQ(inv.size(), g.num_states());
  // ...but every check_* oracle must refuse to issue a verdict over
  // states with unknown outgoing behavior.
  EXPECT_THROW((void)check_closure(g, inv), std::invalid_argument);
  EXPECT_THROW((void)check_convergence(g, inv), std::invalid_argument);
  EXPECT_THROW((void)check_far_safety(g, inv), std::invalid_argument);
  EXPECT_THROW((void)check_no_starvation(g, codec, 0), std::invalid_argument);
}

TEST(Explorer, DemonVictimReachesEveryDyingWriteAndStaysSilent) {
  DinersSystem scratch = hungry_system(graph::make_path(3));
  scratch.crash(1);
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer::Options opts;
  opts.demon_victim = 1;
  Explorer explorer(scratch, codec, opts);
  const Key seed = codec.encode(scratch);
  const StateGraph g = explorer.explore(std::span<const Key>(&seed, 1));
  ASSERT_TRUE(g.complete);

  // Every crash assignment of the victim is reachable from the seed in one
  // demonic step (they all appear as states, and those discovered through a
  // demon arc carry a demon parent_move).
  std::size_t demon_children = 0;
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    if (g.parent_move[i] >= kDemonMoveBase && g.parent_move[i] != kSeedMove) {
      ++demon_children;
    }
    // The victim never acts: no protocol arc or enabled bit belongs to it.
    for (unsigned a = 0; a < core::DinersSystem::kNumActions; ++a) {
      EXPECT_FALSE((g.enabled[i] >> protocol_move(1, a)) & 1);
    }
    for (const auto& arc : g.arcs_of(i)) {
      EXPECT_NE(move_process(arc.move), 1u);
    }
  }
  EXPECT_GT(demon_children, 0u);

  // The victim's whole assignment box appears in the reachable set.
  const auto total = fault::num_crash_assignments(scratch, 1, 0, 3);
  std::unordered_set<std::uint64_t> victim_patterns;
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    const Key masked = key_and(g.keys[i], codec.process_mask(1));
    victim_patterns.insert(masked.lo ^ (masked.hi * 0x9e3779b97f4a7c15ULL));
  }
  EXPECT_EQ(victim_patterns.size(), total);
}

TEST(Explorer, LegacySuccessorPathIsByteIdentical) {
  // The key-patch generator must agree, state by state, with the decode /
  // execute / encode round-trip through the reference program, over every
  // guard mutation, with and without a demonic victim: the enabled mask,
  // one arc per enabled move in ascending move order with its target, and
  // every demonic write as fault::apply_crash_assignment.
  constexpr P kVictim = 2;
  for (const auto mutation :
       {GuardMutation::kNone, GuardMutation::kNoFixdepth,
        GuardMutation::kGreedyEnter}) {
    for (const bool demonic : {false, true}) {
      SCOPED_TRACE("mutation=" + std::to_string(static_cast<int>(mutation)) +
                   " demonic=" + std::to_string(demonic));
      DinersSystem scratch = hungry_system(graph::make_ring(4));
      if (demonic) scratch.crash(kVictim);
      const StateCodec codec(scratch.topology(), 0, 3);
      Explorer::Options opts;
      opts.mutation = mutation;
      if (demonic) opts.demon_victim = kVictim;
      Explorer explorer(scratch, codec, opts);
      const Key seed = codec.encode(scratch);
      const StateGraph g = explorer.explore(std::span<const Key>(&seed, 1));
      ASSERT_TRUE(g.complete);
      EXPECT_GT(g.num_states(), 100u);

      // The reference system has the exploration's alive set.
      DinersSystem sys = core::clone(scratch);
      MutatedDiners program(sys, mutation);
      for (std::uint32_t i = 0; i < g.num_states(); ++i) {
        codec.decode(g.keys[i], sys);
        std::uint64_t mask = 0;
        for (P p = 0; p < sys.topology().num_nodes(); ++p) {
          if (!sys.alive(p)) continue;
          for (sim::ActionIndex a = 0; a < DinersSystem::kNumActions; ++a) {
            if (program.enabled(p, a)) {
              mask |= std::uint64_t{1} << protocol_move(p, a);
            }
          }
        }
        ASSERT_EQ(g.enabled[i], mask) << "state " << i;
        std::uint64_t moves = mask;
        for (const auto& arc : g.arcs_of(i)) {
          ASSERT_NE(moves, 0u) << "state " << i << ": arc without a move";
          ASSERT_EQ(arc.move, std::countr_zero(moves)) << "state " << i;
          moves &= moves - 1;
          codec.decode(g.keys[i], sys);
          program.execute(move_process(arc.move), move_action(arc.move));
          ASSERT_EQ(g.keys[arc.to], codec.encode(sys))
              << "state " << i << " move " << arc.move;
        }
        ASSERT_EQ(moves, 0u) << "state " << i << ": move without an arc";
      }

      std::size_t demonic_states = 0;
      for (std::uint32_t i = 0; i < g.num_states(); ++i) {
        const std::uint16_t move = g.parent_move[i];
        if (move < kDemonMoveBase || move == kSeedMove) continue;
        ++demonic_states;
        codec.decode(g.keys[g.parent[i]], sys);
        fault::apply_crash_assignment(sys, kVictim, move - kDemonMoveBase,
                                      codec.depth_min(), codec.depth_max());
        ASSERT_EQ(g.keys[i], codec.encode(sys)) << "state " << i;
      }
      EXPECT_EQ(demonic_states > 0, demonic);
    }
  }
}

TEST(Explorer, RequiresDeadDemonVictim) {
  DinersSystem scratch = hungry_system(graph::make_path(3));
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer::Options opts;
  opts.demon_victim = 1;  // still alive
  EXPECT_THROW(Explorer(scratch, codec, opts), std::invalid_argument);
}

}  // namespace
}  // namespace diners::verify
