// Property test for the action-precise footprint DinersSystem::affected():
// over seeded corrupted states (some processes dead), executing any enabled
// action (p, a) of a live p on a copy leaves the guards of every process
// outside {p} ∪ affected(p, a) unchanged, and enter's footprint is empty.
// Both incremental engines refresh only that set after a step, so a process
// missing from it would keep a stale enabled bit and the schedule would go
// wrong. The same check runs through verify::MutatedDiners (whose
// affected() forwards the genuine footprint) and under the two ablated
// configurations.
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/diners_system.hpp"
#include "fault/injector.hpp"
#include "topologies.hpp"
#include "util/rng.hpp"
#include "verify/mutation.hpp"

namespace diners::property {
namespace {

using core::DinersConfig;
using core::DinersSystem;
using verify::GuardMutation;
using verify::MutatedDiners;
using ProcessId = DinersSystem::ProcessId;

const TopoSpec kTopologies[] = {
    {"ring", 8}, {"grid", 16}, {"star", 9}, {"complete", 6}, {"gnp", 16}};

constexpr int kRounds = 12;

/// All five guards of q as seen through `view`, bit a = enabled(q, a).
std::uint32_t guards(const MutatedDiners& view, ProcessId q) {
  std::uint32_t mask = 0;
  for (sim::ActionIndex a = 0; a < DinersSystem::kNumActions; ++a) {
    if (view.enabled(q, a)) mask |= 1u << a;
  }
  return mask;
}

/// Checks the footprint of every enabled action of every live process in
/// `base`; counts the checked executions per action in `per_action`.
void check_state(DinersSystem& base, GuardMutation mutation,
                 std::array<int, DinersSystem::kNumActions>& per_action) {
  const auto n = base.topology().num_nodes();
  const MutatedDiners view(base, mutation);
  std::vector<std::uint32_t> before(n);
  for (ProcessId q = 0; q < n; ++q) before[q] = guards(view, q);

  for (ProcessId p = 0; p < n; ++p) {
    if (!base.alive(p)) continue;
    for (sim::ActionIndex a = 0; a < DinersSystem::kNumActions; ++a) {
      if (((before[p] >> a) & 1u) == 0) continue;
      DinersSystem after = base;
      MutatedDiners stepped(after, mutation);
      stepped.execute(p, a);
      std::vector<ProcessId> footprint;
      ASSERT_TRUE(stepped.affected(p, a, footprint));
      // Enter needs thinking ancestors, so none of its readers can change.
      if (a == DinersSystem::kEnter) {
        ASSERT_TRUE(footprint.empty())
            << "enter at " << p << " names " << footprint.size()
            << " neighbours";
      }
      std::vector<bool> covered(n, false);
      covered[p] = true;
      for (const ProcessId q : footprint) covered[q] = true;
      for (ProcessId q = 0; q < n; ++q) {
        if (covered[q]) continue;
        ASSERT_EQ(guards(stepped, q), before[q])
            << "process " << q << " is outside the footprint of ("
            << p << ", " << base.action_name(p, a) << ")";
        if (mutation == GuardMutation::kNone) {
          ASSERT_EQ(after.guard_mask(q), before[q]) << "process " << q;
        }
      }
      ++per_action[a];
    }
  }
}

/// Runs check_state over kRounds corrupted states of every topology.
std::array<int, DinersSystem::kNumActions> check_all(GuardMutation mutation,
                                                     const DinersConfig& cfg) {
  std::array<int, DinersSystem::kNumActions> per_action{};
  fault::CorruptionOptions corruption;
  corruption.corrupt_needs = true;
  for (const TopoSpec& spec : kTopologies) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(spec.kind + " seed " + std::to_string(seed));
      DinersSystem system(make_topology(spec, seed), cfg);
      util::Xoshiro256 rng(util::derive_seed(seed, 0xf0));
      for (int round = 0; round < kRounds; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        DinersSystem state = system;
        fault::corrupt_global_state(state, rng, corruption);
        // Dead processes stay readable; crash one in every other round.
        if (round % 2 == 1) {
          state.crash(static_cast<ProcessId>(
              rng.below(state.topology().num_nodes())));
        }
        check_state(state, mutation, per_action);
        if (::testing::Test::HasFatalFailure()) return per_action;
      }
    }
  }
  return per_action;
}

TEST(AffectedFootprint, CoversEveryGuardChangeOnCorruptedStates) {
  const auto per_action = check_all(GuardMutation::kNone, {});
  for (sim::ActionIndex a = 0; a < DinersSystem::kNumActions; ++a) {
    EXPECT_GT(per_action[a], 0) << "action " << static_cast<int>(a)
                                << " never executed";
  }
}

TEST(AffectedFootprint, SoundUnderGuardMutations) {
  for (const GuardMutation m :
       {GuardMutation::kNoFixdepth, GuardMutation::kGreedyEnter}) {
    SCOPED_TRACE(std::string(verify::to_string(m)));
    const auto per_action = check_all(m, {});
    EXPECT_GT(per_action[DinersSystem::kEnter], 0);
  }
}

TEST(AffectedFootprint, SoundUnderAblatedConfigs) {
  DinersConfig no_leave;
  no_leave.enable_dynamic_threshold = false;
  DinersConfig no_cycle_breaking;
  no_cycle_breaking.enable_cycle_breaking = false;
  for (const DinersConfig& cfg : {no_leave, no_cycle_breaking}) {
    SCOPED_TRACE(cfg.enable_dynamic_threshold ? "no cycle breaking"
                                              : "no dynamic threshold");
    const auto per_action = check_all(GuardMutation::kNone, cfg);
    EXPECT_GT(per_action[DinersSystem::kJoin], 0);
  }
}

}  // namespace
}  // namespace diners::property
