// Differential proof that core::FlatEngine — the structure-of-arrays
// substrate — is observationally identical to the object-model sim::Engine,
// which stays pinned as the reference oracle: same StepRecord trace, byte
// for byte, on the paper's algorithm across topology families, all four
// daemons, and fault schedules — including mid-run malicious crashes,
// global corruption, crash-restart rejoin, and workload churn, announced
// through reset_ages()/invalidate_all() per the external-mutation contract.
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/diners_system.hpp"
#include "core/flat_engine.hpp"
#include "fault/injector.hpp"
#include "graph/generators.hpp"
#include "runtime/daemon.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace diners::core {
namespace {

// --- trace capture --------------------------------------------------------

std::string format(const sim::StepRecord& r) {
  std::ostringstream out;
  out << r.step << ':' << r.process << ':' << r.action << ':' << r.action_name;
  return out.str();
}

struct FaultSchedule {
  std::vector<fault::CrashEvent> crashes;   ///< applied via reset_ages()
  std::uint64_t corrupt_at = 0;             ///< 0 = never; via reset_ages()
  std::uint64_t toggle_every = 0;           ///< 0 = never; via invalidate_all()
  std::uint64_t restart_at = 0;             ///< 0 = never; revives victim 0
  /// Writes the start state before the first step (null = legitimate).
  std::function<void(DinersSystem&)> start;
};

/// Runs the paper's algorithm for `steps` scheduler steps on the given
/// engine kind and returns the serialized trace. Everything (graph, daemon
/// seed, rng streams, fault schedule) is reconstructed identically per call
/// so both engines see the same inputs.
/// `forced` receives the engine's forced_steps().
std::vector<std::string> run_diners(const graph::Graph& g,
                                    const std::string& daemon,
                                    const FaultSchedule& faults,
                                    std::uint64_t steps, sim::EngineKind kind,
                                    std::uint64_t* forced) {
  DinersSystem system(g);
  if (faults.start) faults.start(system);
  std::unique_ptr<sim::EngineBase> engine;
  if (kind == sim::EngineKind::kFlat) {
    engine = std::make_unique<FlatEngine>(system, daemon, /*daemon_seed=*/7,
                                          /*fairness_bound=*/64);
  } else {
    engine = std::make_unique<sim::Engine>(
        system, sim::make_daemon(daemon, /*seed=*/7), /*fairness_bound=*/64);
  }
  std::vector<std::string> trace;
  engine->add_observer(
      [&](const sim::StepRecord& r) { trace.push_back(format(r)); });

  fault::CrashPlan plan(faults.crashes);
  util::Xoshiro256 crash_rng(21);
  util::Xoshiro256 corrupt_rng(22);
  bool corrupted = false;
  bool restarted = false;
  for (std::uint64_t s = 0; s < steps; ++s) {
    if (plan.apply_due(system, engine->steps(), crash_rng) > 0) {
      engine->reset_ages();
    }
    if (faults.corrupt_at != 0 && !corrupted &&
        engine->steps() >= faults.corrupt_at) {
      fault::corrupt_global_state(system, corrupt_rng);
      engine->reset_ages();
      corrupted = true;
    }
    if (faults.restart_at != 0 && !restarted &&
        engine->steps() >= faults.restart_at && !faults.crashes.empty()) {
      system.restart(faults.crashes.front().process);
      engine->reset_ages();
      restarted = true;
    }
    if (faults.toggle_every != 0 && engine->steps() > 0 &&
        engine->steps() % faults.toggle_every == 0) {
      const auto p = static_cast<DinersSystem::ProcessId>(
          engine->steps() / faults.toggle_every % g.num_nodes());
      system.set_needs(p, !system.needs(p));
      engine->invalidate_all();
    }
    if (!engine->step()) break;
  }
  *forced = engine->forced_steps();
  return trace;
}

/// Also asserts equal forced-step counts; `forced`, when given, receives
/// the flat engine's.
void expect_identical_traces(const graph::Graph& g, const std::string& daemon,
                             const FaultSchedule& faults,
                             std::uint64_t steps,
                             std::uint64_t* forced = nullptr) {
  std::uint64_t object_forced = 0;
  std::uint64_t flat_forced = 0;
  const auto object = run_diners(g, daemon, faults, steps,
                                 sim::EngineKind::kObject, &object_forced);
  const auto flat =
      run_diners(g, daemon, faults, steps, sim::EngineKind::kFlat, &flat_forced);
  ASSERT_EQ(object.size(), flat.size()) << "daemon: " << daemon;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_EQ(object[i], flat[i])
        << "daemon: " << daemon << ", first divergence at trace index " << i;
  }
  EXPECT_EQ(object_forced, flat_forced) << "daemon: " << daemon;
  if (forced != nullptr) *forced = flat_forced;
}

const char* const kDaemons[] = {"round-robin", "random", "adversarial-age",
                                "biased"};

// --- differential suite: three topology families × four daemons ----------

TEST(FlatEngineDifferential, RingAllDaemonsFaultFree) {
  const auto g = graph::make_ring(24);
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, {}, 3000);
  }
}

TEST(FlatEngineDifferential, GridAllDaemonsFaultFree) {
  const auto g = graph::make_grid(6, 4);
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, {}, 3000);
  }
}

TEST(FlatEngineDifferential, GnpAllDaemonsFaultFree) {
  const auto g = graph::make_connected_gnp(20, 0.15, /*seed=*/5);
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, {}, 3000);
  }
}

TEST(FlatEngineDifferential, RingWithMaliciousCrashes) {
  const auto g = graph::make_ring(24);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{200, 3, 16},
                    fault::CrashEvent{500, 11, 0}};
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, GridWithMaliciousCrashes) {
  const auto g = graph::make_grid(6, 4);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{150, 9, 32},
                    fault::CrashEvent{400, 20, 8}};
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, GnpWithGlobalCorruptionAndCrash) {
  const auto g = graph::make_connected_gnp(20, 0.15, /*seed=*/5);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{700, 4, 12}};
  faults.corrupt_at = 300;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
  // Every reset_ages rebuild packs guard masks 64 processes at a time, so
  // these sizes pin the block sweep against enabled(): n < 64, exact block
  // boundaries, one-process tails and ragged multi-block tails, each with a
  // dead process mid-range and one in the last block.
  for (const graph::NodeId n :
       {3u, 7u, 61u, 64u, 65u, 100u, 127u, 128u, 192u}) {
    SCOPED_TRACE("n " + std::to_string(n));
    const auto gn = graph::make_connected_gnp(n, 0.15, /*seed=*/n);
    FaultSchedule sized;
    sized.corrupt_at = 300;
    sized.crashes = {fault::CrashEvent{500, n / 2, 12},
                     fault::CrashEvent{800, n - 1, 0}};
    for (const auto* daemon : kDaemons) {
      expect_identical_traces(gn, daemon, sized, 3000);
    }
  }
}

TEST(FlatEngineDifferential, RingWithCrashRestartRejoin) {
  const auto g = graph::make_ring(24);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{200, 5, 24}};
  faults.restart_at = 900;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, RingWithWorkloadChurn) {
  const auto g = graph::make_ring(24);
  FaultSchedule faults;
  faults.toggle_every = 97;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);
  }
}

TEST(FlatEngineDifferential, EverythingAtOnce) {
  const auto g = graph::make_connected_gnp(20, 0.2, /*seed=*/13);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{250, 2, 24},
                    fault::CrashEvent{900, 15, 0}};
  faults.corrupt_at = 600;
  faults.restart_at = 1500;
  faults.toggle_every = 113;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 4000);
  }
}

// --- an executed action that stays enabled ---------------------------------

// Dead process 0 holds depth INT64_MAX below its live neighbours 1 and 7, so
// their fixdepth saturates at INT64_MAX and its guard still holds after the
// step. The flat engine drops the executed slot from its enabled set and
// must re-enable it with the step's stamp, where sim::Engine's restamp
// leaves it. 1 and 7 start without appetite, so fixdepth is their only
// enabled action and every daemon runs it.
TEST(FlatEngineDifferential, SaturatedFixdepthStaysEnabled) {
  const auto g = graph::make_ring(8);
  FaultSchedule faults;
  faults.start = [](DinersSystem& s) {
    s.set_priority(0, 1, 1);
    s.set_priority(0, 7, 7);
    s.set_depth(0, std::numeric_limits<std::int64_t>::max());
    s.crash(0);
    s.set_needs(1, false);
    s.set_needs(7, false);
  };
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 3000);

    // The schedule does reach the case: a fixdepth whose guard survives.
    DinersSystem system(g);
    faults.start(system);
    FlatEngine engine(system, daemon, /*daemon_seed=*/7, /*fairness_bound=*/64);
    int survivors = 0;
    engine.add_observer([&](const sim::StepRecord& r) {
      if (r.action == DinersSystem::kFixDepth &&
          ((system.guard_mask(r.process) >> DinersSystem::kFixDepth) & 1u)) {
        ++survivors;
      }
    });
    engine.run(3000);
    EXPECT_GT(survivors, 0) << "daemon: " << daemon;
  }
}

// The biased daemon always picks the lowest enabled slot, so the fairness
// bound runs everything else: both engines must force the same steps.
TEST(FlatEngineDifferential, BiasedDaemonForcesTheSameSteps) {
  std::uint64_t forced = 0;
  expect_identical_traces(graph::make_ring(24), "biased", {}, 3000, &forced);
  EXPECT_GT(forced, 0u);
}

// --- dense dirty sets ------------------------------------------------------

TEST(FlatEngineDifferential, StarDenseDirtySetsMatchObjectEngine) {
  // Each exit by the center dirties all 299 leaves, a dirty set spanning
  // five 64-process blocks.
  const auto g = graph::make_star(300);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{400, 0, 16}};  // kill the center
  faults.corrupt_at = 900;
  faults.restart_at = 1600;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 2500);
  }
}

TEST(FlatEngineDifferential, RingOneProcessTailBlockMatchesObjectEngine) {
  // n = 65: the rebuilds' second block holds one process, whose slots
  // 320..324 are the only slots of word 5.
  const auto g = graph::make_ring(65);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{300, 64, 24}};
  faults.corrupt_at = 700;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 2500);
  }
}

TEST(FlatEngineDifferential, SmallGnpPartialBlockMatchesObjectEngine) {
  // n < 64: every rebuild sweeps a single partial block.
  const auto g = graph::make_connected_gnp(61, 0.1, /*seed=*/9);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{250, 7, 12}};
  faults.corrupt_at = 600;
  faults.restart_at = 1200;
  for (const auto* daemon : kDaemons) {
    expect_identical_traces(g, daemon, faults, 2500);
  }
}

// --- enabled_count consistency -------------------------------------------

TEST(FlatEngineDifferential, EnabledCountMatchesObjectEngineThroughout) {
  const auto g = graph::make_ring(16);
  DinersSystem a(g);
  DinersSystem b(g);
  sim::Engine object(a, sim::make_daemon("round-robin", 1), 64);
  FlatEngine flat(b, "round-robin", 1, 64);
  for (int s = 0; s < 500; ++s) {
    ASSERT_EQ(object.enabled_count(), flat.enabled_count()) << "at step " << s;
    const auto ra = object.step();
    const auto rb = flat.step();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra) break;
  }
}

// --- engine contract corners ----------------------------------------------

TEST(FlatEngine, TerminationIsNeverCachedAcrossMutation) {
  // Drive a ring to termination (appetite off), then revive appetite with
  // the announced invalidate; the engine must pick the work back up. Cycle
  // breaking is disabled because its exit/fixdepth depth churn never
  // quiesces on a ring (an exit yields edges, handing neighbours fresh
  // descendants that re-enable their fixdepth) — with it off and appetite
  // off, no guard is enabled and the run genuinely terminates.
  DinersConfig cfg;
  cfg.enable_cycle_breaking = false;
  DinersSystem system(graph::make_ring(4), cfg);
  FlatEngine engine(system, "round-robin", 1, 64);
  for (DinersSystem::ProcessId p = 0; p < 4; ++p) system.set_needs(p, false);
  engine.invalidate_all();
  const auto result = engine.run(10000);
  EXPECT_EQ(result.outcome, sim::RunOutcome::kTerminated);
  EXPECT_EQ(engine.enabled_count(), 0u);
  EXPECT_FALSE(engine.step().has_value());
  system.set_needs(0, true);
  engine.invalidate_all();
  EXPECT_TRUE(engine.step().has_value());
}

TEST(FlatEngine, RejectsBadConstructorArguments) {
  DinersSystem system(graph::make_ring(4));
  EXPECT_THROW(FlatEngine(system, "no-such-daemon", 1, 64),
               std::invalid_argument);
  EXPECT_THROW(FlatEngine(system, "round-robin", 1, /*fairness_bound=*/0),
               std::invalid_argument);
}

// --- guard_mask agrees with enabled() on arbitrary states ------------------

TEST(GuardMask, MatchesEnabledUnderRandomCorruption) {
  // guard_mask() is the flat engine's single-pass guard evaluator; fuzz it
  // against the per-action enabled() oracle across corrupted states,
  // including dead processes (the mask itself ignores liveness, as
  // documented — compare raw guards).
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    DinersSystem system(graph::make_connected_gnp(24, 0.2, seed));
    util::Xoshiro256 rng(util::derive_seed(seed, 99));
    for (int round = 0; round < 50; ++round) {
      fault::corrupt_global_state(system, rng);
      for (DinersSystem::ProcessId p = 0; p < 24; ++p) {
        const std::uint32_t mask = system.guard_mask(p);
        for (sim::ActionIndex a = 0; a < DinersSystem::kNumActions; ++a) {
          ASSERT_EQ(((mask >> a) & 1u) != 0, system.enabled(p, a))
              << "seed " << seed << " round " << round << " process " << p
              << " action " << static_cast<int>(a);
        }
      }
    }
  }
}

}  // namespace
}  // namespace diners::core
