// Differential battery for the wide stepping path (DESIGN.md §11):
// FlatEngine traces stay byte-identical to the object-model oracle for
// every step_jobs value, under malicious crashes, global corruption, and
// crash-restart rejoin — including topologies (stars) whose every step
// takes the block-sharded wide-refresh path.
//
// Test names include "FlatEngine" so the TSan CI job's regex picks the
// sharded runs up under the race detector.
#include <cstdint>
#include <sstream>
#include <stdexcept>
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

// --- step_jobs trace invariance -------------------------------------------

std::string format(const sim::StepRecord& r) {
  std::ostringstream out;
  out << r.step << ':' << r.process << ':' << r.action << ':' << r.action_name;
  return out.str();
}

struct FaultSchedule {
  std::vector<fault::CrashEvent> crashes;
  std::uint64_t corrupt_at = 0;
  std::uint64_t restart_at = 0;
};

/// Identical driver to flat_engine_test.cpp's, with step_jobs threaded
/// through (kObject ignores it).
std::vector<std::string> run_diners(const graph::Graph& g,
                                    const std::string& daemon,
                                    const FaultSchedule& faults,
                                    std::uint64_t steps, sim::EngineKind kind,
                                    unsigned step_jobs = 1) {
  DinersSystem system(g);
  std::unique_ptr<sim::EngineBase> engine;
  if (kind == sim::EngineKind::kFlat) {
    engine = std::make_unique<FlatEngine>(system, daemon, /*daemon_seed=*/7,
                                          /*fairness_bound=*/64,
                                          /*rebuild_jobs=*/1, step_jobs);
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
    if (!engine->step()) break;
  }
  return trace;
}

const char* const kDaemons[] = {"round-robin", "random", "adversarial-age",
                                "biased"};

void expect_step_jobs_invariant(const graph::Graph& g,
                                const FaultSchedule& faults,
                                std::uint64_t steps) {
  for (const auto* daemon : kDaemons) {
    const auto oracle =
        run_diners(g, daemon, faults, steps, sim::EngineKind::kObject);
    for (const unsigned step_jobs : {1u, 2u, 3u, 8u}) {
      const auto flat = run_diners(g, daemon, faults, steps,
                                   sim::EngineKind::kFlat, step_jobs);
      ASSERT_EQ(oracle.size(), flat.size())
          << "daemon " << daemon << " step_jobs " << step_jobs;
      for (std::size_t i = 0; i < flat.size(); ++i) {
        ASSERT_EQ(oracle[i], flat[i]) << "daemon " << daemon << " step_jobs "
                                      << step_jobs << " trace index " << i;
      }
    }
  }
}

TEST(FlatEngineWideStep, StarStepJobsMatchObjectEngine) {
  // Every center step dirties all n processes, so with step_jobs > 1 each
  // refresh takes the block-sharded wide path. 300 > kWideRefreshMinDirty.
  const auto g = graph::make_star(300);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{400, 0, 16}};  // kill the center
  faults.corrupt_at = 900;
  faults.restart_at = 1600;
  expect_step_jobs_invariant(g, faults, 2500);
}

TEST(FlatEngineWideStep, RingTailBlockStepJobsMatchObjectEngine) {
  // n = 65: the second block holds one process — the wide path's smallest
  // partial tail (its guard words cover slots 320..324 of word 5).
  const auto g = graph::make_ring(65);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{300, 64, 24}};
  faults.corrupt_at = 700;
  expect_step_jobs_invariant(g, faults, 2500);
}

TEST(FlatEngineWideStep, SmallGnpStepJobsMatchObjectEngine) {
  // n < 64: a single partial block; step_jobs above the block count must
  // degrade gracefully (pool workers idle) without touching the trace.
  const auto g = graph::make_connected_gnp(61, 0.1, /*seed=*/9);
  FaultSchedule faults;
  faults.crashes = {fault::CrashEvent{250, 7, 12}};
  faults.corrupt_at = 600;
  faults.restart_at = 1200;
  expect_step_jobs_invariant(g, faults, 2500);
}

TEST(FlatEngineWideStep, RejectsZeroStepJobs) {
  DinersSystem system(graph::make_ring(4));
  EXPECT_THROW(FlatEngine(system, "round-robin", 1, 64, /*rebuild_jobs=*/1,
                          /*step_jobs=*/0),
               std::invalid_argument);
}

}  // namespace
}  // namespace diners::core
