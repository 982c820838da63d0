// ExperimentHarness: wires a DinersSystem to an engine, a workload, and a
// crash plan — the standard way tests, examples, and benches run the paper's
// scenarios.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/diners_system.hpp"
#include "fault/injector.hpp"
#include "fault/workload.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace diners::analysis {

struct HarnessOptions {
  std::string daemon = "round-robin";
  /// Engine weak-fairness bound. Small values force progress quickly and
  /// keep experiment runtimes reasonable.
  std::uint64_t fairness_bound = 256;
  std::uint64_t seed = 1;
  fault::CorruptionOptions corruption;
  /// Engine enabled-set maintenance; kFullScan is the differential-testing
  /// reference path. Only meaningful for the object engine.
  sim::ScanMode scan_mode = sim::ScanMode::kIncremental;
  /// Which engine implementation drives the run. kFlat selects the
  /// structure-of-arrays core::FlatEngine (byte-identical step traces).
  sim::EngineKind engine_kind = sim::EngineKind::kObject;
  /// Ignored; kept only because perfbench/src/world.cpp still copies it.
  unsigned rebuild_jobs = 1;
  /// Ignored; kept only because perfbench/src/world.cpp still copies it.
  unsigned step_jobs = 1;
};

class ExperimentHarness {
 public:
  /// Borrows `system`; owns workload, plan, and engine. A null workload
  /// means "leave needs() alone".
  ExperimentHarness(core::DinersSystem& system,
                    std::unique_ptr<fault::Workload> workload,
                    fault::CrashPlan plan, HarnessOptions options = {});

  /// Runs up to `max_steps` engine steps, interleaving workload ticks and
  /// due crash events. Stops early if the program terminates.
  sim::RunResult run(std::uint64_t max_steps);

  [[nodiscard]] sim::EngineBase& engine() noexcept { return *engine_; }
  [[nodiscard]] core::DinersSystem& system() noexcept { return system_; }
  [[nodiscard]] util::Xoshiro256& rng() noexcept { return rng_; }

 private:
  core::DinersSystem& system_;
  std::unique_ptr<fault::Workload> workload_;
  fault::CrashPlan plan_;
  HarnessOptions options_;
  util::Xoshiro256 rng_;
  std::unique_ptr<sim::EngineBase> engine_;
};

/// Empirical starvation over a measurement window.
struct StarvationReport {
  /// Live processes that wanted to eat during the whole window yet started
  /// zero meals in it.
  std::vector<core::DinersSystem::ProcessId> starved;
  /// Max graph distance from a starved process to the nearest dead process.
  /// graph::kUnreachable if a process starved with no crash present (a
  /// liveness bug). 0 when nothing starved.
  std::uint32_t locality_radius = 0;
  /// Meals started inside the window, system-wide.
  std::uint64_t meals_in_window = 0;
};

/// Runs `window_steps` under the harness (saturation appetite assumed
/// already primed) and reports which processes starved and how far the
/// starvation reaches from the dead set — the empirical failure-locality
/// measurement of experiment E2.
[[nodiscard]] StarvationReport measure_starvation(ExperimentHarness& harness,
                                                  std::uint64_t window_steps);

/// Same measurement for any PhilosopherProgram (used to compare the
/// baselines): runs `engine` for the window with no fault/workload
/// interleaving — crash the victims beforehand.
[[nodiscard]] StarvationReport measure_starvation(
    core::PhilosopherProgram& program, sim::EngineBase& engine,
    std::uint64_t window_steps);

}  // namespace diners::analysis
