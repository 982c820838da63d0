// Experiment F1 — the Figure 1 algorithm as executable code.
//
// Micro-costs of the five actions' guards and of a full engine step, plus
// end-to-end step throughput scaling with system size. The paper reports no
// numbers here; this bench establishes the cost of the implementation.
//
// Rows reported:
//   guard_eval/<action>        — one guard evaluation (ring of 64)
//   engine_step/<n>            — one weakly-fair engine step, steps/s
//   flat_engine_step/<n>       — the same step on the SoA substrate
//   flat_engine_rebuild/<jobs> — a sharded full enabled-set rebuild
//   meals_throughput/<n>       — meals per second of simulated execution
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "core/diners_system.hpp"
#include "core/flat_engine.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"

namespace {

using diners::core::DinersSystem;
using diners::core::FlatEngine;
using diners::graph::make_ring;

/// Peak resident set in bytes (Linux ru_maxrss is KiB). Recorded on the
/// large-n engine rows so memory regressions gate alongside time; sizes
/// ascend within a binary run, so peak-so-far tracks the current size.
double peak_rss_bytes() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

/// Large-n ring config: the exact diameter (n/2 for even n) as an override,
/// so construction skips the O(n*m) all-pairs BFS.
diners::core::DinersConfig ring_config(diners::graph::NodeId n) {
  diners::core::DinersConfig cfg;
  cfg.diameter_override = n / 2;
  return cfg;
}

void BM_GuardEval(benchmark::State& state) {
  const auto action = static_cast<diners::sim::ActionIndex>(state.range(0));
  DinersSystem system(make_ring(64));
  // Mid-ring process with both an ancestor and a descendant.
  const DinersSystem::ProcessId p = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.enabled(p, action));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GuardEval)
    ->Arg(DinersSystem::kJoin)
    ->Arg(DinersSystem::kLeave)
    ->Arg(DinersSystem::kEnter)
    ->Arg(DinersSystem::kExit)
    ->Arg(DinersSystem::kFixDepth)
    ->ArgName("action");

void BM_EngineStep(benchmark::State& state) {
  const auto n = static_cast<diners::graph::NodeId>(state.range(0));
  DinersSystem system(make_ring(n));
  diners::sim::Engine engine(system, diners::sim::make_daemon("round-robin", 1),
                             256);
  for (auto _ : state) {
    if (!engine.step()) state.SkipWithError("program terminated");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineStep)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(192)
    ->ArgName("n");

// The classic engine (full guard scan every step), for comparison against
// the incremental enabled-set default above.
void BM_EngineStepFullScan(benchmark::State& state) {
  const auto n = static_cast<diners::graph::NodeId>(state.range(0));
  DinersSystem system(make_ring(n));
  diners::sim::Engine engine(system, diners::sim::make_daemon("round-robin", 1),
                             256, diners::sim::ScanMode::kFullScan);
  for (auto _ : state) {
    if (!engine.step()) state.SkipWithError("program terminated");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineStepFullScan)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(192)
    ->ArgName("n");

// The flat (structure-of-arrays) substrate on the same workload, including
// the sizes the object engine cannot reach in bench time.
void BM_FlatEngineStep(benchmark::State& state) {
  const auto n = static_cast<diners::graph::NodeId>(state.range(0));
  DinersSystem system(make_ring(n), ring_config(n));
  FlatEngine engine(system, "round-robin", 1, 256);
  for (auto _ : state) {
    if (!engine.step()) state.SkipWithError("program terminated");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["max_rss_bytes"] = peak_rss_bytes();
}
BENCHMARK(BM_FlatEngineStep)
    ->Arg(64)
    ->Arg(192)
    ->Arg(1024)
    ->Arg(10240)
    ->Arg(102400)
    ->Arg(1048576)
    ->ArgName("n");

// One full enabled-set rebuild (the reset_ages path: every guard in the
// system re-evaluated), sharded across the given worker count.
void BM_FlatEngineRebuild(benchmark::State& state) {
  constexpr diners::graph::NodeId n = 102400;
  const auto jobs = static_cast<unsigned>(state.range(0));
  DinersSystem system(make_ring(n), ring_config(n));
  FlatEngine engine(system, "round-robin", 1, 256, jobs);
  for (auto _ : state) {
    engine.reset_ages();  // marks the whole set stale ...
    benchmark::DoNotOptimize(engine.enabled_count());  // ... rebuild here
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
  state.counters["max_rss_bytes"] = peak_rss_bytes();
}
BENCHMARK(BM_FlatEngineRebuild)->Arg(1)->Arg(4)->ArgName("jobs");

void BM_MealsThroughput(benchmark::State& state) {
  const auto n = static_cast<diners::graph::NodeId>(state.range(0));
  DinersSystem system(make_ring(n));
  diners::sim::Engine engine(system, diners::sim::make_daemon("round-robin", 1),
                             256);
  std::uint64_t meals_before = 0;
  for (auto _ : state) {
    engine.run(1000);
  }
  const std::uint64_t meals = system.total_meals() - meals_before;
  state.counters["meals"] = static_cast<double>(meals);
  state.counters["meals_per_1k_steps"] =
      static_cast<double>(meals) /
      (static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MealsThroughput)->Arg(8)->Arg(32)->Arg(128)->ArgName("n");

}  // namespace
