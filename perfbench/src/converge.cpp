// converge-ring1M: Theorem 1 at the flagship scale. A uniformly corrupted
// ring of 2^20 philosophers runs under core::FlatEngine until the
// invariant I holds, checked every 65,536 steps.
//
// A task is one check interval: a 65,536-step harness.run burst plus the
// invariant check after it. Steps to I vary more than twofold between
// seeds (1.3M to 2.9M over seeds 0-100), so the time of a whole
// convergence measures the seed as much as the code; the interval does not.
#include <iterator>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kCheckEvery = 65536;
constexpr std::uint64_t kMaxSteps = 8'000'000;
constexpr std::size_t kMinSetups = 3;

// steps_to_i / kCheckEvery of convergence 0 for seeds 0-100, indexed by
// seed, as reported by
//   diners_sim --engine=flat --topology=ring --n=1048576 --threshold=524288
//              --corrupt --trials=1 --steps=8000000 --check-every=65536
//              --seed=S
constexpr std::uint8_t kExpectedIntervals[] = {
    34, 45, 34, 44, 22, 26, 34, 31, 32, 26,  // seeds 0-9
    41, 34, 33, 32, 34, 30, 24, 26, 34, 24,  // 10-19
    32, 30, 28, 44, 34, 24, 20, 25, 31, 28,  // 20-29
    27, 29, 26, 42, 34, 32, 36, 34, 23, 29,  // 30-39
    34, 34, 30, 28, 33, 34, 30, 25, 26, 38,  // 40-49
    37, 32, 33, 32, 31, 29, 33, 34, 24, 30,  // 50-59
    42, 40, 26, 34, 30, 36, 25, 33, 33, 34,  // 60-69
    28, 33, 32, 31, 23, 26, 40, 38, 24, 28,  // 70-79
    33, 34, 24, 33, 33, 29, 33, 30, 33, 33,  // 80-89
    31, 33, 25, 31, 42, 28, 45, 34, 31, 32,  // 90-99
    25,                                      // 100
};

diners::analysis::ScenarioOptions scenario() {
  diners::analysis::ScenarioOptions s;
  s.topology = "ring";
  s.n = 1u << 20;
  s.diameter_override = 1u << 19;
  s.fairness_bound = 256;  // diners_sim's batch default
  s.engine_kind = diners::sim::EngineKind::kFlat;
  s.corrupt = true;
  s.workload = "saturation";
  return s;
}

World setup(const diners::analysis::ScenarioOptions& s,
            std::uint64_t trial_seed, Tracer* tracer) {
  ScopedSpan root(tracer, "converge.setup");
  return build_world(s, trial_seed, tracer);
}

}  // namespace

Outcome run_converge(const Options& options, Tracer* tracer,
                     const Outcome* reference) {
  using diners::util::derive_seed;
  const auto sc = scenario();
  Outcome out;
  out.roots = {"converge.setup", "converge.run"};
  double rss_after_setup = 0.0;
  double run_time_s = 0.0;
  std::vector<double> converge_s;
  std::uint64_t total_steps = 0;
  // Convergence k is trial k of a run_scenario_batch with master seed
  // `seed`; convergences repeat until `seconds` of run time have passed.
  for (std::uint64_t k = 0;; ++k) {
    const bool more = reference != nullptr
                          ? k < reference->fingerprints.size()
                          : (k == 0 || run_time_s < options.seconds);
    if (!more) break;
    const auto s0 = Clock::now();
    World w = setup(sc, derive_seed(options.seed, k), tracer);
    const auto s1 = Clock::now();
    out.setup_s.push_back(seconds_between(s0, s1));
    if (k == 0) rss_after_setup = rss_mb();

    Convergence c;
    const double cpu0 = process_cpu_s();
    {
      ScopedSpan root(tracer, "converge.run");
      c = converge_to_invariant(w, kMaxSteps, kCheckEvery, tracer,
                                &out.task_ms);
    }
    out.task_cpu_s += process_cpu_s() - cpu0;
    const double run_s = seconds_between(s1, Clock::now());
    run_time_s += run_s;
    converge_s.push_back(run_s);
    total_steps += c.steps;
    out.fingerprints.push_back(std::to_string(c.steps));
    ++out.attempted;
    if (!c.reached) ++out.failed;
    out.check(c.reached, "convergence " + std::to_string(k) +
                             " did not reach I in " +
                             std::to_string(kMaxSteps) + " steps");
    // An independent code path for the final verdict: the context overload
    // shares no orientation or chain computation with the plain oracle.
    out.check(diners::analysis::holds_invariant(
                  *w.system, diners::analysis::ShallowContext(*w.system)),
              "ShallowContext oracle disagrees on the final state");
    if (k == 0) {
      out.peak_rss_mb = peak_rss_mb();
      out.native["steps_to_i"] = static_cast<double>(c.steps);
      if (options.seed < std::size(kExpectedIntervals)) {
        const std::uint64_t steps =
            kExpectedIntervals[options.seed] * kCheckEvery;
        out.check(c.steps == steps, "steps_to_i " + std::to_string(c.steps) +
                                        " != expected " +
                                        std::to_string(steps));
      }
    }
  }
  // Extra set-ups so that set-up time is a median of several.
  for (std::uint64_t k = out.setup_s.size(); k < kMinSetups; ++k) {
    const auto s0 = Clock::now();
    const World w = setup(sc, derive_seed(options.seed, k), tracer);
    out.setup_s.push_back(seconds_between(s0, Clock::now()));
  }
  out.native["converge_s"] = median(converge_s);

  if (tracer != nullptr) {
    const auto t = layer_totals(tracer->spans());
    const double runs = static_cast<double>(converge_s.size());
    const double run_s = layer_self_s(t, "analysis.harness_run");
    auto& l = out.layers;
    l["graph.make_named_s"] = layer_median_s(t, "graph.make_named");
    l["core.system_init_s"] = layer_median_s(t, "core.system_init");
    l["fault.corrupt_s"] = layer_median_s(t, "fault.corrupt");
    l["core.engine_build_s"] = layer_median_s(t, "core.engine_build");
    l["analysis.harness_run_s"] = run_s / runs;
    l["core.step_ns"] = run_s * 1e9 / static_cast<double>(total_steps);
    l["analysis.invariant_s"] = layer_self_s(t, "analysis.invariant") / runs;
    l["analysis.invariant_calls"] =
        static_cast<double>(layer_count(t, "analysis.invariant")) / runs;
    l["analysis.invariant_ms"] = layer_median_s(t, "analysis.invariant") * 1e3;
    l["analysis.steps_to_i"] = out.native["steps_to_i"];
    l["core.rss_after_setup_mb"] = rss_after_setup;
  }
  return out;
}

}  // namespace perfbench
