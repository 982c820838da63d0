// locality-sweep: Theorem 3 / experiment E2 as a Monte Carlo batch. Each
// trial crashes node 512 of a corrupted ring-1024 maliciously at step 0,
// converges to I (checked every 256 steps), then measures starvation over
// a 200,000-step window. The untraced pass calls
// analysis::run_scenario_batch; the traced pass builds each trial from the
// same public calls under analysis::run_batch, and must fold to a
// bit-identical aggregate.
#include <algorithm>
#include <cstdio>
#include <string>

#include "analysis/batch_runner.hpp"
#include "analysis/harness.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace perfbench {

namespace {

using diners::analysis::BatchOptions;
using diners::analysis::BatchResult;
using diners::analysis::ScenarioOptions;
using diners::analysis::TrialOutput;

constexpr std::uint64_t kTrialsPerBatch = 64;
constexpr std::uint64_t kWindowSteps = 200'000;
constexpr std::uint32_t kLocalityBound = 2;
constexpr std::size_t kSetups = 64;

ScenarioOptions scenario() {
  ScenarioOptions s;
  s.topology = "ring";
  s.n = 1024;
  s.diameter_override = 1023;  // the sound threshold, n - 1
  s.engine_kind = diners::sim::EngineKind::kFlat;
  s.corrupt = true;
  s.workload = "saturation";
  s.crashes = {{/*at_step=*/0, /*process=*/512, /*malicious_steps=*/8}};
  s.check_every = 256;
  s.window_steps = kWindowSteps;
  return s;
}

/// run_scenario_trial, rebuilt from public calls with a span per phase.
TrialOutput traced_trial(const ScenarioOptions& sc, std::uint64_t seed,
                         std::uint64_t batch_span, Tracer* tracer) {
  ScopedSpan root(tracer, "batch.trial", batch_span);
  World w = [&] {
    ScopedSpan s(tracer, "batch.trial_setup");
    return build_world(sc, seed, tracer);
  }();
  TrialOutput out;
  {
    ScopedSpan s(tracer, "analysis.converge");
    const Convergence c =
        converge_to_invariant(w, sc.max_steps, sc.check_every, tracer);
    out.converged = c.reached;
    out.primary = c.reached ? static_cast<double>(c.steps) : 0.0;
  }
  ScopedSpan s(tracer, "analysis.window");
  const auto report = diners::analysis::measure_starvation(*w.harness,
                                                           sc.window_steps);
  out.meals = report.meals_in_window;
  out.starved = report.starved.size();
  out.locality_radius = report.locality_radius;
  return out;
}

std::string hex(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string hex(const diners::analysis::Accumulator& a) {
  return std::to_string(a.count()) + "/" + hex(a.mean()) + "/" +
         hex(a.variance()) + "/" + hex(a.min()) + "/" + hex(a.max());
}

/// Every field of the aggregate except the wall timings, bit for bit.
std::string fingerprint(const BatchResult& r) {
  std::string s = std::to_string(r.trials) + " " + std::to_string(r.converged) +
                  " " + hex(r.primary) + " " + hex(r.meals) + " " +
                  hex(r.starved) + " " + std::to_string(r.max_locality_radius) +
                  " " + std::to_string(r.primary_hist.underflow()) + ":" +
                  std::to_string(r.primary_hist.overflow());
  for (const auto b : r.primary_hist.bins()) s += ":" + std::to_string(b);
  return s;
}

}  // namespace

Outcome run_locality(const Options& options, Tracer* tracer,
                     const Outcome* reference) {
  using diners::util::derive_seed;
  const auto sc = scenario();
  Outcome out;
  out.roots = {"batch.trial"};

  // Set-up time: the worlds of batch 0's trials, built serially, half before
  // the batches and half after, so that the median samples both ends of
  // the run rather than one moment of a machine whose speed drifts.
  const auto time_setups = [&](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      const auto s0 = Clock::now();
      const World w = build_world(
          sc, derive_seed(derive_seed(options.seed, 0), k), nullptr);
      out.setup_s.push_back(seconds_between(s0, Clock::now()));
    }
  };
  time_setups(0, kSetups / 2);

  struct BatchSpan {
    std::uint64_t id;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<BatchSpan> batch_spans;
  double task_time_s = 0.0;
  std::uint64_t trials = 0;
  std::uint64_t converge_steps = 0;
  for (std::uint64_t k = 0;; ++k) {
    const bool more = reference != nullptr
                          ? k < reference->task_ms.size()
                          : (k == 0 || task_time_s < options.seconds);
    if (!more) break;
    BatchOptions bo;
    bo.trials = kTrialsPerBatch;
    bo.jobs = options.jobs;
    bo.master_seed = derive_seed(options.seed, k);
    BatchResult r;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    if (tracer == nullptr) {
      r = diners::analysis::run_scenario_batch(sc, bo);
    } else {
      const std::uint64_t id = tracer->next_id();
      r = diners::analysis::run_batch(
          bo, [&sc, tracer, id](std::uint64_t, std::uint64_t seed) {
            return traced_trial(sc, seed, id, tracer);
          });
      const BatchSpan b{id, to_ns(t0), now_ns()};
      tracer->record(Span{id, 0, "batch.run", b.start_ns, b.end_ns});
      batch_spans.push_back(b);
    }
    const auto t1 = Clock::now();
    out.task_cpu_s += process_cpu_s() - cpu0;
    task_time_s += seconds_between(t0, t1);
    out.task_ms.push_back(seconds_between(t0, t1) * 1e3);
    if (k == 0) out.peak_rss_mb = peak_rss_mb();
    out.fingerprints.push_back(fingerprint(r));
    trials += r.trials;
    converge_steps += static_cast<std::uint64_t>(r.primary.sum() + 0.5);
    out.attempted += r.trials;
    // Aggregates carry the max radius only; a run with any far starvation
    // fails its check, so one failed trial is the count it records.
    const std::uint64_t far = r.max_locality_radius > kLocalityBound ? 1 : 0;
    out.failed += std::max(r.trials - r.converged, far);
    out.check(r.converged == r.trials,
              "batch " + std::to_string(k) + ": " +
                  std::to_string(r.trials - r.converged) +
                  " trials did not converge");
    out.check(far == 0, "batch " + std::to_string(k) +
                            ": starvation at distance " +
                            std::to_string(r.max_locality_radius) + " > 2");
  }
  time_setups(kSetups / 2, kSetups);
  out.native["trials_per_s"] = static_cast<double>(trials) / task_time_s;

  if (tracer != nullptr) {
    const auto& spans = tracer->spans();
    const auto t = layer_totals(spans);
    // Per batch: the parallel phase ends with its last trial; the fold on
    // the calling thread follows.
    std::vector<double> fold_s;
    double parallel_s = 0.0;
    for (const BatchSpan& b : batch_spans) {
      std::int64_t last_end = b.start_ns;
      for (const Span& s : spans) {
        if (s.parent == b.id) last_end = std::max(last_end, s.end_ns);
      }
      parallel_s += static_cast<double>(last_end - b.start_ns) * 1e-9;
      fold_s.push_back(static_cast<double>(b.end_ns - last_end) * 1e-9);
    }
    const double n_trials = static_cast<double>(trials);
    const auto trial_it = t.find("batch.trial");
    const double trial_total =
        trial_it == t.end() ? 0.0 : trial_it->second.total_s;
    const double stepping_s = layer_self_s(t, "analysis.harness_run") +
                              layer_self_s(t, "analysis.window");
    auto& l = out.layers;
    for (const char* layer : {"graph.make_named", "core.system_init",
                              "fault.corrupt", "core.engine_build"}) {
      l[std::string(layer) + "_s"] = layer_median_s(t, layer);
    }
    l["analysis.harness_run_s"] =
        layer_self_s(t, "analysis.harness_run") / n_trials;
    l["analysis.invariant_s"] =
        layer_self_s(t, "analysis.invariant") / n_trials;
    l["analysis.steps_to_i"] = static_cast<double>(converge_steps) / n_trials;
    l["batch.trial_ms"] = layer_median_s(t, "batch.trial") * 1e3;
    l["batch.trial_setup_ms"] = layer_median_s(t, "batch.trial_setup") * 1e3;
    l["analysis.converge_ms"] = layer_median_s(t, "analysis.converge") * 1e3;
    l["analysis.invariant_calls"] =
        static_cast<double>(layer_count(t, "analysis.invariant")) / n_trials;
    l["analysis.invariant_ms"] = layer_median_s(t, "analysis.invariant") * 1e3;
    l["analysis.window_ms"] = layer_median_s(t, "analysis.window") * 1e3;
    l["core.step_ns"] =
        stepping_s * 1e9 /
        static_cast<double>(converge_steps + trials * kWindowSteps);
    l["util.pool_idle_share"] =
        1.0 - trial_total / (static_cast<double>(options.jobs) * parallel_s);
    l["batch.fold_ms"] = median(fold_s) * 1e3;
  }
  return out;
}

}  // namespace perfbench
