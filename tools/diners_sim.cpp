// diners_sim — command-line driver for the simulation substrate.
//
// Runs the paper's algorithm (or a baseline/ablation) on a chosen topology
// under a chosen daemon and fault schedule, and reports per-process and
// aggregate results, optionally as CSV time series.
//
// Examples:
//   diners_sim --topology=ring --n=24 --steps=50000
//   diners_sim --topology=grid --n=36 --crash=1000:7:32 --crash=2000:20:0
//   diners_sim --algorithm=chandy-misra --topology=path --n=16
//   diners_sim --threshold=sound --workload=random-toggle --csv
//   diners_sim --trials=200 --jobs=4 --corrupt --topology=gnp --n=48
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/chandy_misra.hpp"
#include "algorithms/ordered_resource.hpp"
#include "analysis/batch_runner.hpp"
#include "analysis/harness.hpp"
#include "analysis/invariants.hpp"
#include "analysis/dot_export.hpp"
#include "analysis/red_green.hpp"
#include "core/diners_system.hpp"
#include "fault/injector.hpp"
#include "fault/workload.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "core/serialize.hpp"
#include "runtime/engine.hpp"
#include "util/flags.hpp"
#include "verify/counterexample.hpp"
#include "util/json_writer.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using diners::core::DinersConfig;
using diners::core::DinersSystem;
using diners::graph::NodeId;

using diners::util::kUsageError;
using diners::util::UsageError;

/// The --topology graph. An unknown family, or a size the family cannot
/// take, is malformed input.
diners::graph::Graph make_topology(const diners::util::Flags& flags,
                                   NodeId n, std::uint64_t seed) {
  try {
    return diners::graph::make_named(flags.str("topology"), n, seed);
  } catch (const std::invalid_argument& err) {
    throw UsageError(err.what());
  }
}

diners::sim::EngineKind parse_engine(const std::string& name) {
  if (name == "object") return diners::sim::EngineKind::kObject;
  if (name == "flat") return diners::sim::EngineKind::kFlat;
  throw UsageError("unknown engine: " + name + " (object | flat)");
}

int run_diners(const diners::util::Flags& flags) {
  const NodeId n = flags.u32("n", 1, diners::graph::kNoNode - 1);
  const std::uint64_t seed = flags.u64("seed");
  const std::uint64_t steps = flags.u64("steps");
  auto g = make_topology(flags, n, seed);

  DinersConfig cfg;
  // Validated inputs: a typo'd --threshold or --crash must produce a usage
  // message and exit code 2, not an uncaught std::stoul abort.
  std::vector<diners::fault::CrashEvent> events;
  try {
    cfg.diameter_override =
        diners::core::parse_threshold(flags.str("threshold"), g.num_nodes());
    // Repeated --crash flags aren't supported by the tiny parser; accept a
    // comma-separated list instead.
    events = diners::fault::parse_crash_list(flags.str("crash"));
  } catch (const std::invalid_argument& err) {
    throw UsageError(err.what());
  }
  for (const auto& e : events) {
    if (e.process >= g.num_nodes()) {
      throw UsageError("bad crash spec: victim " + std::to_string(e.process) +
                       " is out of range for n = " +
                       std::to_string(g.num_nodes()));
    }
  }
  cfg.enable_dynamic_threshold = !flags.flag("no-threshold");
  cfg.enable_cycle_breaking = !flags.flag("no-cycle-breaking");

  DinersSystem system(std::move(g), cfg);
  if (flags.flag("corrupt")) {
    diners::util::Xoshiro256 rng(seed);
    diners::fault::corrupt_global_state(system, rng);
  }

  diners::analysis::HarnessOptions options;
  options.daemon = flags.str("daemon");
  options.seed = seed;
  options.engine_kind = parse_engine(flags.str("engine"));
  std::unique_ptr<diners::fault::Workload> workload;
  if (flags.str("workload") != "none") {
    workload = diners::fault::make_workload(flags.str("workload"), seed);
  }
  diners::analysis::ExperimentHarness harness(
      system, std::move(workload),
      diners::fault::CrashPlan(std::move(events)), options);

  const bool csv = flags.flag("csv");
  const bool dot = flags.flag("dot");
  // sample = 0 would make the chunked loop below spin forever.
  const std::uint64_t sample = flags.u64("sample", 1);
  if (csv) std::cout << "step,total_meals,violations,invariant\n";
  std::uint64_t done = 0;
  while (done < steps) {
    const auto chunk = std::min<std::uint64_t>(sample, steps - done);
    const auto result = harness.run(chunk);
    done += result.steps_executed;
    if (csv) {
      std::cout << done << ',' << system.total_meals() << ','
                << diners::analysis::eating_violation_count(system) << ','
                << (diners::analysis::holds_invariant(system) ? 1 : 0)
                << '\n';
    }
    if (result.outcome == diners::sim::RunOutcome::kTerminated) break;
  }

  if (dot) {
    std::cout << diners::analysis::to_dot(system);
    return 0;
  }
  if (!csv) {
    const auto dead = system.dead_processes();
    const auto dist = diners::graph::distances_to_set(
        system.topology(), std::span<const NodeId>(dead));
    const auto red = diners::analysis::red_processes(system);
    diners::util::Table t({"process", "state", "meals", "dist", "class"});
    for (NodeId p = 0; p < system.topology().num_nodes(); ++p) {
      t.add_row({static_cast<std::int64_t>(p),
                 std::string(diners::core::to_string(system.state(p))) +
                     (system.alive(p) ? "" : " (dead)"),
                 static_cast<std::int64_t>(system.meals(p)),
                 dead.empty() ? std::string("-")
                              : std::to_string(dist[p]),
                 red[p] ? std::string("red") : std::string("green")});
    }
    t.print(std::cout);
    std::cout << "total meals: " << system.total_meals()
              << "; invariant I: "
              << (diners::analysis::holds_invariant(system) ? "holds"
                                                            : "violated")
              << "; steps executed: " << done << "\n";
  }
  return 0;
}

/// Sweep mode (--trials > 0): fans independent Monte Carlo trials of the
/// configured scenario across --jobs worker threads and prints the merged
/// aggregate. The aggregate is bit-identical for a given seed regardless
/// of --jobs (see analysis/batch_runner.hpp).
int run_batch_mode(const diners::util::Flags& flags) {
  namespace analysis = diners::analysis;

  const NodeId n = flags.u32("n", 1, diners::graph::kNoNode - 1);
  const std::uint64_t seed = flags.u64("seed");

  analysis::ScenarioOptions scenario;
  scenario.topology = flags.str("topology");
  scenario.n = n;
  scenario.daemon = flags.str("daemon");
  scenario.fairness_bound = 256;  // match the single-run harness default
  scenario.corrupt = flags.flag("corrupt");
  scenario.workload = flags.str("workload");
  scenario.max_steps = flags.u64("steps");
  scenario.window_steps = flags.u64("window");
  scenario.check_every = flags.u64("check-every", 1);
  scenario.engine_kind = parse_engine(flags.str("engine"));

  // Validate user input against a probe topology (seeded families resample
  // per trial, but the node count is seed-independent for every family).
  const auto probe = make_topology(flags, n, seed);
  try {
    scenario.diameter_override = diners::core::parse_threshold(
        flags.str("threshold"), probe.num_nodes());
    scenario.crashes = diners::fault::parse_crash_list(flags.str("crash"));
  } catch (const std::invalid_argument& err) {
    throw UsageError(err.what());
  }
  for (const auto& e : scenario.crashes) {
    if (e.process >= probe.num_nodes()) {
      throw UsageError("bad crash spec: victim " + std::to_string(e.process) +
                       " is out of range for n = " +
                       std::to_string(probe.num_nodes()));
    }
  }

  analysis::BatchOptions batch;
  batch.trials = flags.u64("trials");
  batch.master_seed = seed;
  batch.hist_hi = static_cast<double>(scenario.max_steps ? scenario.max_steps
                                                         : 1);
  const std::uint32_t jobs = flags.u32("jobs");  // 0 = hardware
  batch.jobs = jobs == 0 ? diners::util::TrialPool::hardware_jobs() : jobs;

  const auto result = analysis::run_scenario_batch(scenario, batch);

  auto fmt = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", x);
    return std::string(buf);
  };
  // steps-to-I is measured on converged trials only; with none converged
  // there is no measurement to report, not a zero.
  const bool steps_measured = result.primary.count() > 0;
  diners::util::Table t({"metric", "mean", "stddev", "min", "max"});
  if (steps_measured) {
    t.add_row({std::string("steps-to-I"), fmt(result.primary.mean()),
               fmt(result.primary.stddev()), fmt(result.primary.min()),
               fmt(result.primary.max())});
  } else {
    t.add_row({std::string("steps-to-I"), std::string("not measured"),
               std::string("-"), std::string("-"), std::string("-")});
  }
  t.add_row({std::string("meals"), fmt(result.meals.mean()),
             fmt(result.meals.stddev()), fmt(result.meals.min()),
             fmt(result.meals.max())});
  if (scenario.window_steps > 0) {
    t.add_row({std::string("starved"), fmt(result.starved.mean()),
               fmt(result.starved.stddev()), fmt(result.starved.min()),
               fmt(result.starved.max())});
  }
  t.print(std::cout);
  std::cout << "trials: " << result.trials << "; converged: "
            << result.converged << "; jobs: " << batch.jobs;
  if (scenario.window_steps > 0) {
    std::cout << "; max locality radius: " << result.max_locality_radius;
  }
  std::cout << "\nwall: " << fmt(result.wall_seconds) << " s ("
            << fmt(result.trials_per_sec) << " trials/sec)\n";

  // Machine-readable report.
  if (const std::string json_path = flags.str("json"); !json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    diners::util::JsonWriter w(out);
    w.begin_object()
        .field("schema", "diners-sim-batch/v1")
        .key("scenario")
        .begin_object()
        .field("topology", scenario.topology)
        .field("n", static_cast<std::uint64_t>(scenario.n))
        .field("daemon", scenario.daemon)
        .field("engine", flags.str("engine"))
        .field("corrupt", scenario.corrupt)
        .field("workload", scenario.workload)
        .field("max_steps", scenario.max_steps)
        .field("window_steps", scenario.window_steps)
        .field("check_every", scenario.check_every)
        .field("seed", seed)
        .end_object();
    const auto stats_object = [&w](std::string_view name,
                                   const analysis::Accumulator& s) {
      w.key(name)
          .begin_object()
          .field("mean", s.mean())
          .field("stddev", s.stddev())
          .field("min", s.min())
          .field("max", s.max())
          .end_object();
    };
    if (steps_measured) {
      stats_object("steps_to_i", result.primary);
    } else {
      w.key("steps_to_i").null();
    }
    stats_object("meals", result.meals);
    if (scenario.window_steps > 0) {
      stats_object("starved", result.starved);
      w.field("max_locality_radius",
              static_cast<std::uint64_t>(result.max_locality_radius));
    }
    // Share of steps the fairness bound forced; no steps, no share.
    if (result.steps > 0) {
      w.field("forced_share", static_cast<double>(result.forced_steps) /
                                  static_cast<double>(result.steps));
    } else {
      w.key("forced_share").null();
    }
    w.field("trials", result.trials)
        .field("converged", result.converged)
        .field("jobs", static_cast<std::uint64_t>(batch.jobs))
        .field("wall_seconds", result.wall_seconds)
        .field("trials_per_sec", result.trials_per_sec)
        .field("max_rss_bytes", diners::util::peak_rss_bytes());
    w.finish();
  }
  return 0;
}

/// Replays a diners_mc counterexample file against the genuine program and
/// reports whether the recorded run is legal, whether its cycle closes, and
/// whether I holds at the end. Exit 0 iff every recorded action was enabled
/// when executed.
int run_replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read " << path << "\n";
    return 1;
  }
  auto loaded = diners::verify::read_counterexample(in);
  DinersSystem system(std::move(loaded.graph), loaded.config);
  diners::core::restore(system, loaded.cex.start);
  const auto result =
      diners::verify::replay_counterexample(system, loaded.cex);

  std::cout << "replaying " << loaded.cex.property << " counterexample: "
            << loaded.cex.detail << "\n"
            << loaded.cex.events.size() << " events (stem "
            << loaded.cex.stem_length << ", cycle "
            << loaded.cex.events.size() - loaded.cex.stem_length << ")\n";
  if (!result.legal) {
    std::cout << "ILLEGAL at event " << result.failed_index << ": "
              << result.reason << "\n";
    return 1;
  }
  std::cout << "replay legal";
  if (loaded.cex.stem_length < loaded.cex.events.size()) {
    std::cout << "; cycle "
              << (result.cycle_closes ? "closes (run repeats forever)"
                                      : "does NOT close");
  }
  std::cout << "; invariant I at end: "
            << (result.invariant_at_end ? "holds" : "violated") << "\n";
  return 0;
}

template <typename System>
int run_baseline(const diners::util::Flags& flags) {
  const NodeId n = flags.u32("n", 1, diners::graph::kNoNode - 1);
  const std::uint64_t seed = flags.u64("seed");
  System system(make_topology(flags, n, seed));
  diners::sim::Engine engine(
      system, diners::sim::make_daemon(flags.str("daemon"), seed), 256);
  engine.run(flags.u64("steps"));
  diners::util::Table t({"process", "state", "meals"});
  for (NodeId p = 0; p < system.topology().num_nodes(); ++p) {
    t.add_row({static_cast<std::int64_t>(p),
               std::string(diners::core::to_string(system.state(p))),
               static_cast<std::int64_t>(system.meals(p))});
  }
  t.print(std::cout);
  std::cout << "total meals: " << system.total_meals() << "\n";
  return 0;
}

int run(const diners::util::Flags& flags) {
  if (!flags.str("replay").empty()) return run_replay(flags.str("replay"));
  const std::string algorithm = flags.str("algorithm");
  if (flags.u64("trials") > 0) {
    if (algorithm != "nesterenko-arora") {
      std::cerr << "error: --trials sweep mode supports only the "
                   "nesterenko-arora algorithm\n";
      return kUsageError;
    }
    return run_batch_mode(flags);
  }
  if (algorithm == "nesterenko-arora") return run_diners(flags);
  if (algorithm == "chandy-misra") {
    return run_baseline<diners::algorithms::ChandyMisraSystem>(flags);
  }
  if (algorithm == "ordered-resource") {
    return run_baseline<diners::algorithms::OrderedResourceSystem>(flags);
  }
  std::cerr << "unknown algorithm: " << algorithm << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  diners::util::Flags flags;
  flags.define("algorithm", "nesterenko-arora",
               "nesterenko-arora | chandy-misra | ordered-resource")
      .define("topology", "ring",
              "ring|path|star|complete|grid|torus|tree|wheel|barbell|gnp|figure2")
      .define("n", "16", "system size")
      .define("steps", "20000", "scheduler steps to run")
      .define("daemon", "round-robin",
              "round-robin|random|adversarial-age|biased")
      .define("seed", "1", "rng seed")
      .define("threshold", "paper",
              "cycle threshold: paper (=diameter) | sound (=n-1) | <int>")
      .define("workload", "saturation", "saturation|random-toggle|none")
      .define("crash", "", "comma list of STEP:VICTIM[:MALICE]")
      .define("corrupt", "false", "start from a corrupted state")
      .define("no-threshold", "false", "ablation A1: disable leave")
      .define("no-cycle-breaking", "false", "ablation A2: disable fixdepth")
      .define("csv", "false", "emit CSV time series instead of a table")
      .define("dot", "false", "emit the final priority graph as Graphviz DOT")
      .define("sample", "500", "CSV sampling interval in steps")
      .define("trials", "0", "sweep mode: run this many independent trials")
      .define("jobs", "1", "sweep worker threads (0 = hardware)")
      .define("window", "0", "sweep starvation window steps (0 = none)")
      .define("engine", "object",
              "engine implementation: object | flat (SoA substrate)")
      .define("json", "",
              "sweep mode: also write a diners-sim-batch/v1 JSON report "
              "to this path")
      .define("check-every", "16",
              "sweep invariant-check interval in steps (raise for large n)")
      .define("replay", "",
              "replay a diners_mc counterexample file and exit");
  if (!flags.parse(argc, argv)) return kUsageError;
  return diners::util::run_tool(run, flags);
}
