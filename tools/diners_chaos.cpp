// diners_chaos — chaos soak driver: indefinite fault–recovery campaigns
// with automated convergence verification, over every runtime backend.
//
// Each trial alternates randomized fault bursts (malicious crashes,
// restarts, state corruption, network garbage) with quiescent windows in
// which a watchdog must observe recovery (invariant I, progress, failure
// locality). Any watchdog failure is an incident: the campaign reports it,
// writes a structured incident file (replayable via `diners_sim --replay`
// where a ground-truth snapshot exists), and the tool exits 1.
//
// The JSON summary on stdout is bit-identical for any --jobs value (and,
// for the deterministic backends, across runs); wall timing goes to
// stderr. Exit codes: 0 clean, 1 incident(s), 2 usage error.
//
// Examples:
//   diners_chaos --rounds=200 --topology=ring --n=8
//   diners_chaos --backend=msgpass-unreliable --drop=0.01 --reorder=0.05
//   diners_chaos --backend=threaded --rounds=50 --trials=2
//   diners_chaos --mutate=no-fixdepth --corrupt-prob=1   # must exit 1
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "analysis/batch_runner.hpp"
#include "chaos/campaign.hpp"
#include "chaos/report.hpp"
#include "core/config.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "verify/mutation.hpp"

namespace {

using diners::util::probability;
using diners::util::UsageError;

void print_summary(const diners::chaos::CampaignOptions& options,
                   const diners::chaos::CampaignBatchResult& result) {
  using diners::chaos::Backend;
  const bool deterministic = options.backend != Backend::kThreaded;
  diners::chaos::write_campaign_json(std::cout, options, result);
  std::cerr << "wall: " << result.wall_seconds << " s";
  if (!deterministic) {
    std::cerr << "; threaded meals (timing-dependent): "
              << result.total_meals << "; mean recovery polls: "
              << result.recovery_steps.mean();
  }
  std::cerr << "\n";
}

int run(const diners::util::Flags& flags) {
  diners::chaos::CampaignOptions options;
  diners::analysis::BatchOptions batch;
  try {
    options.backend = diners::chaos::parse_backend(flags.str("backend"));
    options.mutation =
        diners::verify::parse_guard_mutation(flags.str("mutate"));
    options.topology = flags.str("topology");
    // All numeric flags go through the validated accessors: "123abc",
    // "-5", and out-of-range values (e.g. --topology-seed past 2^64-1)
    // must exit 2 with a message, never truncate or abort.
    options.n = flags.u32("n", 1, diners::graph::kNoNode - 1);
    options.gnp_p = probability(flags, "gnp-p");
    if (!flags.str("topology-seed").empty()) {
      options.topology_seed = diners::util::parse_u64(
          flags.str("topology-seed"), 0,
          std::numeric_limits<std::uint64_t>::max(), "--topology-seed");
    }
    options.config.diameter_override =
        diners::core::parse_threshold(flags.str("threshold"), options.n);
    // Each trial builds its own graph; a probe turns an unknown family, or
    // a size it cannot take, into a usage error before any trial runs.
    (void)diners::graph::make_named(options.topology, options.n,
                                    options.topology_seed.value_or(0),
                                    options.gnp_p);
  } catch (const std::invalid_argument& err) {
    throw UsageError(err.what());
  }
  options.rounds = flags.u64("rounds", 1);
  options.max_crashes_per_burst = flags.u32("burst", 1);
  options.max_malicious_steps = flags.u32("malice");
  options.restart_probability = probability(flags, "restart-prob");
  options.global_corruption_probability = probability(flags, "corrupt-prob");
  options.process_corruption_probability =
      probability(flags, "process-corrupt-prob");
  options.watchdog.budget_steps = flags.u64("budget", 1);
  options.watchdog.check_every = flags.u64("check-every", 1);
  options.watchdog.progress_window = flags.u64("window");
  options.watchdog.locality_bound = flags.u32("locality");
  options.daemon = flags.str("daemon");
  options.fairness_bound = flags.u64("fairness");
  options.network_faults.drop = probability(flags, "drop");
  options.network_faults.duplicate = probability(flags, "duplicate");
  options.network_faults.reorder = probability(flags, "reorder");
  options.network_faults.delay = probability(flags, "delay");
  options.network_faults.corrupt = probability(flags, "net-corrupt");
  options.fault_phase_steps = flags.u64("fault-steps");
  options.poll_sleep_us = flags.u32("poll-us");
  if (options.mutation != diners::verify::GuardMutation::kNone &&
      options.backend != diners::chaos::Backend::kSharedMemory) {
    throw UsageError("--mutate applies to the shared-memory backend only");
  }

  batch.trials = flags.u64("trials", 1);
  batch.jobs = flags.u32("jobs", 1);
  batch.master_seed = flags.u64("seed");
  // An unwritable path found only after hours of soaking would throw the
  // incident evidence away.
  diners::util::require_writable(
      flags.str("incident"),
      "cannot write incident report to --incident path: ");

  const auto result = diners::chaos::run_campaign_batch(options, batch);
  print_summary(options, result);

  if (result.incidents == 0) return 0;
  const std::string path = flags.str("incident");
  if (result.first_incident && !path.empty()) {
    std::ofstream out(path);
    if (out) {
      diners::chaos::write_incident(out, *result.first_incident);
      std::cerr << "incident: " << result.first_incident->reason
                << "\nincident report written to " << path;
      if (result.first_incident->evidence) {
        std::cerr << " (replay with: diners_sim --replay=" << path << ")";
      }
      std::cerr << "\n";
    } else {
      std::cerr << "error: cannot write incident report to " << path << "\n";
    }
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  diners::util::Flags flags;
  flags.define("backend", "shared-memory",
               "shared-memory | msgpass | msgpass-unreliable | threaded")
      .define("topology", "ring",
              "ring|path|star|complete|grid|torus|tree|wheel|barbell|gnp|"
              "figure2")
      .define("n", "8", "number of philosophers")
      .define("gnp-p", "0.15", "edge probability for --topology=gnp")
      .define("topology-seed", "",
              "fix the seeded topology families (default: per-trial)")
      .define("threshold", "sound",
              "cycle threshold: paper | sound | <integer>")
      .define("rounds", "200", "fault-burst rounds per trial")
      .define("burst", "2", "max victims per burst (draw: 1 + below(burst))")
      .define("malice", "6", "max malicious pre-halt writes per victim")
      .define("restart-prob", "0.7", "per-round rejoin chance per dead process")
      .define("corrupt-prob", "0.05", "per-round global corruption chance")
      .define("process-corrupt-prob", "0.25",
              "per-round single-process corruption chance")
      .define("budget", "200000", "watchdog convergence budget (steps)")
      .define("check-every", "16", "watchdog check period (steps)")
      .define("window", "4096",
              "progress/locality window after convergence (0 = off)")
      .define("locality", "2", "failure-locality bound (paper: 2)")
      .define("daemon", "random",
              "round-robin | random | adversarial-age | biased")
      .define("fairness", "64", "engine weak-fairness bound")
      .define("mutate", "none",
              "guard mutation (none | no-fixdepth | greedy-enter); the "
              "watchdog must catch non-none ones")
      .define("drop", "0.01", "msgpass-unreliable: per-message drop chance")
      .define("duplicate", "0.01",
              "msgpass-unreliable: per-message duplication chance")
      .define("reorder", "0.05",
              "msgpass-unreliable: per-message reorder chance")
      .define("delay", "0.02",
              "msgpass-unreliable: per-message delay-by-k chance")
      .define("net-corrupt", "0.005",
              "msgpass-unreliable: bounded per-message corruption chance")
      .define("fault-steps", "1500",
              "msgpass: steps run under the burst network per round")
      .define("poll-us", "200", "threaded: snapshot poll interval (us)")
      .define("trials", "4", "independent campaigns")
      .define("jobs", "1", "worker threads for the trial fan-out")
      .define("seed", "1", "master seed (trial seeds derive from it)")
      .define("incident", "chaos_incident.txt",
              "incident report path (empty = don't write)");
  if (!flags.parse(argc, argv)) return diners::util::kUsageError;
  return diners::util::run_tool(run, flags);
}
