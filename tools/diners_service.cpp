// diners_service — the diners lock/lease arbiter service CLI.
//
// Two modes:
//
//   serve (default): bind one arbiter endpoint per philosopher under
//     --socket-dir and arbitrate critical-section entry for external
//     clients (e.g. diners_load) until --duration-ms elapses.
//
//   --campaign: run a full live chaos campaign in-process — service up,
//     open-loop load on, malicious crash of --victim mid-load, restart,
//     convergence watchdog, SLO report stratified by graph distance from
//     the victim (schema diners-slo/v1) to --out or stdout. The tool's
//     verdict is the failure-locality SLO: clients at distance >=
//     --far-distance must hold their p99 through the crash, and the
//     protocol must reconverge within the watchdog budget.
//
// Exit codes: 0 clean / SLO met, 1 SLO violated, 2 usage error.
//
// Examples:
//   diners_service --topology=ring --n=8 --duration-ms=5000 &
//   diners_service --campaign --topology=ring --n=16 --victim=0
//       --rps=400 --out=slo.json
#include <fstream>
#include <iostream>
#include <thread>

#include "core/config.hpp"
#include "graph/generators.hpp"
#include "service/arbiter.hpp"
#include "service/live_campaign.hpp"
#include "util/flags.hpp"

namespace {

using diners::util::probability;
using diners::util::UsageError;

int run(const diners::util::Flags& flags) {
  diners::service::LiveCampaignOptions options;
  try {
    options.graph = diners::graph::make_named(
        flags.str("topology"), flags.u32("n", 1), flags.u64("seed"),
        flags.f64("gnp-p"));
    options.config.diameter_override = diners::core::parse_threshold(
        flags.str("threshold"), flags.u32("n", 1));
  } catch (const std::invalid_argument& err) {
    throw UsageError(err.what());
  }
  options.socket_dir = flags.str("socket-dir");
  if (options.socket_dir.empty()) {
    throw UsageError("--socket-dir must not be empty");
  }
  options.mp.seed = flags.u64("seed");
  options.mp.network_faults.drop = probability(flags, "drop");
  options.mp.network_faults.duplicate = probability(flags, "duplicate");
  options.mp.network_faults.reorder = probability(flags, "reorder");
  options.mp.network_faults.delay = probability(flags, "delay");
  options.steps_per_poll = flags.u32("steps-per-poll", 1);

  if (!flags.flag("campaign")) {
    // Serve mode: stand up the arbiters and hold the door open.
    diners::service::ServiceOptions sopts;
    sopts.socket_dir = options.socket_dir;
    sopts.config = options.config;
    sopts.mp = options.mp;
    sopts.steps_per_poll = options.steps_per_poll;
    diners::service::ServiceHost host(options.graph, sopts);
    host.start();
    std::cerr << "serving " << options.graph.num_nodes()
              << " arbiters under " << options.socket_dir << "\n";
    std::this_thread::sleep_for(
        std::chrono::milliseconds(flags.u64("duration-ms")));
    host.stop();
    const auto stats = host.stats();
    std::cerr << "served: " << stats.grants << " grants, " << stats.accepted
              << " connections, " << stats.steps << " protocol steps\n";
    return 0;
  }

  const std::string out_path = flags.str("out");
  diners::util::require_writable(out_path, "cannot write to --out path: ");

  options.victim = flags.u32("victim");
  if (options.victim >= options.graph.num_nodes()) {
    throw UsageError("--victim is not a node of the topology");
  }
  options.malice = flags.u32("malice");
  options.crash_at_ms = flags.f64("crash-at-ms");
  options.restart_at_ms = flags.f64("restart-at-ms");
  if (options.restart_at_ms <= options.crash_at_ms) {
    throw UsageError("--restart-at-ms must be after --crash-at-ms");
  }
  options.load.clients = flags.u32("clients", 1);
  options.load.rps = flags.f64("rps");
  if (!(options.load.rps > 0.0)) {
    throw UsageError("--rps must be positive");
  }
  options.load.duration_ms = flags.u32("duration-ms", 1);
  options.load.deadline_ms = flags.u32("deadline-ms", 1);
  options.load.hold_us = flags.u32("hold-us");
  options.load.seed = flags.u64("seed");
  options.watchdog.budget_steps = flags.u64("budget", 1);
  options.p99_budget_ms = flags.f64("p99-budget-ms");
  options.far_distance = flags.u32("far-distance");

  const auto result = diners::service::run_live_campaign(options);
  if (out_path.empty()) {
    diners::service::write_slo_json(std::cout, result.slo);
  } else {
    std::ofstream out(out_path);
    diners::service::write_slo_json(out, result.slo);
  }
  std::cerr << "campaign: " << result.load.records.size() << " requests, "
            << result.service.grants << " grants, "
            << result.service.revocations << " revocations, "
            << result.load.reconnects << " reconnects; recovery "
            << (result.slo.recovered ? "converged" : "FAILED") << " in "
            << result.slo.recovery_steps << " steps; SLO "
            << (result.slo.slo_ok() ? "met" : "VIOLATED") << "\n";
  return result.slo.slo_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  diners::util::Flags flags;
  flags
      .define("topology", "ring",
              "ring|path|star|complete|grid|torus|tree|wheel|barbell|gnp|"
              "figure2")
      .define("n", "8", "number of philosophers / arbiter endpoints")
      .define("gnp-p", "0.15", "edge probability for --topology=gnp")
      .define("threshold", "sound", "cycle threshold: paper | sound | <int>")
      .define("socket-dir", "/tmp", "directory for arbiter-<p>.sock files")
      .define("seed", "1", "protocol / jitter master seed")
      .define("steps-per-poll", "512", "protocol steps per event-loop pass")
      .define("duration-ms", "2000", "serve/load duration")
      .define("drop", "0", "inter-arbiter link: per-message drop chance")
      .define("duplicate", "0",
              "inter-arbiter link: per-message duplication chance")
      .define("reorder", "0", "inter-arbiter link: per-message reorder chance")
      .define("delay", "0", "inter-arbiter link: per-message delay-by-k chance")
      .define("campaign", "false",
              "run the live chaos campaign instead of serving")
      .define("victim", "0", "campaign: arbiter to maliciously crash")
      .define("malice", "8", "campaign: garbage messages at crash time")
      .define("crash-at-ms", "500", "campaign: crash time offset")
      .define("restart-at-ms", "1500", "campaign: restart time offset")
      .define("clients", "8", "campaign: concurrent load clients")
      .define("rps", "200", "campaign: aggregate open-loop request rate")
      .define("deadline-ms", "250", "campaign: per-request acquire deadline")
      .define("hold-us", "200", "campaign: critical-section dwell per grant")
      .define("budget", "200000", "campaign: watchdog convergence budget")
      .define("p99-budget-ms", "250",
              "campaign: far-stratum p99 grant-latency budget")
      .define("far-distance", "3",
              "campaign: distance at which clients count as far")
      .define("out", "", "campaign: SLO JSON path (empty = stdout)");
  if (!flags.parse(argc, argv)) return diners::util::kUsageError;
  return diners::util::run_tool(run, flags);
}
