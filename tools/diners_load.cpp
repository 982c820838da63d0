// diners_load — open-loop load generator for a running diners service.
//
// Drives --clients client threads against the arbiter endpoints under
// --socket-dir at an aggregate --rps arrival rate and reports time-to-eat
// (grant latency) quantiles as JSON (schema diners-load/v1): overall
// p50/p99/p999 over raw latencies plus a per-client analysis::Histogram
// summary. Latency is measured from each request's *scheduled* arrival —
// the offered load never adapts to a slow or crashed service, so the
// numbers are free of coordinated omission.
//
// Exit codes: 0 if at least one request was granted (failures under chaos
// are data, not errors), 1 if the service granted nothing, 2 usage error.
//
// Example, against `diners_service --topology=ring --n=8 ... &`:
//   diners_load --socket-dir=/tmp --nodes=8 --clients=8 --rps=400
//       --duration-ms=2000 --out=load.json
#include <fstream>
#include <iostream>

#include "analysis/stats.hpp"
#include "service/load.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"

namespace {

using diners::util::UsageError;

void write_load_json(std::ostream& os,
                     const diners::service::LoadOptions& options,
                     const diners::service::LoadReport& report) {
  using diners::service::RequestOutcome;
  diners::util::JsonWriter w(os);
  w.begin_object();
  w.field("schema", "diners-load/v1");
  w.key("options").begin_object();
  w.field("nodes", static_cast<std::uint64_t>(options.num_nodes));
  w.field("clients", static_cast<std::uint64_t>(options.clients));
  w.field("rps", options.rps);
  w.field("deadline_ms", static_cast<std::uint64_t>(options.deadline_ms));
  w.field("hold_us", static_cast<std::uint64_t>(options.hold_us));
  w.field("seed", options.seed);
  w.end_object();

  std::uint64_t counts[4] = {0, 0, 0, 0};
  std::vector<double> latencies;
  // Per-client time-to-eat histograms: [0, deadline] covers every possible
  // grant latency, so nothing can overflow.
  std::vector<diners::analysis::Histogram> per_client(
      options.clients,
      diners::analysis::Histogram(0.0, options.deadline_ms, 128));
  for (const auto& rec : report.records) {
    ++counts[static_cast<std::size_t>(rec.outcome)];
    if (rec.outcome == RequestOutcome::kGranted ||
        rec.outcome == RequestOutcome::kRevoked) {
      latencies.push_back(rec.grant_latency_ms);
      per_client[rec.client].add(rec.grant_latency_ms);
    }
  }
  w.key("totals").begin_object();
  w.field("requests", static_cast<std::uint64_t>(report.records.size()));
  w.field("granted", counts[0]);
  w.field("timeouts", counts[1]);
  w.field("revoked", counts[2]);
  w.field("errors", counts[3]);
  w.field("reconnects", report.reconnects);
  w.field("wall_ms", report.wall_ms);
  w.end_object();
  w.key("time_to_eat_ms").begin_object();
  w.field("p50", diners::analysis::quantile(latencies, 0.50));
  w.field("p99", diners::analysis::quantile(latencies, 0.99));
  w.field("p999", diners::analysis::quantile(latencies, 0.999));
  w.end_object();
  w.key("per_client").begin_array();
  for (std::uint32_t i = 0; i < options.clients; ++i) {
    const auto& h = per_client[i];
    w.begin_object();
    w.field("client", static_cast<std::uint64_t>(i));
    w.field("node", static_cast<std::uint64_t>(i % options.num_nodes));
    w.field("granted", h.total());
    w.field("p50", h.quantile(0.50));
    w.field("p99", h.quantile(0.99));
    w.field("p999", h.quantile(0.999));
    w.end_object();
  }
  w.end_array();
  w.finish();
}

int run(const diners::util::Flags& flags) {
  diners::service::LoadOptions options;
  options.socket_dir = flags.str("socket-dir");
  if (options.socket_dir.empty()) {
    throw UsageError("--socket-dir must not be empty");
  }
  options.num_nodes = flags.u32("nodes", 1);
  options.clients = flags.u32("clients", 1);
  options.rps = flags.f64("rps");
  if (!(options.rps > 0.0)) throw UsageError("--rps must be positive");
  options.requests = flags.u64("requests");
  options.duration_ms = flags.u32("duration-ms", 1);
  options.deadline_ms = flags.u32("deadline-ms", 1);
  options.hold_us = flags.u32("hold-us");
  options.seed = flags.u64("seed");

  const std::string out_path = flags.str("out");
  diners::util::require_writable(out_path, "cannot write to --out path: ");

  const auto report = diners::service::run_load(options);
  if (out_path.empty()) {
    write_load_json(std::cout, options, report);
  } else {
    std::ofstream out(out_path);
    write_load_json(out, options, report);
  }
  std::uint64_t granted = 0;
  for (const auto& rec : report.records) {
    if (rec.outcome == diners::service::RequestOutcome::kGranted) ++granted;
  }
  std::cerr << "load: " << report.records.size() << " requests, " << granted
            << " granted, " << report.reconnects << " reconnects, "
            << report.wall_ms << " ms\n";
  return granted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  diners::util::Flags flags;
  flags
      .define("socket-dir", "/tmp", "directory holding arbiter-<p>.sock")
      .define("nodes", "8", "number of arbiter endpoints")
      .define("clients", "8", "client threads (client i -> node i % nodes)")
      .define("rps", "200", "aggregate open-loop request rate")
      .define("requests", "0", "total requests (0: derive from duration)")
      .define("duration-ms", "2000", "load duration when --requests=0")
      .define("deadline-ms", "250", "per-request acquire deadline")
      .define("hold-us", "200", "critical-section dwell per grant")
      .define("seed", "1", "backoff jitter master seed")
      .define("out", "", "JSON report path (empty = stdout)");
  if (!flags.parse(argc, argv)) return diners::util::kUsageError;
  return diners::util::run_tool(run, flags);
}
