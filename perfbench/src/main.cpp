// perfbench — the benchmark driver. Runs one workload for one seed and
// prints one JSON record on stdout: the end-to-end metrics of an untraced
// pass and, with --trace=1, the per-layer metrics of a second, traced pass
// over the same tasks.
//
//   perfbench --workload=NAME --seed=N --seconds=S [--trace=0|1]
//             [--work-dir=DIR] [--spans=FILE]
//
// Workloads use as many threads or connections as the machine has CPUs.
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/json_writer.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Outcome;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

const std::map<std::string, perfbench::WorkloadFn> kWorkloads = {
    {"converge-ring1M", perfbench::run_converge},
    {"locality-sweep", perfbench::run_locality},
    {"verify-k4", perfbench::run_verify},
    {"serve-far", perfbench::run_serve},
};

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args = {
      {"seed", "1"}, {"seconds", "10"}, {"trace", "0"}, {"work-dir", "."},
      {"spans", ""},
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw UsageError("unexpected argument " + a);
    a = a.substr(2);
    std::string value;
    if (const auto eq = a.find('='); eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError("--" + a + " needs a value");
    }
    if (a != "workload" && !args.contains(a)) {
      throw UsageError("unknown flag --" + a);
    }
    args[a] = value;
  }
  return args;
}

void write_timing(diners::util::JsonWriter& w, const char* name,
                  const std::vector<double>& v) {
  const auto [tail, at] = perfbench::tail(v);
  w.key(name).begin_object();
  w.field("median", perfbench::median(v));
  w.field("tail", tail);
  w.field("tail_at", at);
  w.field("count", static_cast<std::uint64_t>(v.size()));
  w.end_object();
}

int run(const std::map<std::string, std::string>& args) {
  const auto it = args.find("workload");
  if (it == args.end() || !kWorkloads.contains(it->second)) {
    throw UsageError("--workload must be one of converge-ring1M, "
                     "locality-sweep, verify-k4, serve-far");
  }
  const std::string workload = it->second;
  perfbench::Options options;
  try {
    options.seed = std::stoull(args.at("seed"));
    options.seconds = std::stod(args.at("seconds"));
  } catch (const std::exception&) {
    throw UsageError("--seed and --seconds take numbers");
  }
  if (!(options.seconds > 0)) throw UsageError("--seconds must be positive");
  options.jobs = std::max(1u, std::thread::hardware_concurrency());
  options.work_dir = args.at("work-dir");
  const bool trace = args.at("trace") == "1";
  const auto fn = kWorkloads.at(workload);

  Outcome base = fn(options, nullptr, nullptr);
  bool correct = base.correct;
  std::string error = base.error;

  perfbench::Tracer tracer;
  Outcome traced;
  if (trace && correct) {
    traced = fn(options, &tracer, &base);
    if (!traced.correct) {
      correct = false;
      error = "traced pass: " + traced.error;
    } else if (traced.fingerprints != base.fingerprints) {
      correct = false;
      error = "traced pass results differ from the untraced pass";
    }
    const double base_ms = perfbench::median(base.task_ms);
    const double traced_ms = perfbench::median(traced.task_ms);
    traced.layers["trace.overhead_ms"] = traced_ms - base_ms;
    traced.layers["trace.overhead_share"] = (traced_ms - base_ms) / base_ms;
    const auto totals = perfbench::layer_totals(tracer.spans());
    double self = 0.0;
    double total = 0.0;
    for (const auto& root : traced.roots) {
      if (const auto r = totals.find(root); r != totals.end()) {
        self += r->second.self_s;
        total += r->second.total_s;
      }
    }
    traced.layers["trace.unattributed_share"] = total > 0 ? self / total : 0;
    traced.layers["trace.spans"] = static_cast<double>(tracer.spans().size());
    if (const std::string path = args.at("spans"); !path.empty()) {
      std::ofstream os(path);
      perfbench::write_spans(os, tracer.spans());
    }
  }

  diners::util::JsonWriter w(std::cout, 0);
  w.begin_object();
  w.field("workload", workload);
  w.field("seed", options.seed);
  w.field("seconds", options.seconds);
  w.field("jobs", options.jobs);
  w.field("trace", trace);
  w.field("correct", correct);
  w.field("error", error);
  w.field("attempted", base.attempted);
  w.field("failed", base.failed);
  if (correct) {
    w.key("end_to_end").begin_object();
    w.field("setup_s", perfbench::median(base.setup_s));
    w.field("task_ms", perfbench::median(base.task_ms));
    w.field("task_cpu_ms", base.task_cpu_s * 1e3 /
                               static_cast<double>(base.task_ms.size()));
    w.field("peak_rss_mb", base.peak_rss_mb);
    w.end_object();
    w.key("timings").begin_object();
    write_timing(w, "setup_s", base.setup_s);
    write_timing(w, "task_ms", base.task_ms);
    w.end_object();
    w.key("native").begin_object();
    for (const auto& [k, v] : base.native) w.field(k, v);
    w.end_object();
    if (trace) {
      w.key("layers").begin_object();
      for (const auto& [k, v] : traced.layers) w.field(k, v);
      w.end_object();
    }
  }
  w.end_object();
  w.finish();
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const UsageError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
