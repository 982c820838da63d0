// diners_bench — the perf-trajectory harness.
//
// Runs a curated quick suite over the repo's existing measurement binaries
// and aggregates the results into one stable-schema BENCH_*.json record
// (analysis/perf_trajectory.hpp documents the schema):
//
//   engine    BM_EngineStep[FullScan] n=64/192, BM_FlatEngineStep
//             n=192/1k/10k/100k/1M (bench_figure1_actions,
//             --benchmark_format json)           -> ns/step, peak RSS
//   campaign  diners_sim --engine=flat ring n=10^6 corrupted start
//             to invariant I (the E1 protocol at full scale)
//                                               -> wall seconds
//   explorer  diners_mc --exhaustive --json on ring-4 and K4 at
//             jobs=1/4, plus --reduce=sym,por rows (ring-4 box,
//             ring-6 instance seeds)             -> states/sec
//   batch     BM_BatchTrials n=64 jobs=1/4 (bench_batch_runner)
//                                               -> trials/sec, speedup
//   chaos     diners_chaos ring-8 soak          -> mean recovery steps
//   service   diners_service --campaign ring-64 (live crash + restart
//             under socket load)                -> far-stratum impact p99
//                                                  ms + recovery steps
//
// Comparator mode (`--compare=BASELINE`) loads two records, prints the
// per-metric deltas, and exits 3 when any metric is worse than the
// baseline by more than --regress-threshold (direction-aware: ns/step
// regressions are increases, states/sec regressions are decreases).
// `--soft` downgrades the whole gate to a warning; `--soft-match=a,b`
// downgrades only the metrics whose names contain one of the given
// substrings (noisy ns/step timings) while everything else gates hard.
//
// Exit codes: 0 ok / within threshold, 1 a driven binary failed or its
// output did not parse, 2 usage error, 3 regression past threshold.
//
// Examples:
//   diners_bench --quick --git-rev=$(git rev-parse --short HEAD)
//   diners_bench --compare=BENCH_9.json --out=BENCH_10.json
//   diners_bench --compare=BENCH_10.json --out=BENCH_ci.json
//                --soft-match=engine.step.,engine.e1.,service.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "analysis/perf_trajectory.hpp"
#include "util/flags.hpp"
#include "util/json_reader.hpp"
#include "util/table.hpp"

namespace {

namespace fs = std::filesystem;
using diners::analysis::BenchMetric;
using diners::analysis::BenchReport;
using diners::util::JsonValue;

constexpr int kDriverError = 1;
constexpr int kUsageError = 2;
constexpr int kRegression = 3;

struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

struct DriverError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// POSIX-shell single-quotes `s` so paths survive word splitting.
std::string shq(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

struct CommandResult {
  int exit_code = -1;
  std::string out;
};

/// Runs `cmd` under the shell, capturing stdout (stderr passes through).
CommandResult run_command(const std::string& cmd) {
  std::cerr << "+ " << cmd << "\n";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw DriverError("popen failed for: " + cmd);
  CommandResult result;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.out.append(buf, got);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

/// Runs `cmd`, requiring exit code 0.
CommandResult run_checked(const std::string& cmd) {
  CommandResult result = run_command(cmd);
  if (result.exit_code != 0) {
    throw DriverError("command exited " + std::to_string(result.exit_code) +
                      ": " + cmd);
  }
  return result;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw DriverError("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Finds the entry in Google Benchmark's `benchmarks` array whose name is
/// exactly `name`.
const JsonValue& gbench_entry(const JsonValue& doc, const std::string& name) {
  for (const auto& b : doc.at("benchmarks").as_array()) {
    if (const auto* n = b.find("name"); n != nullptr && n->is_string() &&
        n->as_string() == name) {
      return b;
    }
  }
  throw DriverError("benchmark output has no entry named '" + name + "'");
}

// --- metric collectors -----------------------------------------------------

/// Engine ns/step: the object engine at n=64/192 (incremental vs the
/// pinned full-scan reference) and the flat SoA substrate from n=192 up to
/// n=10^6. Large-n flat rows carry the measured peak RSS as a param so
/// memory growth is visible in the trajectory even though only time gates.
void collect_engine(BenchReport& report, const fs::path& bench_dir,
                    const fs::path& workdir) {
  const fs::path out = workdir / "engine.json";
  run_checked(shq((bench_dir / "bench_figure1_actions").string()) +
              " --benchmark_filter='^(BM_EngineStep(FullScan)?/n:(64|192)"
              "|BM_FlatEngineStep/n:(192|1024|10240|102400|1048576))$'"
              " --benchmark_out_format=json --benchmark_out=" +
              shq(out.string()) + " >&2");
  const JsonValue doc = diners::util::parse_json(read_file(out));
  const struct {
    const char* bench;
    const char* metric;
    const char* n;
    const char* scan;
    bool rss;  // attach the max_rss_bytes counter as a param
  } rows[] = {
      {"BM_EngineStep/n:64", "engine.step.n64.incremental", "64",
       "incremental", false},
      {"BM_EngineStep/n:192", "engine.step.n192.incremental", "192",
       "incremental", false},
      {"BM_EngineStepFullScan/n:64", "engine.step.n64.fullscan", "64",
       "fullscan", false},
      {"BM_EngineStepFullScan/n:192", "engine.step.n192.fullscan", "192",
       "fullscan", false},
      {"BM_FlatEngineStep/n:192", "engine.step.n192.flat", "192", "flat",
       false},
      {"BM_FlatEngineStep/n:1024", "engine.step.n1k.flat", "1024", "flat",
       false},
      {"BM_FlatEngineStep/n:10240", "engine.step.n10k.flat", "10240", "flat",
       false},
      {"BM_FlatEngineStep/n:102400", "engine.step.n100k.flat", "102400",
       "flat", true},
      {"BM_FlatEngineStep/n:1048576", "engine.step.n1M.flat", "1048576",
       "flat", true},
  };
  for (const auto& row : rows) {
    const JsonValue& entry = gbench_entry(doc, row.bench);
    if (entry.at("time_unit").as_string() != "ns") {
      throw DriverError(std::string(row.bench) + ": unexpected time unit");
    }
    BenchMetric m;
    m.name = row.metric;
    m.value = entry.at("real_time").as_number();
    m.unit = "ns/step";
    m.higher_is_better = false;
    m.params = {{"n", row.n}, {"scan", row.scan}, {"topology", "ring"}};
    if (row.rss) {
      const JsonValue* rss = entry.find("max_rss_bytes");
      if (rss == nullptr || !rss->is_number()) {
        throw DriverError(std::string(row.bench) + ": no max_rss_bytes");
      }
      m.params.emplace("max_rss_bytes",
                       std::to_string(static_cast<std::uint64_t>(
                           rss->as_number())));
    }
    report.metrics.push_back(std::move(m));
  }
}

/// Explorer throughput: exhaustive sound-threshold model check of ring-4
/// and K4 at jobs=1/4, states/sec from the diners_mc --json summary. The
/// explorer.reduced.* rows (append-only) run the same check under
/// --reduce=sym,por: ring-4 over the full depth box, ring-6 from instance
/// seeds (the box does not fit) with locality victims off so the metric
/// stays a pure healthy-graph throughput sample.
void collect_explorer(BenchReport& report, const fs::path& tools_dir,
                      const fs::path& workdir) {
  const struct {
    const char* metric;
    const char* topology;
    const char* n;
    const char* jobs;
    const char* extra;  // extra diners_mc flags, "" for the baseline rows
  } rows[] = {
      {"explorer.ring4.jobs1", "ring", "4", "1", ""},
      {"explorer.ring4.jobs4", "ring", "4", "4", ""},
      {"explorer.k4.jobs1", "complete", "4", "1", ""},
      {"explorer.k4.jobs4", "complete", "4", "4", ""},
      {"explorer.reduced.ring4.jobs1", "ring", "4", "1", " --reduce=sym,por"},
      {"explorer.reduced.ring6.jobs4", "ring", "6", "4",
       " --reduce=sym,por --seeds=instance --victims=none"},
  };
  for (const auto& row : rows) {
    const fs::path out =
        workdir / (std::string("mc_") + row.metric + ".json");
    run_checked(shq((tools_dir / "diners_mc").string()) +
                " --topology=" + row.topology + " --n=" + row.n +
                " --exhaustive --threshold=sound --jobs=" + row.jobs +
                row.extra + " --json=" + shq(out.string()) + " >&2");
    const JsonValue doc = diners::util::parse_json(read_file(out));
    if (doc.at("result").as_string() != "verified") {
      throw DriverError(std::string(row.metric) +
                        ": model check did not verify");
    }
    BenchMetric m;
    m.name = row.metric;
    m.value = doc.at("states_per_second").as_number();
    m.unit = "states/s";
    m.higher_is_better = true;
    m.params = {{"topology", row.topology},
                {"n", row.n},
                {"jobs", row.jobs},
                {"states", std::to_string(static_cast<std::uint64_t>(
                               doc.at("explored_states_total").as_number()))}};
    if (row.extra[0] != '\0') {
      m.params.emplace("reduce", doc.at("reduction").at("mode").as_string());
    }
    report.metrics.push_back(std::move(m));
  }
}

/// Batch-runner fan-out: trials/sec at jobs=1/4 plus the jobs=4 speedup
/// over the serial baseline (bounded by the machine's core count; ~1.0 on
/// a 1-core runner is the honest number).
void collect_batch(BenchReport& report, const fs::path& bench_dir,
                   const fs::path& workdir) {
  const fs::path out = workdir / "batch.json";
  run_checked(shq((bench_dir / "bench_batch_runner").string()) +
              " --benchmark_filter='^BM_BatchTrials/n:64/jobs:(1|4)'"
              " --benchmark_out_format=json --benchmark_out=" +
              shq(out.string()) + " >&2");
  const JsonValue doc = diners::util::parse_json(read_file(out));
  const auto find_row = [&](const std::string& jobs) -> const JsonValue& {
    // Explicit Iterations() settings show up as a /iterations: suffix in
    // some benchmark versions; match on the stable prefix.
    const std::string prefix = "BM_BatchTrials/n:64/jobs:" + jobs;
    for (const auto& b : doc.at("benchmarks").as_array()) {
      const auto* n = b.find("name");
      if (n != nullptr && n->is_string() &&
          (n->as_string() == prefix ||
           n->as_string().rfind(prefix + "/", 0) == 0)) {
        return b;
      }
    }
    throw DriverError("bench_batch_runner output lacks " + prefix);
  };
  for (const char* jobs : {"1", "4"}) {
    const JsonValue& entry = find_row(jobs);
    BenchMetric m;
    m.name = std::string("batch.n64.jobs") + jobs + ".trials_per_sec";
    m.value = entry.at("trials_per_sec").as_number();
    m.unit = "trials/s";
    m.higher_is_better = true;
    m.params = {{"n", "64"}, {"jobs", jobs}, {"topology", "ring"}};
    report.metrics.push_back(std::move(m));
  }
  BenchMetric speedup;
  speedup.name = "batch.n64.jobs4.speedup_vs_serial";
  speedup.value = find_row("4").at("speedup_vs_serial").as_number();
  speedup.unit = "x";
  speedup.higher_is_better = true;
  speedup.params = {{"n", "64"}, {"jobs", "4"}};
  report.metrics.push_back(std::move(speedup));
}

/// Chaos recovery: mean watchdog steps-to-reconvergence per clean round of
/// the deterministic ring-8 soak (fixed seed, bit-identical summary).
void collect_chaos(BenchReport& report, const fs::path& tools_dir) {
  const CommandResult run = run_checked(
      shq((tools_dir / "diners_chaos").string()) +
      " --rounds=60 --topology=ring --n=8 --trials=2 --seed=1 --incident=");
  const JsonValue doc = diners::util::parse_json(run.out);
  if (doc.at("incidents").as_number() != 0) {
    throw DriverError("chaos soak reported incidents; not a perf sample");
  }
  BenchMetric m;
  m.name = "chaos.ring8.recovery_steps_mean";
  m.value = doc.at("recovery_steps").at("mean").as_number();
  m.unit = "steps";
  m.higher_is_better = false;
  m.params = {{"topology", "ring"}, {"n", "8"}, {"rounds", "60"},
              {"trials", "2"}, {"seed", "1"}};
  report.metrics.push_back(std::move(m));
}

/// Service SLO sample: one live chaos campaign on ring-64 (crash + restart
/// of arbiter 0 under open-loop load through real sockets). Records the far
/// stratum's impact-window p99 grant latency — the number the SLO gates on —
/// and the watchdog's steps-to-reconvergence. Wall-clock, so noisier than
/// the simulated metrics; the campaign must still MEET the SLO to count as
/// a perf sample at all (run_checked enforces exit 0).
void collect_service(BenchReport& report, const fs::path& tools_dir,
                     const fs::path& workdir) {
  // sockaddr_un caps paths at ~107 bytes; keep the socket dir shallow.
  const fs::path socket_dir = workdir / "svc";
  fs::create_directories(socket_dir);
  const fs::path out = workdir / "service_slo.json";
  run_checked(shq((tools_dir / "diners_service").string()) +
              " --campaign --topology=ring --n=64 --victim=0"
              " --crash-at-ms=300 --restart-at-ms=900 --duration-ms=1500"
              " --clients=16 --rps=200 --deadline-ms=400 --hold-us=200"
              " --p99-budget-ms=400 --seed=1 --socket-dir=" +
              shq(socket_dir.string()) + " --out=" + shq(out.string()) +
              " >&2");
  const JsonValue doc = diners::util::parse_json(read_file(out));
  const JsonValue* far_impact = nullptr;
  for (const auto& slice : doc.at("slices").as_array()) {
    if (slice.at("phase").as_string() == "impact" &&
        slice.at("stratum").as_string() == "far") {
      far_impact = &slice;
    }
  }
  if (far_impact == nullptr || far_impact->at("granted").as_number() == 0) {
    throw DriverError("campaign SLO report has no far-stratum impact grants");
  }
  BenchMetric p99;
  p99.name = "service.p99_ttE.n64";
  p99.value = far_impact->at("p99_ms").as_number();
  p99.unit = "ms";
  p99.higher_is_better = false;
  p99.params = {{"topology", "ring"}, {"n", "64"}, {"phase", "impact"},
                {"stratum", "far"}, {"rps", "200"}, {"seed", "1"}};
  report.metrics.push_back(std::move(p99));

  BenchMetric recovery;
  recovery.name = "service.recovery.steps";
  recovery.value = doc.at("verdict").at("recovery_steps").as_number();
  recovery.unit = "steps";
  recovery.higher_is_better = false;
  recovery.params = {{"topology", "ring"}, {"n", "64"}, {"victim", "0"},
                     {"seed", "1"}};
  report.metrics.push_back(std::move(recovery));
}

/// E1 at full ROADMAP scale: one corrupted ring-10^6 trial driven to
/// invariant I through the flat engine (the E16 protocol, fixed seed).
/// Records wall seconds for the whole trial — construction, stepping, and
/// the periodic invariant checks — because that is the number a user of
/// `diners_sim` at n=10^6 actually waits for. steps-to-I and peak RSS ride
/// along as params; the trial must CONVERGE, at exactly the pinned step
/// count, to count as a perf sample.
void collect_campaign(BenchReport& report, const fs::path& tools_dir,
                      const fs::path& workdir) {
  // Seed 1 reaches I at interval 45 of 65,536 steps (BENCH_10.json). Any
  // other count means the stepping or the invariant oracle changed its
  // answer, and the timing would not be a sample of the same run.
  constexpr std::uint64_t kStepsToI = 2'949'120;
  const fs::path out = workdir / "e1_n1m.json";
  run_checked(shq((tools_dir / "diners_sim").string()) +
              " --engine=flat --topology=ring --n=1048576"
              " --threshold=524288 --corrupt --trials=1 --jobs=1"
              " --steps=8000000 --check-every=65536 --seed=1 --json=" +
              shq(out.string()) + " >&2");
  const JsonValue doc = diners::util::parse_json(read_file(out));
  if (doc.at("schema").as_string() != "diners-sim-batch/v1") {
    throw DriverError("e1 campaign: unexpected diners_sim JSON schema");
  }
  if (doc.at("converged").as_number() != doc.at("trials").as_number()) {
    throw DriverError("e1 campaign did not converge; not a perf sample");
  }
  if (doc.at("steps_to_i").is_null()) {
    throw DriverError("e1 campaign: steps-to-I not measured; not a perf sample");
  }
  const auto steps_to_i =
      static_cast<std::uint64_t>(doc.at("steps_to_i").at("mean").as_number());
  if (steps_to_i != kStepsToI) {
    throw DriverError("e1 campaign reached I after " +
                      std::to_string(steps_to_i) + " steps, not " +
                      std::to_string(kStepsToI) + "; not a perf sample");
  }
  BenchMetric m;
  m.name = "engine.e1.n1M.seconds";
  m.value = doc.at("wall_seconds").as_number();
  m.unit = "s";
  m.higher_is_better = false;
  const auto u64_param = [&doc](const char* key) {
    return std::to_string(
        static_cast<std::uint64_t>(doc.at(key).as_number()));
  };
  m.params = {{"topology", "ring"},
              {"n", "1048576"},
              {"threshold", "524288"},
              {"check_every", "65536"},
              {"seed", "1"},
              {"steps_to_i", std::to_string(steps_to_i)},
              {"max_rss_bytes", u64_param("max_rss_bytes")}};
  report.metrics.push_back(std::move(m));
}

// --- modes -----------------------------------------------------------------

void print_metrics(const BenchReport& report) {
  diners::util::Table t({"metric", "value", "unit"});
  for (const auto& m : report.metrics) {
    t.add_row({m.name, m.value, m.unit});
  }
  t.print(std::cout);
}

/// The directory holding this binary (via /proc/self/exe, falling back to
/// argv[0]); bench binaries default to the sibling ../bench directory.
fs::path exe_dir(const char* argv0) {
  std::error_code ec;
  fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) self = fs::absolute(argv0);
  return self.parent_path();
}

int run_suite(const diners::util::Flags& flags, const char* argv0) {
  const fs::path tools_dir = flags.str("tools-dir").empty()
                                 ? exe_dir(argv0)
                                 : fs::path(flags.str("tools-dir"));
  const fs::path bench_dir = flags.str("bench-dir").empty()
                                 ? tools_dir.parent_path() / "bench"
                                 : fs::path(flags.str("bench-dir"));
  const auto require_dir = [](const char* what, const fs::path& path) {
    if (!fs::is_directory(path)) {
      throw UsageError(std::string(what) + " " + path.string() +
                       " does not exist (pass --tools-dir/--bench-dir)");
    }
  };
  require_dir("tools dir", tools_dir);
  require_dir("bench dir", bench_dir);

  const fs::path workdir = flags.str("workdir").empty()
                               ? fs::temp_directory_path() / "diners_bench"
                               : fs::path(flags.str("workdir"));
  fs::create_directories(workdir);

  BenchReport report;
  report.git_rev = flags.str("git-rev");
  report.label = flags.str("label");

  collect_engine(report, bench_dir, workdir);
  collect_campaign(report, tools_dir, workdir);
  collect_explorer(report, tools_dir, workdir);
  collect_batch(report, bench_dir, workdir);
  collect_chaos(report, tools_dir);
  collect_service(report, tools_dir, workdir);

  const std::string out_path = flags.str("out");
  std::ofstream out(out_path);
  if (!out) throw UsageError("cannot write --out file " + out_path);
  write_report(out, report);

  print_metrics(report);
  std::cout << report.metrics.size() << " metrics recorded to " << out_path;
  if (!report.git_rev.empty()) std::cout << " (rev " << report.git_rev << ")";
  std::cout << "\n";
  if (!flags.flag("keep-temp")) {
    std::error_code ec;
    fs::remove_all(workdir, ec);
  }
  return 0;
}

BenchReport load_report(const std::string& path) {
  try {
    return diners::analysis::parse_report(read_file(path));
  } catch (const std::invalid_argument& err) {
    throw UsageError(path + ": " + err.what());
  } catch (const DriverError& err) {
    throw UsageError(err.what());
  }
}

int run_compare(const diners::util::Flags& flags) {
  const double threshold = flags.f64("regress-threshold");
  if (threshold < 0) {
    throw UsageError("--regress-threshold must be non-negative");
  }
  const BenchReport baseline = load_report(flags.str("compare"));
  const BenchReport current = load_report(flags.str("out"));
  if (baseline.suite_version != current.suite_version) {
    std::cerr << "warning: suite_version differs (baseline "
              << baseline.suite_version << ", current "
              << current.suite_version << "); deltas may not be comparable\n";
  }

  const auto result = diners::analysis::compare_reports(baseline, current);
  const std::string soft_match = flags.str("soft-match");
  // Hard verdict ignores soft-matched metrics; they report but never gate.
  double hard_worst = 0.0;
  diners::util::Table t({"metric", "baseline", "current", "delta", "verdict"});
  for (const auto& d : result.deltas) {
    const bool soft = diners::analysis::metric_matches(d.name, soft_match);
    if (!soft) hard_worst = std::max(hard_worst, d.regression);
    char delta[32];
    std::snprintf(delta, sizeof(delta), "%+.1f%%", d.regression * 100.0);
    const char* verdict = d.regression <= threshold ? "ok"
                          : soft                    ? "SOFT"
                                                    : "REGRESSED";
    t.add_row({d.name, d.baseline, d.current, std::string(delta),
               std::string(verdict)});
  }
  t.print(std::cout);
  for (const auto& name : result.only_baseline) {
    std::cout << "dropped metric (baseline only): " << name << "\n";
  }
  for (const auto& name : result.only_current) {
    std::cout << "new metric (current only): " << name << "\n";
  }
  std::cout << "worst regression: ";
  std::printf("%+.1f%%", result.worst_regression * 100.0);
  std::cout << " (threshold " << threshold * 100.0 << "%; delta is "
            << "fraction worse in each metric's bad direction)\n";

  if (hard_worst > threshold) {
    if (flags.flag("soft")) {
      std::cout << "SOFT GATE: regression past threshold (reporting only)\n";
      return 0;
    }
    std::cout << "REGRESSION past threshold\n";
    return kRegression;
  }
  if (!result.within(threshold)) {
    std::cout << "soft-matched regression past threshold (reporting only)\n";
  } else {
    std::cout << "within threshold\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  diners::util::Flags flags;
  flags
      .define("quick", "true",
              "run the quick suite (engine, campaign, explorer, batch, "
              "chaos, service); currently the only suite")
      .define("out", "BENCH_10.json",
              "record path: written in run mode, the 'current' side in "
              "--compare mode")
      .define("compare", "",
              "baseline BENCH_*.json: compare --out against it instead of "
              "running the suite")
      .define("regress-threshold", "0.15",
              "fail --compare when any metric is worse than the baseline "
              "by more than this fraction")
      .define("soft", "false",
              "report regressions without failing (CI soft gate)")
      .define("soft-match", "",
              "comma list of name substrings whose regressions only warn "
              "(e.g. engine.step. for noisy ns/step timings)")
      .define("git-rev", "", "git revision recorded in the report")
      .define("label", "", "free-form label recorded in the report")
      .define("tools-dir", "",
              "directory with diners_mc/diners_chaos (default: this "
              "binary's directory)")
      .define("bench-dir", "",
              "directory with the bench_* binaries (default: ../bench "
              "relative to --tools-dir)")
      .define("workdir", "",
              "scratch directory for driven-binary JSON (default: a "
              "temp dir)")
      .define("keep-temp", "false", "keep the scratch directory");
  if (!flags.parse(argc, argv)) return kUsageError;

  try {
    if (!flags.str("compare").empty()) return run_compare(flags);
    if (!flags.flag("quick")) {
      throw UsageError("nothing to do: pick --quick or --compare=BASELINE");
    }
    return run_suite(flags, argv[0]);
  } catch (const UsageError& err) {
    std::cerr << "error: " << err.what() << "\n"
              << "run with --help for usage\n";
    return kUsageError;
  } catch (const diners::util::FlagError& err) {
    std::cerr << "error: " << err.what() << "\n"
              << "run with --help for usage\n";
    return kUsageError;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << "\n";
    return kDriverError;
  }
}
