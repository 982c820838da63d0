// The benchmark's four workloads and what each run of one reports.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured phase length (at least one task runs)
  unsigned jobs = 1;      ///< threads or connections the workload may use
  std::string work_dir;   ///< scratch space inside the checkout
};

/// One pass over a workload. A pass runs set-ups, then tasks until
/// `seconds` of task time have passed; a task is the unit of work a user
/// waits for (a convergence, a batch of trials, a model check, a request).
struct Outcome {
  bool correct = true;
  std::string error;  ///< the first failed output check
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::vector<double> setup_s;
  std::vector<double> task_ms;
  /// Process CPU time spent in tasks, all threads; with task_ms.size() it
  /// gives CPU time per task, which time stolen by other tenants of the
  /// machine does not inflate.
  double task_cpu_s = 0.0;
  /// Peak resident set size once the first task has finished, so that it
  /// does not depend on how many tasks fit in the run.
  double peak_rss_mb = 0.0;
  /// Per task, a summary that must repeat exactly when the task is re-run
  /// on the same seed (empty for wall-clock-driven workloads).
  std::vector<std::string> fingerprints;

  /// Workload-native figures (steps_to_i, trials_per_s, ...), for the
  /// detail record only.
  std::map<std::string, double> native;
  /// Per-layer metrics, filled by traced passes.
  std::map<std::string, double> layers;
  /// Root span names whose self time is not attributed to any layer.
  std::vector<std::string> roots;

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

/// `tracer` is null for the untraced pass. A traced pass receives the
/// untraced pass's outcome as `reference` and re-runs exactly its tasks.
using WorkloadFn = Outcome (*)(const Options& options, Tracer* tracer,
                               const Outcome* reference);

Outcome run_converge(const Options&, Tracer*, const Outcome*);
Outcome run_locality(const Options&, Tracer*, const Outcome*);
Outcome run_verify(const Options&, Tracer*, const Outcome*);
Outcome run_serve(const Options&, Tracer*, const Outcome*);

// --- shared helpers --------------------------------------------------------

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile of `v` (copied and sorted); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// The highest of p90 / p99 / p99.9 with at least ten samples beyond it,
/// or the maximum when fewer than 100 samples exist. Returns the value and
/// its label ("p99", "max").
[[nodiscard]] std::pair<double, std::string> tail(
    const std::vector<double>& v);

/// CPU time of the whole process so far (user + system, all threads).
[[nodiscard]] double process_cpu_s();

/// Resident set size now, and its peak so far, in MiB.
[[nodiscard]] double rss_mb();
[[nodiscard]] double peak_rss_mb();

/// A layer's total self time, median span duration, and span count in a
/// finished trace (0 when the layer has no spans).
[[nodiscard]] double layer_self_s(const std::map<std::string, LayerTotals>& t,
                                  const std::string& name);
[[nodiscard]] double layer_median_s(
    const std::map<std::string, LayerTotals>& t, const std::string& name);
[[nodiscard]] std::size_t layer_count(
    const std::map<std::string, LayerTotals>& t, const std::string& name);

}  // namespace perfbench
