#include <sys/resource.h>
#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "workloads.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::pair<double, std::string> tail(const std::vector<double>& v) {
  const auto n = static_cast<double>(v.size());
  for (const auto& [q, label] : {std::pair<double, const char*>{0.999, "p99.9"},
                                 {0.99, "p99"},
                                 {0.9, "p90"}}) {
    if (n * (1.0 - q) >= 10.0) return {quantile(v, q), label};
  }
  return {v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()), "max"};
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double layer_self_s(const std::map<std::string, LayerTotals>& t,
                    const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.self_s;
}

double layer_median_s(const std::map<std::string, LayerTotals>& t,
                      const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : median(it->second.durations_s);
}

std::size_t layer_count(const std::map<std::string, LayerTotals>& t,
                        const std::string& name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : it->second.durations_s.size();
}

}  // namespace perfbench
