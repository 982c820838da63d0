// verify-k4: the exhaustive check `diners_mc --topology=complete --n=4
// --exhaustive --threshold=sound --reduce=sym,por --jobs=J` runs — closure,
// convergence, progress, and failure locality under a demonic malicious
// victim — from every state of the depth box. The check has no random
// input; the seed is recorded but changes nothing.
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/diners_system.hpp"
#include "core/serialize.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "verify/canonical.hpp"
#include "verify/explorer.hpp"
#include "verify/properties.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using diners::core::DinersSystem;
using diners::graph::NodeId;
using diners::verify::Explorer;
using diners::verify::StateGraph;

constexpr NodeId kN = 4;
constexpr std::uint32_t kExpectedHealthy = 135'300;
constexpr std::uint64_t kExpectedTotal = 540'300;
constexpr std::size_t kSetups = 6;

struct Instance {
  std::unique_ptr<DinersSystem> prototype;
  std::unique_ptr<diners::verify::StateCodec> codec;  ///< borrows prototype
  std::vector<diners::verify::Key> seeds;
};

/// diners_mc's exhaustive set-up: the sound-threshold K4 with saturated
/// appetite, the depth box [0, D + 1], and every key of the box as a seed.
Instance setup(Tracer* tracer) {
  ScopedSpan s(tracer, "verify.codec_seeds");
  Instance in;
  diners::core::DinersConfig config;
  config.diameter_override = diners::core::parse_threshold("sound", kN);
  in.prototype = std::make_unique<DinersSystem>(
      diners::graph::make_complete(kN), config);
  for (NodeId p = 0; p < kN; ++p) in.prototype->set_needs(p, true);
  const std::int64_t d = *config.diameter_override;
  in.codec = std::make_unique<diners::verify::StateCodec>(
      in.prototype->topology(), 0, d + 1);
  const std::uint64_t total = in.codec->domain_size();
  in.seeds.reserve(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    in.seeds.push_back(in.codec->domain_key(i));
  }
  return in;
}

/// One representative per process orbit of the graph's symmetry group.
std::vector<std::uint8_t> orbit_reps(const StateGraph& g) {
  std::vector<std::uint8_t> rep(kN, 1);
  if (g.sym != nullptr) {
    for (const auto& orbit : g.sym->node_orbits()) {
      for (std::size_t i = 1; i < orbit.size(); ++i) rep[orbit[i]] = 0;
    }
  }
  return rep;
}

struct Verdict {
  std::string failure;  ///< empty = VERIFIED
  std::uint32_t healthy_states = 0;
  std::uint64_t healthy_arcs = 0;
  std::uint64_t demon_states = 0;
  double canonical_hit_ratio = 0.0;
};

Verdict check(const Instance& in, unsigned jobs, Tracer* tracer) {
  ScopedSpan root(tracer, "verify.task");
  Verdict v;
  const auto& codec = *in.codec;
  DinersSystem scratch = diners::core::clone(*in.prototype);
  Explorer::Options opts;
  opts.jobs = jobs;
  opts.reduce_sym = true;
  opts.reduce_por = true;
  opts.compact_visited = true;
  opts.expected_states = in.seeds.size();
  const StateGraph healthy = [&] {
    ScopedSpan s(tracer, "verify.explore");
    Explorer explorer(scratch, codec, opts);
    return explorer.explore(in.seeds);
  }();
  v.healthy_states = healthy.num_states();
  v.healthy_arcs = healthy.succ.size();
  const auto& red = healthy.reduction;
  v.canonical_hit_ratio =
      red.raw_candidates == 0 ? 0.0
                              : static_cast<double>(red.canonical_hits) /
                                    static_cast<double>(red.raw_candidates);
  if (!healthy.complete) {
    v.failure = "healthy exploration hit the state cap";
    return v;
  }
  const auto inv = [&] {
    ScopedSpan s(tracer, "verify.label");
    return diners::verify::label_invariant(healthy, codec, scratch);
  }();
  const auto fail_if = [&v](const std::optional<diners::verify::Violation>& x) {
    if (x && v.failure.empty()) v.failure = x->property + ": " + x->detail;
    return x.has_value();
  };
  {
    ScopedSpan s(tracer, "verify.closure");
    if (fail_if(diners::verify::check_closure(healthy, inv))) return v;
  }
  {
    ScopedSpan s(tracer, "verify.convergence");
    if (fail_if(diners::verify::check_convergence(healthy, inv))) return v;
  }
  const auto reps = orbit_reps(healthy);
  {
    ScopedSpan s(tracer, "verify.progress");
    for (NodeId p = 0; p < kN; ++p) {
      if (reps[p] != 0 &&
          fail_if(diners::verify::check_no_starvation(healthy, codec, p))) {
        return v;
      }
    }
  }
  for (NodeId victim = 0; victim < kN; ++victim) {
    if (reps[victim] == 0) continue;
    DinersSystem crashed_scratch = diners::core::clone(*in.prototype);
    crashed_scratch.crash(victim);
    Explorer::Options copts = opts;
    copts.expected_states = healthy.num_states();
    copts.demon_victim = victim;
    const StateGraph crashed = [&] {
      ScopedSpan s(tracer, "verify.demon_explore");
      Explorer demon(crashed_scratch, codec, copts);
      return demon.explore(healthy.keys);
    }();
    v.demon_states += crashed.num_states();
    if (!crashed.complete) {
      v.failure = "demonic exploration hit the state cap";
      return v;
    }
    ScopedSpan s(tracer, "verify.locality");
    const auto dead = crashed_scratch.dead_processes();
    const auto dist = diners::graph::distances_to_set(
        crashed_scratch.topology(), std::span<const NodeId>(dead));
    const auto far_bad = diners::verify::label_far_violation(
        crashed, codec, crashed_scratch, dist, 2);
    if (fail_if(diners::verify::check_far_safety(crashed, far_bad))) return v;
    const auto crep = orbit_reps(crashed);
    for (NodeId p = 0; p < kN; ++p) {
      if (!crashed_scratch.alive(p) || dist[p] <= 2 ||
          !crashed_scratch.needs(p) || crep[p] == 0) {
        continue;
      }
      if (fail_if(diners::verify::check_no_starvation(crashed, codec, p))) {
        return v;
      }
    }
  }
  return v;
}

}  // namespace

Outcome run_verify(const Options& options, Tracer* tracer,
                   const Outcome* reference) {
  Outcome out;
  out.roots = {"verify.task"};
  // Half the set-ups run before the checks (the last one is checked) and
  // half after, so that the median samples both ends of the run.
  std::optional<Instance> instance;
  const auto time_setups = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      const auto s0 = Clock::now();
      instance.emplace(setup(tracer));
      out.setup_s.push_back(seconds_between(s0, Clock::now()));
    }
  };
  time_setups(kSetups / 2);

  double task_time_s = 0.0;
  Verdict first;
  for (std::size_t k = 0;; ++k) {
    const bool more = reference != nullptr
                          ? k < reference->task_ms.size()
                          : (k == 0 || task_time_s < options.seconds);
    if (!more) break;
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const Verdict v = check(*instance, options.jobs, tracer);
    const double task_s = seconds_between(t0, Clock::now());
    out.task_cpu_s += process_cpu_s() - cpu0;
    task_time_s += task_s;
    out.task_ms.push_back(task_s * 1e3);
    const std::uint64_t total = v.healthy_states + v.demon_states;
    out.fingerprints.push_back(std::to_string(v.healthy_states) + "/" +
                               std::to_string(v.healthy_arcs) + "/" +
                               std::to_string(total));
    ++out.attempted;
    const bool ok = v.failure.empty() && v.healthy_states == kExpectedHealthy &&
                    total == kExpectedTotal;
    if (!ok) ++out.failed;
    out.check(v.failure.empty(), "not VERIFIED: " + v.failure);
    out.check(v.healthy_states == kExpectedHealthy && total == kExpectedTotal,
              "state counts " + std::to_string(v.healthy_states) + "/" +
                  std::to_string(total) + " != 135300/540300");
    if (k == 0) {
      first = v;
      out.peak_rss_mb = peak_rss_mb();
    }
  }
  time_setups(kSetups - kSetups / 2);
  out.native["verify_s"] = median(out.task_ms) / 1e3;

  if (tracer != nullptr) {
    const auto t = layer_totals(tracer->spans());
    const double tasks = static_cast<double>(out.task_ms.size());
    const auto per_task = [&](const char* name) {
      return layer_self_s(t, name) / tasks;
    };
    const double explore_s = per_task("verify.explore");
    const double property_s = per_task("verify.label") +
                              per_task("verify.closure") +
                              per_task("verify.convergence") +
                              per_task("verify.progress") +
                              per_task("verify.locality");
    auto& l = out.layers;
    l["verify.codec_seeds_s"] = layer_median_s(t, "verify.codec_seeds");
    l["verify.explore_s"] = explore_s;
    l["verify.states"] = first.healthy_states;
    l["verify.arcs"] = static_cast<double>(first.healthy_arcs);
    l["verify.states_per_s"] = first.healthy_states / explore_s;
    l["verify.canonical_hit_ratio"] = first.canonical_hit_ratio;
    l["verify.label_s"] = per_task("verify.label");
    l["verify.closure_s"] = per_task("verify.closure");
    l["verify.convergence_s"] = per_task("verify.convergence");
    l["verify.progress_s"] = per_task("verify.progress");
    l["verify.locality_s"] = per_task("verify.locality");
    l["verify.property_share"] =
        property_s * tasks / t.at("verify.task").total_s;
    l["verify.demon_explore_s"] = per_task("verify.demon_explore");
    l["verify.demon_states"] = static_cast<double>(first.demon_states);
  }
  return out;
}

}  // namespace perfbench
