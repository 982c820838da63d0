// diners_mc — bounded model checker and property-based verifier for the
// paper's theorems on small instances.
//
// Exhaustive mode enumerates the full reachable global state space under
// the nondeterministic daemon (by default from *every* state of the
// arbitrary-start box — Theorem 1's premise) and checks:
//
//   closure      no legitimate state steps outside I;
//   convergence  every weakly fair run reaches I (no stuck state, no
//                fair-feasible cycle outside I);
//   progress     no hungry process stays hungry forever on a fair run;
//   locality     for every victim, after a malicious crash (all possible
//                dying writes, interleaved arbitrarily — the demonic
//                victim), processes at distance > 2 neither keep an eating
//                violation nor starve (failure locality 2, Theorems 2/3).
//
// Random mode (--random N) runs seeded corrupted-start trials plus
// malicious-crash locality trials on instances too large to enumerate,
// with greedy trace shrinking of any failure (--shrink).
//
// Any violation is emitted as a shortest replayable counterexample
// (--cex=FILE), consumable by `diners_sim --replay=FILE`.
//
// Exit codes: 0 verified, 1 counterexample found, 2 usage error,
// 3 inconclusive (state cap hit).
//
// Examples:
//   diners_mc --topology=ring --n=4 --exhaustive
//   diners_mc --topology=figure2 --exhaustive
//   diners_mc --topology=ring --n=4 --exhaustive --mutate=no-fixdepth
//             --cex=trace.txt
//   diners_mc --topology=ring --n=8 --random=500 --shrink
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/invariants.hpp"
#include "core/config.hpp"
#include "core/diners_system.hpp"
#include "core/figure2.hpp"
#include "core/serialize.hpp"
#include "graph/algorithms.hpp"
#include "graph/automorphisms.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "util/rss.hpp"
#include "verify/canonical.hpp"
#include "verify/counterexample.hpp"
#include "verify/explorer.hpp"
#include "verify/fuzz.hpp"
#include "verify/mutation.hpp"
#include "verify/properties.hpp"
#include "verify/symmetry.hpp"

namespace {

using diners::core::DinersConfig;
using diners::core::DinersSystem;
using diners::graph::NodeId;
namespace verify = diners::verify;

constexpr int kCounterexample = 1;
constexpr int kUsageError = 2;
constexpr int kInconclusive = 3;

struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

diners::graph::Graph build_topology(const std::string& kind, NodeId n,
                                    std::uint64_t seed) {
  if (kind == "ring") return diners::graph::make_ring(n);
  if (kind == "line" || kind == "path") return diners::graph::make_path(n);
  if (kind == "star") return diners::graph::make_star(n);
  if (kind == "complete" || kind == "k4") {
    return diners::graph::make_complete(kind == "k4" ? 4 : n);
  }
  if (kind == "tree") return diners::graph::make_random_tree(n, seed);
  if (kind == "figure2") return diners::graph::make_figure2_topology();
  throw UsageError("unknown topology: " + kind);
}

/// Seconds elapsed since `t0`, formatted.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct CheckSet {
  bool closure = false;
  bool convergence = false;
  bool progress = false;
  bool locality = false;
};

/// Exhaustive-mode throughput accounting for the --json summary. Exploration
/// totals cover the healthy graph plus every demonic-victim re-exploration;
/// states_per_second is their ratio (exploration only, property checks and
/// seed construction excluded).
struct ExhaustiveStats {
  unsigned jobs = 1;
  std::uint64_t healthy_states = 0;
  std::uint64_t healthy_arcs = 0;
  std::uint32_t layers = 0;
  std::uint64_t legitimate = 0;
  std::uint64_t explored_states_total = 0;
  double explore_seconds = 0;
  double wall_seconds = 0;
  /// Reduction accounting, summed over the healthy exploration and every
  /// demonic-victim re-exploration.
  std::string reduce_mode = "none";
  verify::StateGraph::ReductionStats reduction;
  /// Property-check phases, in seconds. locality sums the labelling and
  /// checks of every victim (and of an instance's existing dead set).
  struct Phases {
    double label = 0;
    double closure = 0;
    double convergence = 0;
    double progress = 0;
    double locality = 0;
  } phases;
};

void write_json_summary(std::ostream& os, const std::string& topology,
                        NodeId n, const std::string& mutation,
                        const ExhaustiveStats& s, int rc) {
  const char* result = rc == 0              ? "verified"
                       : rc == kInconclusive ? "inconclusive"
                                             : "counterexample";
  const double sps = s.explore_seconds > 0
                         ? static_cast<double>(s.explored_states_total) /
                               s.explore_seconds
                         : 0.0;
  // The shared writer escapes the user-controlled topology/mutation
  // strings — a topology name containing '"' or '\' must still produce
  // valid JSON.
  diners::util::JsonWriter w(os);
  w.begin_object();
  w.field("mode", "exhaustive");
  w.field("topology", topology);
  w.field("n", static_cast<std::uint64_t>(n));
  w.field("jobs", s.jobs);
  w.field("mutation", mutation);
  w.field("result", result);
  w.field("healthy_states", s.healthy_states);
  w.field("healthy_arcs", s.healthy_arcs);
  w.field("layers", static_cast<std::uint64_t>(s.layers));
  w.field("legitimate", s.legitimate);
  w.field("explored_states_total", s.explored_states_total);
  w.field("explore_seconds", s.explore_seconds);
  w.field("states_per_second", sps);
  w.field("wall_seconds", s.wall_seconds);
  // Appended in schema v2 (append-only: consumers of the fields above are
  // unaffected). canonical_hit_ratio is the fraction of generated successor
  // candidates that canonicalization rewrote to a different orbit
  // representative — 0 when --reduce has no sym, or the topology has no
  // label-preserving symmetry.
  const double hit_ratio =
      s.reduction.raw_candidates > 0
          ? static_cast<double>(s.reduction.canonical_hits) /
                static_cast<double>(s.reduction.raw_candidates)
          : 0.0;
  w.key("reduction");
  w.begin_object();
  w.field("mode", s.reduce_mode);
  w.field("raw_candidates", s.reduction.raw_candidates);
  w.field("canonical_hits", s.reduction.canonical_hits);
  w.field("canonical_hit_ratio", hit_ratio);
  w.field("por_ample_states", s.reduction.por_ample_states);
  w.field("por_arcs_pruned", s.reduction.por_arcs_pruned);
  w.end_object();
  // Appended in schema v3: where the non-exploration time goes.
  w.key("phases");
  w.begin_object();
  w.field("label_seconds", s.phases.label);
  w.field("closure_seconds", s.phases.closure);
  w.field("convergence_seconds", s.phases.convergence);
  w.field("progress_seconds", s.phases.progress);
  w.field("locality_seconds", s.phases.locality);
  w.end_object();
  // Appended in schema v4: peak resident set of the whole run.
  w.field("max_rss_bytes", diners::util::peak_rss_bytes());
  w.finish();
}

CheckSet parse_checks(const std::string& csv) {
  CheckSet c;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    if (token == "all") {
      c.closure = c.convergence = c.progress = c.locality = true;
    } else if (token == "closure") {
      c.closure = true;
    } else if (token == "convergence") {
      c.convergence = true;
    } else if (token == "progress") {
      c.progress = true;
    } else if (token == "locality") {
      c.locality = true;
    } else {
      throw UsageError("bad --check token '" + token + "'");
    }
  }
  return c;
}

struct ReduceSet {
  bool sym = false;
  bool por = false;

  [[nodiscard]] std::string name() const {
    if (sym && por) return "sym,por";
    if (sym) return "sym";
    if (por) return "por";
    return "none";
  }
};

ReduceSet parse_reduce(const std::string& csv) {
  ReduceSet r;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty() || token == "none") continue;
    if (token == "sym") {
      r.sym = true;
    } else if (token == "por") {
      r.por = true;
    } else {
      throw UsageError("bad --reduce token '" + token +
                       "' (want none|sym|por)");
    }
  }
  return r;
}

bool parse_compact(const std::string& text, const ReduceSet& reduce) {
  if (text == "auto") return reduce.sym || reduce.por;
  if (text == "on" || text == "true") return true;
  if (text == "off" || text == "false") return false;
  throw UsageError("bad --compact '" + text + "' (want auto|on|off)");
}

void accumulate(verify::StateGraph::ReductionStats& into,
                const verify::StateGraph::ReductionStats& from) {
  into.raw_candidates += from.raw_candidates;
  into.canonical_hits += from.canonical_hits;
  into.por_ample_states += from.por_ample_states;
  into.por_arcs_pruned += from.por_arcs_pruned;
}

std::pair<std::int64_t, std::int64_t> parse_depth_box(const std::string& text,
                                                      std::uint32_t d) {
  if (text.empty()) return {0, static_cast<std::int64_t>(d) + 1};
  const auto colon = text.find(':');
  if (colon == std::string::npos) {
    throw UsageError("bad --depth-box '" + text + "' (want MIN:MAX)");
  }
  try {
    std::size_t pos = 0;
    const std::int64_t lo = std::stoll(text.substr(0, colon), &pos);
    if (pos != colon) throw std::invalid_argument(text);
    const std::string hi_text = text.substr(colon + 1);
    const std::int64_t hi = std::stoll(hi_text, &pos);
    if (pos != hi_text.size() || hi < lo) throw std::invalid_argument(text);
    return {lo, hi};
  } catch (const std::exception&) {
    throw UsageError("bad --depth-box '" + text + "' (want MIN:MAX)");
  }
}

int report_counterexample(const verify::Counterexample& cex,
                          const DinersSystem& prototype,
                          const std::string& cex_path) {
  std::cout << "COUNTEREXAMPLE " << cex.property << ": " << cex.detail
            << "\n  " << cex.events.size() << " events (stem "
            << cex.stem_length << ", cycle "
            << cex.events.size() - cex.stem_length << ")\n";
  if (!cex_path.empty()) {
    std::ofstream out(cex_path);
    if (!out) {
      std::cerr << "error: cannot write " << cex_path << "\n";
      return kCounterexample;
    }
    verify::write_counterexample(out, prototype.topology(),
                                 prototype.config(), cex);
    std::cout << "  written to " << cex_path
              << " (replay with: diners_sim --replay=" << cex_path << ")\n";
  }
  return kCounterexample;
}

int run_exhaustive(const diners::util::Flags& flags,
                   DinersSystem& prototype, const verify::StateCodec& codec,
                   verify::GuardMutation mutation, const CheckSet& checks,
                   ExhaustiveStats& stats) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t max_states = flags.u32("max-states", 1);
  const unsigned jobs = flags.u32("jobs", 1);
  stats.jobs = jobs;
  const ReduceSet reduce = parse_reduce(flags.str("reduce"));
  const bool compact = parse_compact(flags.str("compact"), reduce);
  stats.reduce_mode = reduce.name();
  std::string seeds_mode = flags.str("seeds");
  if (seeds_mode == "auto") {
    // figure2 is a pinned mid-run scenario; its arbitrary-start box is far
    // beyond enumeration, and the theorems' premise there is the drawn state.
    seeds_mode = flags.str("topology") == "figure2" ? "instance" : "box";
  }

  std::vector<verify::Key> seeds;
  if (seeds_mode == "box") {
    const std::uint64_t total = codec.domain_size();
    // Under sym, --max-states counts canonical states. An orbit holds at
    // most |G| box states (orbit-stabilizer), so the quotient holds at least
    // total / |G|: refuse only when even that bound exceeds the cap. No
    // group the explorer accepts exceeds kMaxElements, so a box too big
    // for that is refused without building the group.
    std::uint64_t group_order = 1;
    if (reduce.sym && total > max_states &&
        total <= std::uint64_t{max_states} *
                     verify::SymmetryGroup::kMaxElements) {
      group_order =
          verify::SymmetryGroup(
              codec, diners::graph::automorphism_generators(
                         prototype.topology()))
              .size();
    }
    if (total > max_states * group_order) {
      std::cout << "INCONCLUSIVE: arbitrary-start box has " << total
                << " states";
      if (group_order > 1) {
        std::cout << ", at least " << (total + group_order - 1) / group_order
                  << " canonical (symmetry group of order " << group_order
                  << ")";
      }
      std::cout << " > --max-states=" << max_states << "\n";
      return kInconclusive;
    }
    seeds.reserve(total);
    for (std::uint64_t i = 0; i < total; ++i) {
      seeds.push_back(codec.domain_key(i));
    }
  } else if (seeds_mode == "instance") {
    seeds.push_back(codec.encode(prototype));
  } else {
    throw UsageError("bad --seeds '" + seeds_mode + "' (want box|instance)");
  }

  DinersSystem scratch = diners::core::clone(prototype);
  verify::Explorer::Options opts;
  opts.mutation = mutation;
  opts.max_states = max_states;
  opts.jobs = jobs;
  opts.reduce_sym = reduce.sym;
  opts.reduce_por = reduce.por;
  opts.compact_visited = compact;
  // Box seeding knows the exact reachable count up front (the box is
  // closed under the protocol); instance seeding lets the explorer derive
  // its own hint. Under symmetry reduction the box count is an
  // overestimate of the canonical count — still a safe reserve hint.
  if (seeds_mode == "box") opts.expected_states = seeds.size();
  verify::Explorer explorer(scratch, codec, opts);
  const auto te0 = std::chrono::steady_clock::now();
  const verify::StateGraph healthy = explorer.explore(seeds);
  const double healthy_seconds = seconds_since(te0);
  // The healthy graph holds every admitted seed; the raw box (16 B per
  // state, ~0.97 GB for ring-5) is dead weight from here on.
  std::vector<verify::Key>().swap(seeds);
  stats.explore_seconds += healthy_seconds;
  stats.explored_states_total += healthy.num_states();
  accumulate(stats.reduction, healthy.reduction);
  stats.healthy_states = healthy.num_states();
  stats.healthy_arcs = healthy.succ.size();
  stats.layers = healthy.layers;
  if (!healthy.complete) {
    std::cout << "INCONCLUSIVE: hit --max-states=" << max_states << " ("
              << healthy.num_states() << " states explored)\n";
    return kInconclusive;
  }

  // Adds the time since `t` to `phase` when the enclosing scope ends, on
  // every return path (a phase that finds a violation includes composing
  // and writing its counterexample).
  struct PhaseTimer {
    double& phase;
    std::chrono::steady_clock::time_point t = std::chrono::steady_clock::now();
    ~PhaseTimer() { phase += seconds_since(t); }
  };
  const auto inv = [&] {
    const PhaseTimer timer{stats.phases.label};
    return verify::label_invariant(healthy, codec, scratch);
  }();
  std::uint64_t legit = 0;
  for (const auto b : inv) legit += b;
  stats.legitimate = legit;
  std::cout << "explored " << healthy.num_states() << " states, "
            << healthy.succ.size() << " arcs, " << healthy.layers
            << " layers in " << seconds_since(t0) << " s ("
            << static_cast<std::uint64_t>(
                   healthy_seconds > 0
                       ? healthy.num_states() / healthy_seconds
                       : 0)
            << " states/s); " << legit << " legitimate\n";
  if (reduce.sym || reduce.por) {
    std::cout << "reduction " << reduce.name() << ": "
              << healthy.reduction.canonical_hits << "/"
              << healthy.reduction.raw_candidates
              << " candidates canonicalized, "
              << healthy.reduction.por_ample_states << " ample states ("
              << healthy.reduction.por_arcs_pruned << " arcs pruned)"
              << (healthy.sym ? "" : "; no nontrivial symmetry") << "\n";
  }

  // One representative per process orbit of the graph's symmetry group:
  // check_* verdicts for p cover every process some automorphism maps p
  // to, so the sibling checks are redundant. All-true when unreduced.
  const auto orbit_reps = [](const verify::StateGraph& sg, NodeId nn) {
    std::vector<std::uint8_t> rep(nn, 1);
    if (sg.sym != nullptr) {
      for (const auto& orb : sg.sym->node_orbits()) {
        for (std::size_t i = 1; i < orb.size(); ++i) rep[orb[i]] = 0;
      }
    }
    return rep;
  };

  const std::string cex_path = flags.str("cex");
  const auto fail = [&](std::optional<NodeId> victim,
                        const verify::StateGraph* crashed,
                        const verify::Violation& v) {
    return report_counterexample(
        verify::compose_counterexample(healthy, codec, prototype, victim,
                                       crashed, v),
        prototype, cex_path);
  };

  if (checks.closure) {
    const PhaseTimer timer{stats.phases.closure};
    if (const auto v = verify::check_closure(healthy, inv)) {
      return fail(std::nullopt, nullptr, *v);
    }
    std::cout << "closure: OK\n";
  }
  if (checks.convergence) {
    const PhaseTimer timer{stats.phases.convergence};
    if (const auto v = verify::check_convergence(healthy, inv)) {
      return fail(std::nullopt, nullptr, *v);
    }
    std::cout << "convergence: OK\n";
  }
  if (checks.progress) {
    const PhaseTimer timer{stats.phases.progress};
    if (prototype.dead_processes().empty()) {
      // Individual progress for everyone holds only crash-free; with dead
      // processes present the locality check below covers the far ones (the
      // near ones are exactly what failure locality 2 permits to starve).
      const auto prep = orbit_reps(healthy, prototype.topology().num_nodes());
      for (NodeId p = 0; p < prototype.topology().num_nodes(); ++p) {
        if (prep[p] == 0) continue;
        if (const auto v = verify::check_no_starvation(healthy, codec, p)) {
          return fail(std::nullopt, nullptr, *v);
        }
      }
      std::cout << "progress: OK\n";
    } else {
      std::cout << "progress: skipped (instance has dead processes; see "
                   "locality)\n";
    }
  }

  if (checks.locality) {
    const auto& g = prototype.topology();
    const auto pre_dead = prototype.dead_processes();
    if (!pre_dead.empty()) {
      // The instance already carries a crash (e.g. figure2): analyse the
      // explored graph directly against its dead set.
      const PhaseTimer timer{stats.phases.locality};
      const auto dist = diners::graph::distances_to_set(
          g, std::span<const NodeId>(pre_dead));
      const auto far_bad =
          verify::label_far_violation(healthy, codec, scratch, dist, 2);
      if (const auto v = verify::check_far_safety(healthy, far_bad)) {
        return fail(std::nullopt, nullptr, *v);
      }
      const auto prep = orbit_reps(healthy, g.num_nodes());
      for (NodeId p = 0; p < g.num_nodes(); ++p) {
        if (!prototype.alive(p) || dist[p] <= 2 || !prototype.needs(p) ||
            prep[p] == 0) {
          continue;
        }
        if (const auto v = verify::check_no_starvation(healthy, codec, p)) {
          return fail(std::nullopt, nullptr, *v);
        }
      }
      std::cout << "locality(existing dead set): OK\n";
    }
    std::string victims_mode = flags.str("victims");
    if (victims_mode == "auto") {
      // An instance that already carries a crash (figure2) is checked
      // against its own dead set above; stacking a second demonic victim on
      // top goes beyond the theorems' single-scenario premise (and past any
      // reasonable state cap). Crash-free instances get every victim.
      victims_mode = pre_dead.empty() ? "each" : "none";
    }
    if (victims_mode != "each" && victims_mode != "none") {
      throw UsageError("bad --victims '" + victims_mode +
                       "' (want each|none|auto)");
    }
    // One victim per orbit of the healthy graph's symmetry group: crashing
    // π(v) produces a state graph isomorphic (via A_π) to crashing v, so
    // one demonic re-exploration covers the whole orbit.
    const auto vrep = orbit_reps(healthy, g.num_nodes());
    for (NodeId victim = 0;
         victims_mode == "each" && victim < g.num_nodes(); ++victim) {
      if (!prototype.alive(victim)) continue;
      if (vrep[victim] == 0) {
        std::cout << "locality(victim " << victim
                  << "): covered by its orbit representative\n";
        continue;
      }
      DinersSystem crashed_scratch = diners::core::clone(prototype);
      crashed_scratch.crash(victim);
      verify::Explorer::Options copts;
      copts.mutation = mutation;
      copts.max_states = max_states;
      copts.jobs = jobs;
      copts.expected_states = healthy.num_states();
      copts.demon_victim = victim;
      copts.reduce_sym = reduce.sym;
      copts.reduce_por = reduce.por;
      copts.compact_visited = compact;
      verify::Explorer demon(crashed_scratch, codec, copts);
      const auto tv0 = std::chrono::steady_clock::now();
      const verify::StateGraph crashed = demon.explore(healthy.keys);
      stats.explore_seconds += seconds_since(tv0);
      stats.explored_states_total += crashed.num_states();
      accumulate(stats.reduction, crashed.reduction);
      if (!crashed.complete) {
        std::cout << "INCONCLUSIVE: victim " << victim << " hit --max-states="
                  << max_states << "\n";
        return kInconclusive;
      }
      const PhaseTimer timer{stats.phases.locality};
      const auto dead = crashed_scratch.dead_processes();
      const auto dist = diners::graph::distances_to_set(
          g, std::span<const NodeId>(dead));
      const auto far_bad = verify::label_far_violation(crashed, codec,
                                                       crashed_scratch, dist,
                                                       2);
      if (const auto v = verify::check_far_safety(crashed, far_bad)) {
        return fail(victim, &crashed, *v);
      }
      const auto crep = orbit_reps(crashed, g.num_nodes());
      for (NodeId p = 0; p < g.num_nodes(); ++p) {
        if (!crashed_scratch.alive(p) || dist[p] <= 2 ||
            !crashed_scratch.needs(p) || crep[p] == 0) {
          continue;
        }
        if (const auto v = verify::check_no_starvation(crashed, codec, p)) {
          return fail(victim, &crashed, *v);
        }
      }
      std::cout << "locality(victim " << victim << "): OK, "
                << crashed.num_states() << " states\n";
    }
  }

  std::cout << "VERIFIED " << flags.str("topology")
            << " n=" << prototype.topology().num_nodes() << ": "
            << healthy.num_states() << " states, wall " << seconds_since(t0)
            << " s\n";
  return 0;
}

int run_random(const diners::util::Flags& flags, DinersSystem& prototype,
               verify::GuardMutation mutation) {
  const auto t0 = std::chrono::steady_clock::now();
  verify::FuzzOptions opts;
  opts.trials = flags.u64("random");
  opts.seed = flags.u64("seed");
  opts.steps = flags.u64("steps");
  opts.shrink = flags.flag("shrink");
  opts.mutation = mutation;
  opts.daemon = flags.str("daemon");
  opts.crashes = flags.u32("crashes");
  opts.malicious_steps = flags.u32("malicious-steps");

  const auto report =
      verify::run_fuzz(prototype.topology(), prototype.config(), opts);
  std::cout << report.trials_run << " trials, max steps-to-I "
            << report.stabilization_steps_max << ", wall "
            << seconds_since(t0) << " s\n";
  if (!report.ok) {
    if (report.cex) {
      return report_counterexample(*report.cex, prototype, flags.str("cex"));
    }
    std::cout << "COUNTEREXAMPLE " << report.detail << " (seed "
              << report.failing_seed << ")\n";
    return kCounterexample;
  }
  std::cout << "VERIFIED random " << flags.str("topology")
            << " n=" << prototype.topology().num_nodes() << ": "
            << report.trials_run << " trials clean\n";
  return 0;
}

int run(const diners::util::Flags& flags) {
  const NodeId n = flags.u32("n", 1, diners::graph::kNoNode - 1);
  const std::uint64_t seed = flags.u64("seed");
  const std::string topo = flags.str("topology");
  auto g = build_topology(topo, n, seed);

  verify::GuardMutation mutation = verify::GuardMutation::kNone;
  DinersConfig cfg;
  try {
    mutation = verify::parse_guard_mutation(flags.str("mutate"));
    cfg.diameter_override =
        diners::core::parse_threshold(flags.str("threshold"), g.num_nodes());
  } catch (const std::invalid_argument& err) {
    throw UsageError(err.what());
  }

  // figure2 is a pinned scenario (fixed appetite, a crashed mid-meal);
  // everything else starts clean with saturation appetite. The scenario
  // state is carried over by snapshot so --threshold still applies.
  DinersSystem prototype(std::move(g), cfg);
  if (topo == "figure2") {
    diners::core::restore(
        prototype, diners::core::capture(diners::core::make_figure2_system()));
  } else {
    for (NodeId p = 0; p < prototype.topology().num_nodes(); ++p) {
      prototype.set_needs(p, true);
    }
  }

  const std::uint32_t d = prototype.config().diameter_override
                              ? *prototype.config().diameter_override
                              : diners::graph::diameter(prototype.topology());
  const auto [dmin, dmax] = parse_depth_box(flags.str("depth-box"), d);
  const verify::StateCodec codec(prototype.topology(), dmin, dmax);

  const bool exhaustive = flags.flag("exhaustive");
  const std::uint64_t random_trials = flags.u64("random");
  if (!exhaustive && random_trials == 0) {
    throw UsageError("pick a mode: --exhaustive and/or --random=N");
  }

  std::cout << "instance " << topo
            << " n=" << prototype.topology().num_nodes() << " D=" << d
            << " depth-box=" << dmin << ":" << dmax << " mutation="
            << verify::to_string(mutation) << "\n";
  if (exhaustive) {
    const CheckSet checks = parse_checks(flags.str("check"));
    ExhaustiveStats stats;
    const auto tx0 = std::chrono::steady_clock::now();
    const int rc =
        run_exhaustive(flags, prototype, codec, mutation, checks, stats);
    stats.wall_seconds = seconds_since(tx0);
    const std::string json_path = flags.str("json");
    if (!json_path.empty()) {
      const auto write = [&](std::ostream& os) {
        write_json_summary(os, topo, prototype.topology().num_nodes(),
                           std::string(verify::to_string(mutation)), stats,
                           rc);
      };
      if (json_path == "-") {
        write(std::cout);
      } else {
        std::ofstream out(json_path);
        if (!out) throw UsageError("cannot write --json file " + json_path);
        write(out);
      }
    }
    if (rc != 0) return rc;
  }
  if (random_trials > 0) {
    const int rc = run_random(flags, prototype, mutation);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  diners::util::Flags flags;
  flags.define("topology", "ring", "ring|line|path|star|complete|k4|tree|figure2")
      .define("n", "4", "system size")
      .define("seed", "1", "rng seed (random mode, tree topology)")
      .define("threshold", "paper",
              "cycle threshold: paper (=diameter) | sound (=n-1) | <int>")
      .define("exhaustive", "false", "enumerate the reachable state space")
      .define("random", "0", "run this many randomized trials")
      .define("shrink", "false", "greedily shrink random-mode failures")
      .define("depth-box", "", "depth abstraction box MIN:MAX (default 0:D+1)")
      .define("mutate", "none",
              "deliberately broken guard: none|no-fixdepth|greedy-enter")
      .define("check", "all",
              "comma list of closure|convergence|progress|locality|all")
      .define("max-states", "4000000",
              "exploration state cap (exact; counts canonical states under "
              "--reduce=sym)")
      .define("reduce", "none",
              "state-space reductions, comma list of sym (symmetry/orbit "
              "canonicalization) and por (ample-set partial order "
              "reduction, crash-free graphs only) | none")
      .define("compact", "auto",
              "bit-packed visited-set pages: auto (on when --reduce is "
              "active) | on | off")
      .define("jobs", "1",
              "exploration worker threads (sharded parallel BFS; the "
              "explored graph is identical for every value)")
      .define("json", "",
              "write a machine-readable exhaustive-mode summary (with "
              "states_per_second) to this file; '-' = stdout")
      .define("victims", "auto",
              "locality crash victims: each | none | auto (each unless the "
              "instance already has dead processes)")
      .define("cex", "", "write the first counterexample to this file")
      .define("seeds", "auto",
              "exhaustive start set: box (all 3^n*depth^n*2^m states) | "
              "instance (the configured start state) | auto")
      .define("daemon", "random", "random-mode daemon")
      .define("steps", "0", "random-mode steps per trial (0 = 64*n*n)")
      .define("crashes", "1", "random-mode victims per locality trial")
      .define("malicious-steps", "3",
              "random-mode dying writes per malicious crash");
  if (!flags.parse(argc, argv)) return kUsageError;

  try {
    return run(flags);
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
    return 1;
  }
}
