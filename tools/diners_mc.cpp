// diners_mc — bounded model checker and property-based verifier for the
// paper's theorems on small instances.
//
// Exhaustive mode is verify::check_exhaustive (verify/exhaustive.hpp): it
// enumerates the full reachable global state space under the
// nondeterministic daemon (by default from *every* state of the
// arbitrary-start box — Theorem 1's premise) and checks closure,
// convergence, progress and failure locality 2 under a demonic crash
// victim (Theorems 2/3). This tool parses its flags and prints its result.
//
// Random mode (--random N) runs seeded corrupted-start trials plus
// malicious-crash locality trials on instances too large to enumerate,
// with greedy trace shrinking of any failure (--shrink).
//
// Any violation is emitted as a shortest replayable counterexample
// (--cex=FILE), consumable by `diners_sim --replay=FILE`.
//
// Exit codes: 0 verified, 1 counterexample found, 2 usage error,
// 3 inconclusive (state cap hit, or box seeds past physical memory).
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
#include <sstream>
#include <string>

#include "core/config.hpp"
#include "core/diners_system.hpp"
#include "core/figure2.hpp"
#include "core/serialize.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "util/rss.hpp"
#include "verify/canonical.hpp"
#include "verify/counterexample.hpp"
#include "verify/exhaustive.hpp"
#include "verify/fuzz.hpp"
#include "verify/mutation.hpp"

namespace {

using diners::core::DinersConfig;
using diners::core::DinersSystem;
using diners::graph::NodeId;
using diners::util::UsageError;
namespace verify = diners::verify;

constexpr int kCounterexample = 1;
constexpr int kInconclusive = 3;

/// Seconds elapsed since `t0`, formatted.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The --reduce set, normalized: none, sym, por or sym,por.
std::string reduce_name(const verify::Explorer::Options& e) {
  if (e.reduce_sym && e.reduce_por) return "sym,por";
  if (e.reduce_sym) return "sym";
  if (e.reduce_por) return "por";
  return "none";
}

/// The exhaustive-mode --json summary. Exploration totals cover the
/// healthy graph plus every demonic-victim re-exploration;
/// states_per_second is their ratio (exploration only, property checks and
/// seed construction excluded).
void write_json_summary(std::ostream& os, const std::string& topology,
                        NodeId n, const verify::ExhaustiveOptions& o,
                        const verify::ExhaustiveResult& s,
                        double wall_seconds, int rc) {
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
  w.field("jobs", o.explore.jobs);
  w.field("mutation", std::string(verify::to_string(o.explore.mutation)));
  w.field("result", result);
  w.field("healthy_states", s.healthy_states);
  w.field("healthy_arcs", s.healthy_arcs);
  w.field("layers", static_cast<std::uint64_t>(s.layers));
  w.field("legitimate", s.legitimate);
  w.field("explored_states_total", s.explored_states_total);
  w.field("explore_seconds", s.explore_seconds);
  w.field("states_per_second", sps);
  w.field("wall_seconds", wall_seconds);
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
  w.field("mode", reduce_name(o.explore));
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

/// Calls `on` with each non-empty token of a comma list.
template <typename F>
void for_each_token(const std::string& csv, F on) {
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty()) on(token);
  }
}

/// Turns on the properties the --check comma list names, and only those.
void parse_checks(const std::string& csv, verify::ExhaustiveOptions& o) {
  o.closure = o.convergence = o.progress = o.locality = false;
  for_each_token(csv, [&o](const std::string& token) {
    if (token == "all") {
      o.closure = o.convergence = o.progress = o.locality = true;
    } else if (token == "closure") {
      o.closure = true;
    } else if (token == "convergence") {
      o.convergence = true;
    } else if (token == "progress") {
      o.progress = true;
    } else if (token == "locality") {
      o.locality = true;
    } else {
      throw UsageError("bad --check token '" + token + "'");
    }
  });
}

void parse_reduce(const std::string& csv, verify::Explorer::Options& e) {
  for_each_token(csv, [&e](const std::string& token) {
    if (token == "sym") {
      e.reduce_sym = true;
    } else if (token == "por") {
      e.reduce_por = true;
    } else if (token != "none") {
      throw UsageError("bad --reduce token '" + token +
                       "' (want none|sym|por)");
    }
  });
}

bool parse_compact(const std::string& text,
                   const verify::Explorer::Options& e) {
  if (text == "auto") return e.reduce_sym || e.reduce_por;
  if (text == "on" || text == "true") return true;
  if (text == "off" || text == "false") return false;
  throw UsageError("bad --compact '" + text + "' (want auto|on|off)");
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

/// The check_exhaustive options the flags select.
verify::ExhaustiveOptions exhaustive_options(
    const diners::util::Flags& flags, const DinersSystem& prototype,
    verify::GuardMutation mutation) {
  verify::ExhaustiveOptions o;
  parse_checks(flags.str("check"), o);
  o.explore.mutation = mutation;
  o.explore.max_states = flags.u32("max-states", 1);
  o.explore.jobs = flags.u32("jobs", 1);
  parse_reduce(flags.str("reduce"), o.explore);
  o.explore.compact_visited = parse_compact(flags.str("compact"), o.explore);
  std::string seeds_mode = flags.str("seeds");
  if (seeds_mode == "auto") {
    // figure2 is a pinned mid-run scenario; its arbitrary-start box is far
    // beyond enumeration, and the theorems' premise there is the drawn state.
    seeds_mode = flags.str("topology") == "figure2" ? "instance" : "box";
  }
  if (seeds_mode != "box" && seeds_mode != "instance") {
    throw UsageError("bad --seeds '" + seeds_mode + "' (want box|instance)");
  }
  o.box_seeds = seeds_mode == "box";
  std::string victims_mode = flags.str("victims");
  if (victims_mode == "auto") {
    // An instance that already carries a crash (figure2) is checked against
    // its own dead set; stacking a second demonic victim on top goes beyond
    // the theorems' single-scenario premise (and past any reasonable state
    // cap). Crash-free instances get every victim.
    victims_mode = prototype.dead_processes().empty() ? "each" : "none";
  }
  if (o.locality && victims_mode != "each" && victims_mode != "none") {
    throw UsageError("bad --victims '" + victims_mode +
                     "' (want each|none|auto)");
  }
  o.victims = victims_mode == "each";
  return o;
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
                   const DinersSystem& prototype,
                   const verify::StateCodec& codec,
                   verify::GuardMutation mutation) {
  const auto t0 = std::chrono::steady_clock::now();
  const verify::ExhaustiveOptions options =
      exhaustive_options(flags, prototype, mutation);
  const verify::ExhaustiveResult result =
      verify::check_exhaustive(prototype, codec, options, std::cout);
  int rc = 0;
  if (result.cex) {
    rc = report_counterexample(*result.cex, prototype, flags.str("cex"));
  } else if (result.verdict ==
             verify::ExhaustiveResult::Verdict::kInconclusive) {
    rc = kInconclusive;
  } else {
    std::cout << "VERIFIED " << flags.str("topology")
              << " n=" << prototype.topology().num_nodes() << ": "
              << result.healthy_states << " states, wall "
              << seconds_since(t0) << " s\n";
  }
  const double wall_seconds = seconds_since(t0);
  const std::string json_path = flags.str("json");
  if (!json_path.empty()) {
    const auto write = [&](std::ostream& os) {
      write_json_summary(os, flags.str("topology"),
                         prototype.topology().num_nodes(), options, result,
                         wall_seconds, rc);
    };
    if (json_path == "-") {
      write(std::cout);
    } else {
      std::ofstream out(json_path);
      if (!out) throw UsageError("cannot write --json file " + json_path);
      write(out);
    }
  }
  return rc;
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

  // An unknown family, or a size the family cannot take, is malformed input.
  auto g = [&] {
    try {
      return diners::graph::make_named(topo, n, seed);
    } catch (const std::invalid_argument& err) {
      throw UsageError(err.what());
    }
  }();

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
    const int rc = run_exhaustive(flags, prototype, codec, mutation);
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
  flags.define("topology", "ring",
               "ring|path|star|complete|grid|torus|tree|wheel|barbell|gnp|figure2")
      .define("n", "4", "system size")
      .define("seed", "1", "rng seed (random mode, seeded topologies)")
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
  if (!flags.parse(argc, argv)) return diners::util::kUsageError;
  return diners::util::run_tool(run, flags);
}
