#include "verify/exhaustive.hpp"

#include <chrono>
#include <ostream>
#include <span>
#include <vector>

#include "core/serialize.hpp"
#include "graph/algorithms.hpp"
#include "graph/automorphisms.hpp"
#include "util/rss.hpp"
#include "verify/properties.hpp"
#include "verify/symmetry.hpp"

namespace diners::verify {

namespace {

using core::DinersSystem;
using graph::NodeId;
using Clock = std::chrono::steady_clock;
using Verdict = ExhaustiveResult::Verdict;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds the time since construction to `phase` when the enclosing scope
/// ends, on every return path (a phase that finds a violation includes
/// composing its counterexample).
struct PhaseTimer {
  double& phase;
  Clock::time_point t = Clock::now();
  ~PhaseTimer() { phase += seconds_since(t); }
};

void accumulate(StateGraph::ReductionStats& into,
                const StateGraph::ReductionStats& from) {
  into.raw_candidates += from.raw_candidates;
  into.canonical_hits += from.canonical_hits;
  into.por_ample_states += from.por_ample_states;
  into.por_arcs_pruned += from.por_arcs_pruned;
}

/// One representative per process orbit of the graph's symmetry group:
/// check_* verdicts for p cover every process some automorphism maps p to,
/// so the sibling checks are redundant. All-true when unreduced.
std::vector<std::uint8_t> orbit_reps(const StateGraph& g, NodeId n) {
  std::vector<std::uint8_t> rep(n, 1);
  if (g.sym != nullptr) {
    for (const auto& orb : g.sym->node_orbits()) {
      for (std::size_t i = 1; i < orb.size(); ++i) rep[orb[i]] = 0;
    }
  }
  return rep;
}

/// Failure locality 2 on `g`, explored with `system`'s dead set: far
/// eating violations die out on every fair path, and no far process that
/// needs to eat starves. Processes within distance 2 of the dead set are
/// exactly the ones the theorems allow to starve.
std::optional<Violation> check_locality(const StateGraph& g,
                                        const StateCodec& codec,
                                        const DinersSystem& system) {
  const auto& topo = system.topology();
  const auto dead = system.dead_processes();
  const auto dist =
      graph::distances_to_set(topo, std::span<const NodeId>(dead));
  if (auto v = check_far_safety(
          g, label_far_violation(g, codec, system, dist, 2))) {
    return v;
  }
  const auto rep = orbit_reps(g, topo.num_nodes());
  for (NodeId p = 0; p < topo.num_nodes(); ++p) {
    if (!system.alive(p) || dist[p] <= 2 || !system.needs(p) ||
        rep[p] == 0) {
      continue;
    }
    if (auto v = check_no_starvation(g, codec, p)) return v;
  }
  return std::nullopt;
}

/// Whether the box may be seeded; if not, logs why it is refused.
bool box_fits(const DinersSystem& prototype, const StateCodec& codec,
              const Explorer::Options& opts, std::ostream& log) {
  const std::uint64_t total = codec.domain_size();
  const std::uint64_t max_states = opts.max_states;
  // Under sym, max_states counts canonical states. An orbit holds at most
  // |G| box states (orbit-stabilizer), so the quotient holds at least
  // total / |G|: refuse only when even that bound exceeds the cap. No group
  // the explorer accepts exceeds kMaxElements, so a box too big for that is
  // refused without building the group.
  std::uint64_t group_order = 1;
  if (opts.reduce_sym && total > max_states &&
      total <= max_states * SymmetryGroup::kMaxElements) {
    group_order =
        SymmetryGroup(codec,
                      graph::automorphism_generators(prototype.topology()))
            .size();
  }
  if (total > max_states * group_order) {
    log << "INCONCLUSIVE: arbitrary-start box has " << total << " states";
    if (group_order > 1) {
      log << ", at least " << (total + group_order - 1) / group_order
          << " canonical (symmetry group of order " << group_order << ")";
    }
    log << " > --max-states=" << max_states << "\n";
    return false;
  }
  // Every raw key is held until the healthy exploration has admitted it, so
  // the keys alone must fit in memory. That is necessary, not sufficient:
  // the explored graph needs more. total < 2^48 here, so bytes cannot wrap.
  const std::uint64_t bytes = total * sizeof(Key);
  const std::uint64_t physical = util::physical_memory_bytes();
  if (bytes > physical) {
    log << "INCONCLUSIVE: arbitrary-start box seeds take " << bytes
        << " bytes (" << total << " keys of " << sizeof(Key) << " B) > "
        << physical << " bytes of physical memory\n";
    return false;
  }
  return true;
}

Verdict run_check(const DinersSystem& prototype, const StateCodec& codec,
                  const ExhaustiveOptions& options, std::ostream& log,
                  ExhaustiveResult& r) {
  const auto t0 = Clock::now();
  Explorer::Options opts = options.explore;
  opts.demon_victim.reset();
  if (options.box_seeds && !box_fits(prototype, codec, opts, log)) {
    return Verdict::kInconclusive;
  }
  std::vector<Key> seeds = options.box_seeds
                               ? codec.domain_keys()
                               : std::vector<Key>{codec.encode(prototype)};

  DinersSystem scratch = core::clone(prototype);
  // Box seeding knows the exact reachable count up front (the box is closed
  // under the protocol); instance seeding lets the explorer derive its own
  // hint. Under symmetry reduction the box count is an overestimate of the
  // canonical count — still a safe reserve hint.
  opts.expected_states = options.box_seeds ? seeds.size() : 0;
  Explorer explorer(scratch, codec, opts);
  const auto te0 = Clock::now();
  const StateGraph healthy = explorer.explore(seeds);
  const double healthy_seconds = seconds_since(te0);
  // The healthy graph holds every admitted seed; the raw box (16 B per
  // state, ~0.97 GB for ring-5) is dead weight from here on.
  std::vector<Key>().swap(seeds);
  r.explore_seconds += healthy_seconds;
  r.explored_states_total += healthy.num_states();
  accumulate(r.reduction, healthy.reduction);
  r.healthy_states = healthy.num_states();
  r.healthy_arcs = healthy.succ.size();
  r.layers = healthy.layers;
  if (!healthy.complete) {
    log << "INCONCLUSIVE: hit --max-states=" << opts.max_states << " ("
        << healthy.num_states() << " states explored)\n";
    return Verdict::kInconclusive;
  }

  const auto inv = [&] {
    const PhaseTimer timer{r.phases.label};
    return label_invariant(healthy, codec, scratch);
  }();
  for (const auto b : inv) r.legitimate += b;
  log << "explored " << healthy.num_states() << " states, "
      << healthy.succ.size() << " arcs, " << healthy.layers << " layers in "
      << seconds_since(t0) << " s ("
      << static_cast<std::uint64_t>(
             healthy_seconds > 0 ? healthy.num_states() / healthy_seconds
                                 : 0)
      << " states/s); " << r.legitimate << " legitimate\n";
  if (opts.reduce_sym || opts.reduce_por) {
    log << "reduction "
        << (opts.reduce_sym ? (opts.reduce_por ? "sym,por" : "sym") : "por")
        << ": " << healthy.reduction.canonical_hits << "/"
        << healthy.reduction.raw_candidates << " candidates canonicalized, "
        << healthy.reduction.por_ample_states << " ample states ("
        << healthy.reduction.por_arcs_pruned << " arcs pruned)"
        << (healthy.sym ? "" : "; no nontrivial symmetry") << "\n";
  }

  const auto fail = [&](std::optional<NodeId> victim,
                        const StateGraph* crashed, const Violation& v) {
    r.cex = compose_counterexample(healthy, codec, prototype, victim, crashed,
                                   v);
    return Verdict::kCounterexample;
  };
  const NodeId n = prototype.topology().num_nodes();
  const bool crash_free = prototype.dead_processes().empty();

  if (options.closure) {
    const PhaseTimer timer{r.phases.closure};
    if (const auto v = check_closure(healthy, inv)) {
      return fail(std::nullopt, nullptr, *v);
    }
    log << "closure: OK\n";
  }
  if (options.convergence) {
    const PhaseTimer timer{r.phases.convergence};
    if (const auto v = check_convergence(healthy, inv)) {
      return fail(std::nullopt, nullptr, *v);
    }
    log << "convergence: OK\n";
  }
  if (options.progress) {
    const PhaseTimer timer{r.phases.progress};
    if (crash_free) {
      // Individual progress for everyone holds only crash-free; with dead
      // processes present the locality check covers the far ones (the near
      // ones are exactly what failure locality 2 permits to starve).
      const auto rep = orbit_reps(healthy, n);
      for (NodeId p = 0; p < n; ++p) {
        if (rep[p] == 0) continue;
        if (const auto v = check_no_starvation(healthy, codec, p)) {
          return fail(std::nullopt, nullptr, *v);
        }
      }
      log << "progress: OK\n";
    } else {
      log << "progress: skipped (instance has dead processes; see "
             "locality)\n";
    }
  }
  if (!options.locality) return Verdict::kVerified;

  if (!crash_free) {
    // The instance already carries a crash (e.g. figure2): analyse the
    // explored graph directly against its dead set.
    const PhaseTimer timer{r.phases.locality};
    if (const auto v = check_locality(healthy, codec, prototype)) {
      return fail(std::nullopt, nullptr, *v);
    }
    log << "locality(existing dead set): OK\n";
  }
  // One victim per orbit of the healthy graph's symmetry group: crashing
  // π(v) produces a state graph isomorphic (via A_π) to crashing v, so one
  // demonic re-exploration covers the whole orbit.
  const auto vrep = orbit_reps(healthy, n);
  for (NodeId victim = 0; options.victims && victim < n; ++victim) {
    if (!prototype.alive(victim)) continue;
    if (vrep[victim] == 0) {
      log << "locality(victim " << victim
          << "): covered by its orbit representative\n";
      continue;
    }
    DinersSystem crashed_scratch = core::clone(prototype);
    crashed_scratch.crash(victim);
    Explorer::Options copts = opts;
    copts.expected_states = healthy.num_states();
    copts.demon_victim = victim;
    Explorer demon(crashed_scratch, codec, copts);
    const auto tv0 = Clock::now();
    const StateGraph crashed = demon.explore(healthy.keys);
    r.explore_seconds += seconds_since(tv0);
    r.explored_states_total += crashed.num_states();
    accumulate(r.reduction, crashed.reduction);
    if (!crashed.complete) {
      log << "INCONCLUSIVE: victim " << victim
          << " hit --max-states=" << opts.max_states << "\n";
      return Verdict::kInconclusive;
    }
    const PhaseTimer timer{r.phases.locality};
    if (const auto v = check_locality(crashed, codec, crashed_scratch)) {
      return fail(victim, &crashed, *v);
    }
    log << "locality(victim " << victim << "): OK, " << crashed.num_states()
        << " states\n";
  }
  return Verdict::kVerified;
}

}  // namespace

ExhaustiveResult check_exhaustive(const DinersSystem& prototype,
                                  const StateCodec& codec,
                                  const ExhaustiveOptions& options,
                                  std::ostream& log) {
  // run_check's phase timers add to `r` as their scopes close, so `r` is
  // complete only once run_check has returned.
  ExhaustiveResult r;
  r.verdict = run_check(prototype, codec, options, log, r);
  return r;
}

}  // namespace diners::verify
