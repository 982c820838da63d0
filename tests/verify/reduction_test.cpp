// Differential battery for the explorer's symmetry and partial-order
// reductions: on every seed topology and guard mutant, the reduced
// verifier must reach exactly the verdict of the unreduced one, the
// canonical state counts must shrink by the predicted orbit factor, lifted
// counterexamples must replay identically, and the --max-states cap must
// count canonical states (with truncated quotient graphs still rejected by
// the property oracles).
//
// This battery is the empirical soundness pin for the ample-set POR rule
// (see DESIGN.md §10): POR keeps an arc-subgraph, so any violation it
// reports is genuine; that it misses none is exactly what the verdict
// equality here checks.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/figure2.hpp"
#include "core/serialize.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "verify/counterexample.hpp"
#include "verify/explorer.hpp"
#include "util/rng.hpp"
#include "verify/key_index.hpp"
#include "verify/mutation.hpp"
#include "verify/properties.hpp"

namespace diners::verify {
namespace {

using core::DinersConfig;
using core::DinersSystem;
using graph::NodeId;

DinersSystem hungry_system(graph::Graph g) {
  DinersConfig cfg;
  cfg.diameter_override = g.num_nodes() - 1;  // the sound threshold
  DinersSystem s(std::move(g), cfg);
  for (NodeId p = 0; p < s.topology().num_nodes(); ++p) s.set_needs(p, true);
  return s;
}

struct RunSpec {
  GuardMutation mutation = GuardMutation::kNone;
  bool sym = false;
  bool por = false;
  bool compact = false;
  bool box = true;       ///< box seeding; false = instance seeding
  bool victims = true;   ///< run the demonic-victim locality loop
  unsigned jobs = 1;
  std::uint32_t max_states = 8'000'000;
};

struct RunResult {
  std::string verdict;  ///< "verified", "inconclusive", or the property
  std::uint64_t healthy_states = 0;
  std::uint64_t healthy_arcs = 0;
  StateGraph::ReductionStats reduction;
  std::optional<Counterexample> cex;
};

/// In-process mirror of diners_mc's exhaustive mode (same oracles, same
/// counterexample composition, same per-orbit loop reduction), so the
/// battery compares the actual verification pipeline, not a re-derivation.
RunResult run_verify(const DinersSystem& prototype, const RunSpec& spec) {
  RunResult r;
  const auto& topo = prototype.topology();
  const StateCodec codec(topo, 0,
                         static_cast<std::int64_t>(
                             *prototype.config().diameter_override) +
                             1);

  std::vector<Key> seeds;
  if (spec.box) {
    seeds.reserve(codec.domain_size());
    for (std::uint64_t i = 0; i < codec.domain_size(); ++i) {
      seeds.push_back(codec.domain_key(i));
    }
  } else {
    seeds.push_back(codec.encode(prototype));
  }

  DinersSystem scratch = core::clone(prototype);
  Explorer::Options opts;
  opts.mutation = spec.mutation;
  opts.max_states = spec.max_states;
  opts.jobs = spec.jobs;
  opts.reduce_sym = spec.sym;
  opts.reduce_por = spec.por;
  opts.compact_visited = spec.compact;
  Explorer explorer(scratch, codec, opts);
  const StateGraph healthy = explorer.explore(seeds);
  r.healthy_states = healthy.num_states();
  r.healthy_arcs = healthy.succ.size();
  r.reduction = healthy.reduction;
  if (!healthy.complete) {
    r.verdict = "inconclusive";
    return r;
  }

  const auto orbit_reps = [](const StateGraph& sg, NodeId nn) {
    std::vector<std::uint8_t> rep(nn, 1);
    if (sg.sym != nullptr) {
      for (const auto& orb : sg.sym->node_orbits()) {
        for (std::size_t i = 1; i < orb.size(); ++i) rep[orb[i]] = 0;
      }
    }
    return rep;
  };
  const auto fail = [&](std::optional<sim::ProcessId> victim,
                        const StateGraph* crashed, const Violation& v) {
    r.verdict = v.property;
    r.cex = compose_counterexample(healthy, codec, prototype, victim, crashed,
                                   v);
  };

  const auto inv = label_invariant(healthy, codec, scratch);
  if (const auto v = check_closure(healthy, inv)) {
    fail(std::nullopt, nullptr, *v);
    return r;
  }
  if (const auto v = check_convergence(healthy, inv)) {
    fail(std::nullopt, nullptr, *v);
    return r;
  }
  if (prototype.dead_processes().empty()) {
    const auto prep = orbit_reps(healthy, topo.num_nodes());
    for (NodeId p = 0; p < topo.num_nodes(); ++p) {
      if (prep[p] == 0) continue;
      if (const auto v = check_no_starvation(healthy, codec, p)) {
        fail(std::nullopt, nullptr, *v);
        return r;
      }
    }
  }

  const auto pre_dead = prototype.dead_processes();
  if (!pre_dead.empty()) {
    const auto dist = graph::distances_to_set(
        topo, std::span<const NodeId>(pre_dead));
    const auto far_bad =
        label_far_violation(healthy, codec, scratch, dist, 2);
    if (const auto v = check_far_safety(healthy, far_bad)) {
      fail(std::nullopt, nullptr, *v);
      return r;
    }
    const auto prep = orbit_reps(healthy, topo.num_nodes());
    for (NodeId p = 0; p < topo.num_nodes(); ++p) {
      if (!prototype.alive(p) || dist[p] <= 2 || !prototype.needs(p) ||
          prep[p] == 0) {
        continue;
      }
      if (const auto v = check_no_starvation(healthy, codec, p)) {
        fail(std::nullopt, nullptr, *v);
        return r;
      }
    }
  } else if (spec.victims) {
    const auto vrep = orbit_reps(healthy, topo.num_nodes());
    for (NodeId victim = 0; victim < topo.num_nodes(); ++victim) {
      if (vrep[victim] == 0) continue;
      DinersSystem crashed_scratch = core::clone(prototype);
      crashed_scratch.crash(victim);
      Explorer::Options copts = opts;
      copts.expected_states = healthy.num_states();
      copts.demon_victim = victim;
      Explorer demon(crashed_scratch, codec, copts);
      const StateGraph crashed = demon.explore(healthy.keys);
      r.reduction.raw_candidates += crashed.reduction.raw_candidates;
      r.reduction.canonical_hits += crashed.reduction.canonical_hits;
      if (!crashed.complete) {
        r.verdict = "inconclusive";
        return r;
      }
      const auto dead = crashed_scratch.dead_processes();
      const auto dist =
          graph::distances_to_set(topo, std::span<const NodeId>(dead));
      const auto far_bad =
          label_far_violation(crashed, codec, crashed_scratch, dist, 2);
      if (const auto v = check_far_safety(crashed, far_bad)) {
        fail(victim, &crashed, *v);
        return r;
      }
      const auto crep = orbit_reps(crashed, topo.num_nodes());
      for (NodeId p = 0; p < topo.num_nodes(); ++p) {
        if (!crashed_scratch.alive(p) || dist[p] <= 2 ||
            !crashed_scratch.needs(p) || crep[p] == 0) {
          continue;
        }
        if (const auto v = check_no_starvation(crashed, codec, p)) {
          fail(victim, &crashed, *v);
          return r;
        }
      }
    }
  }
  r.verdict = "verified";
  return r;
}

/// Replay outcome triple for comparing lifted counterexamples across
/// reduction modes.
struct ReplayOutcome {
  bool legal = false;
  bool cycle_closes = false;
  bool invariant_at_end = false;

  friend bool operator==(const ReplayOutcome&, const ReplayOutcome&) =
      default;
};

ReplayOutcome replay(const DinersSystem& prototype, const Counterexample& cex) {
  DinersSystem sys = core::clone(prototype);
  core::restore(sys, cex.start);
  const CexReplayResult res = replay_counterexample(sys, cex);
  return {res.legal, res.cycle_closes, res.invariant_at_end};
}

struct Topo {
  std::string name;
  graph::Graph graph;
};

std::vector<Topo> battery_topologies() {
  std::vector<Topo> out;
  out.push_back({"ring4", graph::make_ring(4)});
  out.push_back({"line4", graph::make_path(4)});
  out.push_back({"star4", graph::make_star(4)});
  return out;
}

// ---- verdict equality across reduction modes ----------------------------

TEST(Reduction, DifferentialVerdictsMatchUnreducedOnSeedTopologies) {
  for (const auto& t : battery_topologies()) {
    for (const auto mutation :
         {GuardMutation::kNone, GuardMutation::kNoFixdepth,
          GuardMutation::kGreedyEnter}) {
      const DinersSystem proto = hungry_system(t.graph);
      RunSpec spec;
      spec.mutation = mutation;
      const RunResult base = run_verify(proto, spec);

      for (const bool por : {false, true}) {
        RunSpec red = spec;
        red.sym = true;
        red.por = por;
        red.compact = true;
        const RunResult r = run_verify(proto, red);
        const std::string ctx = t.name + " mutation=" +
                                std::string(to_string(mutation)) +
                                (por ? " sym,por" : " sym");
        EXPECT_EQ(r.verdict, base.verdict) << ctx;
        EXPECT_LE(r.healthy_states, base.healthy_states) << ctx;
        // Both found a counterexample: the lifted reduced trace must
        // replay exactly like the unreduced one.
        if (base.cex && r.cex) {
          EXPECT_EQ(replay(proto, *r.cex), replay(proto, *base.cex)) << ctx;
        }
      }
      // POR alone (no symmetry): under box seeding every state is a seed,
      // so the cycle proviso blocks all pruning and the graph is
      // bit-identical to the unreduced one. One mutation suffices — the
      // proviso argument is mutation-independent.
      if (mutation == GuardMutation::kNone) {
        RunSpec por_only = spec;
        por_only.por = true;
        const RunResult p = run_verify(proto, por_only);
        EXPECT_EQ(p.verdict, base.verdict) << t.name;
        EXPECT_EQ(p.healthy_states, base.healthy_states) << t.name;
        EXPECT_EQ(p.healthy_arcs, base.healthy_arcs) << t.name;
        EXPECT_EQ(p.reduction.por_arcs_pruned, 0u) << t.name;
      }
    }
  }
}

TEST(Reduction, DifferentialVerdictsMatchOnFigure2) {
  // figure2 is the paper's pinned mid-run scenario: instance-seeded, with
  // a pre-dead process, so the locality analysis runs against the existing
  // dead set.
  for (const auto mutation :
       {GuardMutation::kNone, GuardMutation::kNoFixdepth}) {
    DinersSystem proto = core::make_figure2_system();
    DinersConfig cfg = proto.config();
    if (!cfg.diameter_override) {
      cfg.diameter_override = graph::diameter(proto.topology());
      DinersSystem rebuilt(proto.topology(), cfg);
      core::restore(rebuilt, core::capture(proto));
      proto = std::move(rebuilt);
    }
    RunSpec spec;
    spec.mutation = mutation;
    spec.box = false;
    const RunResult base = run_verify(proto, spec);
    RunSpec red = spec;
    red.sym = red.por = red.compact = true;
    const RunResult r = run_verify(proto, red);
    EXPECT_EQ(r.verdict, base.verdict)
        << "figure2 mutation=" << to_string(mutation);
    EXPECT_LE(r.healthy_states, base.healthy_states);
  }
}

TEST(Reduction, InstanceSeededPorVerdictsMatchAndPrune) {
  // Instance seeding is where POR actually prunes (the visited-probe
  // proviso can pass). Ring-5 crash-free: closure + convergence +
  // progress under none / por / sym,por must agree.
  const DinersSystem proto = hungry_system(graph::make_ring(5));
  RunSpec spec;
  spec.box = false;
  spec.victims = false;
  const RunResult base = run_verify(proto, spec);
  EXPECT_EQ(base.verdict, "verified");

  RunSpec por = spec;
  por.por = true;
  const RunResult rp = run_verify(proto, por);
  EXPECT_EQ(rp.verdict, base.verdict);
  EXPECT_LE(rp.healthy_states, base.healthy_states);
  EXPECT_LE(rp.healthy_arcs, base.healthy_arcs);
  EXPECT_GT(rp.reduction.por_ample_states, 0u);
  EXPECT_GT(rp.reduction.por_arcs_pruned, 0u);

  RunSpec both = spec;
  both.sym = both.por = both.compact = true;
  const RunResult rb = run_verify(proto, both);
  EXPECT_EQ(rb.verdict, base.verdict);
  EXPECT_LT(rb.healthy_states, base.healthy_states);
}

// ---- random symmetric labels ---------------------------------------------

std::string kind_of(const std::optional<Violation>& v) {
  if (!v) return "ok";
  return v->kind == Violation::Kind::kCycle ? "cycle" : "stuck";
}

TEST(Reduction, RandomSymmetricLabelsGiveTheUnreducedVerdict) {
  // The group-product search and its quotient-SCC prefilter must decide any
  // symmetric bad set exactly as the unreduced search does, not only the
  // labels the protocol's own properties produce. A label bit is drawn per
  // quotient state of a box-seeded sym-only graph and lifted to every orbit
  // member of the unreduced graph. check_far_safety reads the label as the
  // bad set (sparse: fragmented SCCs, some fair and some not) and
  // check_convergence as I (a dense bad set). Every topology must yield at
  // least one cycle and at least one clean verdict, so that a prune that
  // drops real cycles or keeps spurious ones cannot pass by never meeting
  // either.
  std::vector<Topo> topologies = battery_topologies();
  topologies.push_back({"k3", graph::make_complete(3)});
  for (const auto& t : topologies) {
    const DinersSystem proto = hungry_system(t.graph);
    const StateCodec codec(
        proto.topology(), 0,
        static_cast<std::int64_t>(*proto.config().diameter_override) + 1);
    std::vector<Key> seeds;
    seeds.reserve(codec.domain_size());
    for (std::uint64_t i = 0; i < codec.domain_size(); ++i) {
      seeds.push_back(codec.domain_key(i));
    }
    const auto explore = [&](bool sym) {
      DinersSystem scratch = core::clone(proto);
      Explorer::Options opts;
      opts.reduce_sym = sym;
      Explorer explorer(scratch, codec, opts);
      return explorer.explore(seeds);
    };
    const StateGraph reduced = explore(true);
    const StateGraph full = explore(false);
    ASSERT_TRUE(reduced.complete && full.complete) << t.name;
    ASSERT_NE(reduced.sym, nullptr) << t.name;
    ASSERT_EQ(full.sym, nullptr) << t.name;
    KeyIndex reduced_index(reduced.num_states());
    for (std::uint32_t i = 0; i < reduced.num_states(); ++i) {
      reduced_index.insert(reduced.keys[i], i);
    }
    std::vector<std::uint32_t> rep_of(full.num_states());
    for (std::uint32_t i = 0; i < full.num_states(); ++i) {
      rep_of[i] = reduced_index.find(reduced.sym->canonical(full.keys[i]));
      ASSERT_NE(rep_of[i], KeyIndex::kAbsent) << t.name << " state " << i;
    }

    std::size_t cycles = 0, clean = 0;
    for (const double density : {0.05, 0.1, 0.2, 0.3}) {
      for (const std::uint64_t seed : {1u, 2u}) {
        util::Xoshiro256 rng(seed);
        std::vector<std::uint8_t> label_r(reduced.num_states());
        for (auto& b : label_r) b = rng.chance(density) ? 1 : 0;
        std::vector<std::uint8_t> label_u(full.num_states());
        for (std::uint32_t i = 0; i < full.num_states(); ++i) {
          label_u[i] = label_r[rep_of[i]];
        }
        const std::string ctx = t.name + " density " +
                                std::to_string(density) + " seed " +
                                std::to_string(seed);
        for (const auto& [r, u] :
             {std::pair{kind_of(check_convergence(reduced, label_r)),
                        kind_of(check_convergence(full, label_u))},
              std::pair{kind_of(check_far_safety(reduced, label_r)),
                        kind_of(check_far_safety(full, label_u))}}) {
          EXPECT_EQ(r, u) << ctx;
          cycles += u == "cycle" ? 1 : 0;
          clean += u == "ok" ? 1 : 0;
        }
      }
    }
    EXPECT_GT(cycles, 0u) << t.name;
    EXPECT_GT(clean, 0u) << t.name;
  }
}

// ---- orbit-factor state counts ------------------------------------------

TEST(Reduction, RingStateCountsShrinkByTheDihedralFactor) {
  // |Aut(ring-n)| = 2n on uniform labels; the canonical count is at least
  // unreduced/2n (orbits of symmetric states are smaller than 2n) and, on
  // these instances, within 10% of that bound. Ring-4 over the full
  // arbitrary-start box; ring-5 instance-seeded (its box is ~60M states).
  for (NodeId n = 4; n <= 5; ++n) {
    const DinersSystem proto = hungry_system(graph::make_ring(n));
    RunSpec spec;
    spec.victims = false;
    spec.box = n == 4;
    const RunResult base = run_verify(proto, spec);
    RunSpec red = spec;
    red.sym = true;
    red.compact = true;
    const RunResult r = run_verify(proto, red);
    EXPECT_EQ(r.verdict, base.verdict);
    const std::uint64_t factor = 2u * n;
    EXPECT_GE(r.healthy_states * factor, base.healthy_states) << "ring " << n;
    EXPECT_LE(static_cast<double>(r.healthy_states) * factor,
              static_cast<double>(base.healthy_states) * 1.10)
        << "ring " << n;
    EXPECT_GT(r.reduction.canonical_hits, 0u);
  }
}

// ---- canonical-form invariants of the reduced graph ---------------------

TEST(Reduction, ReducedGraphStoresOnlyCanonicalKeys) {
  const DinersSystem proto = hungry_system(graph::make_ring(4));
  const StateCodec codec(proto.topology(), 0, 4);
  DinersSystem scratch = core::clone(proto);
  Explorer::Options opts;
  opts.reduce_sym = true;
  opts.compact_visited = true;
  Explorer explorer(scratch, codec, opts);
  const Key seed = codec.encode(proto);
  const StateGraph g = explorer.explore(std::span<const Key>(&seed, 1));
  ASSERT_TRUE(g.complete);
  ASSERT_NE(g.sym, nullptr);
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    SymmetryGroup::ElemId wit = 0xFFFF;
    ASSERT_EQ(g.sym->canonical(g.keys[i], &wit), g.keys[i]) << "state " << i;
    ASSERT_EQ(wit, SymmetryGroup::kIdentity);
  }
  // Arc targets are canonical state ids and witnesses are valid elements.
  for (const auto& arc : g.succ) {
    ASSERT_LT(arc.to, g.num_states());
    ASSERT_LT(arc.witness, g.sym->size());
  }
}

TEST(Reduction, ReducedGraphIsJobsInvariant) {
  // The jobs-invariance contract survives both reductions: identical keys,
  // parents, witnesses, arcs, and stats for any worker count.
  const DinersSystem proto = hungry_system(graph::make_ring(5));
  const StateCodec codec(proto.topology(), 0, 5);
  const Key seed = codec.encode(proto);
  StateGraph graphs[2];
  for (int i = 0; i < 2; ++i) {
    DinersSystem scratch = core::clone(proto);
    Explorer::Options opts;
    opts.jobs = i == 0 ? 1 : 3;
    opts.reduce_sym = true;
    opts.reduce_por = true;
    opts.compact_visited = i == 1;  // the visited layout is internal too
    Explorer explorer(scratch, codec, opts);
    graphs[i] = explorer.explore(std::span<const Key>(&seed, 1));
  }
  const StateGraph& a = graphs[0];
  const StateGraph& b = graphs[1];
  ASSERT_EQ(a.num_states(), b.num_states());
  ASSERT_EQ(a.succ.size(), b.succ.size());
  for (std::uint32_t i = 0; i < a.num_states(); ++i) {
    ASSERT_EQ(a.keys[i], b.keys[i]) << "state " << i;
    ASSERT_EQ(a.parent[i], b.parent[i]) << "state " << i;
    ASSERT_EQ(a.parent_witness[i], b.parent_witness[i]) << "state " << i;
  }
  ASSERT_EQ(a.succ_begin, b.succ_begin);
  for (std::size_t i = 0; i < a.succ.size(); ++i) {
    ASSERT_EQ(a.succ[i].to, b.succ[i].to) << "arc " << i;
    ASSERT_EQ(a.succ[i].move, b.succ[i].move) << "arc " << i;
    ASSERT_EQ(a.succ[i].witness, b.succ[i].witness) << "arc " << i;
  }
  EXPECT_EQ(a.reduction.raw_candidates, b.reduction.raw_candidates);
  EXPECT_EQ(a.reduction.canonical_hits, b.reduction.canonical_hits);
  EXPECT_EQ(a.reduction.por_ample_states, b.reduction.por_ample_states);
  EXPECT_EQ(a.reduction.por_arcs_pruned, b.reduction.por_arcs_pruned);
}

// ---- lifted counterexamples replay concretely ---------------------------

TEST(Reduction, LiftedConvergenceCycleReplaysGreen) {
  // The no-fixdepth mutant's convergence cycle, found in the quotient
  // graph, must lift to a concrete trace that replays legally, closes its
  // cycle, and ends outside I — exactly like the unreduced trace.
  const DinersSystem proto = hungry_system(graph::make_ring(4));
  RunSpec spec;
  spec.mutation = GuardMutation::kNoFixdepth;
  const RunResult base = run_verify(proto, spec);
  RunSpec red = spec;
  red.sym = red.compact = true;
  const RunResult r = run_verify(proto, red);
  ASSERT_EQ(base.verdict, "convergence");
  ASSERT_EQ(r.verdict, "convergence");
  ASSERT_TRUE(base.cex && r.cex);
  const ReplayOutcome expected{true, true, false};
  EXPECT_EQ(replay(proto, *base.cex), expected);
  EXPECT_EQ(replay(proto, *r.cex), expected);
}

TEST(Reduction, LiftedCrashedStemsReplayLegally) {
  // The hard junction: a violation in the demonic-victim quotient graph
  // must lift through *two* symmetry groups — the healthy stabilizer for
  // the pre-crash stem and the crashed stabilizer for the post-crash stem.
  // No natural violation exists on the verified protocol, so drive
  // compose_counterexample directly with synthetic stuck-style violations
  // at sampled crashed states and check every lifted trace replays with
  // all guards green.
  const DinersSystem proto = hungry_system(graph::make_ring(4));
  const StateCodec codec(proto.topology(), 0, 4);
  std::vector<Key> seeds;
  seeds.reserve(codec.domain_size());
  for (std::uint64_t i = 0; i < codec.domain_size(); ++i) {
    seeds.push_back(codec.domain_key(i));
  }
  DinersSystem scratch = core::clone(proto);
  Explorer::Options opts;
  opts.reduce_sym = true;
  opts.compact_visited = true;
  Explorer explorer(scratch, codec, opts);
  const StateGraph healthy = explorer.explore(seeds);
  ASSERT_TRUE(healthy.complete);
  ASSERT_NE(healthy.sym, nullptr);

  const NodeId victim = 0;
  DinersSystem crashed_scratch = core::clone(proto);
  crashed_scratch.crash(victim);
  Explorer::Options copts = opts;
  copts.demon_victim = victim;
  copts.expected_states = healthy.num_states();
  Explorer demon(crashed_scratch, codec, copts);
  const StateGraph crashed = demon.explore(healthy.keys);
  ASSERT_TRUE(crashed.complete);

  const std::uint32_t stride = crashed.num_states() / 97 + 1;
  std::size_t checked = 0;
  for (std::uint32_t s = 0; s < crashed.num_states(); s += stride) {
    Violation v;
    v.kind = Violation::Kind::kStuck;
    v.property = "synthetic";
    v.detail = "lift probe";
    v.state = s;
    const Counterexample cex =
        compose_counterexample(healthy, codec, proto, victim, &crashed, v);
    DinersSystem sys = core::clone(proto);
    core::restore(sys, cex.start);
    const CexReplayResult res = replay_counterexample(sys, cex);
    ASSERT_TRUE(res.legal) << "state " << s << ": " << res.reason
                           << " at event " << res.failed_index;
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

// ---- --max-states cap semantics under reduction -------------------------

TEST(Reduction, CapCountsCanonicalStatesAndTruncationIsRejected) {
  const DinersSystem proto = hungry_system(graph::make_ring(4));
  const StateCodec codec(proto.topology(), 0, 4);
  std::vector<Key> seeds;
  for (std::uint64_t i = 0; i < codec.domain_size(); ++i) {
    seeds.push_back(codec.domain_key(i));
  }

  // Unreduced, the box has 810000 reachable states — far past this cap.
  // Reduced, the canonical count fits, so exploration completes: the cap
  // counts canonical states, not raw orbit members.
  constexpr std::uint32_t kCap = 120'000;
  {
    DinersSystem scratch = core::clone(proto);
    Explorer::Options opts;
    opts.max_states = kCap;
    opts.reduce_sym = true;
    opts.compact_visited = true;
    Explorer explorer(scratch, codec, opts);
    const StateGraph g = explorer.explore(seeds);
    EXPECT_TRUE(g.complete);
    EXPECT_LE(g.num_states(), kCap);
    EXPECT_GT(g.num_states(), 100'000u);
  }

  // A cap below the canonical count truncates the quotient graph, and
  // every oracle refuses to issue a verdict on it.
  {
    DinersSystem scratch = core::clone(proto);
    Explorer::Options opts;
    opts.max_states = 50'000;
    opts.reduce_sym = true;
    opts.compact_visited = true;
    Explorer explorer(scratch, codec, opts);
    const StateGraph g = explorer.explore(seeds);
    ASSERT_FALSE(g.complete);
    std::vector<std::uint8_t> inv(g.num_states(), 1);
    EXPECT_THROW((void)check_closure(g, inv), std::invalid_argument);
    EXPECT_THROW((void)check_convergence(g, inv), std::invalid_argument);
    EXPECT_THROW((void)check_no_starvation(g, codec, 0),
                 std::invalid_argument);
    EXPECT_THROW((void)check_far_safety(g, inv), std::invalid_argument);
  }
}

}  // namespace
}  // namespace diners::verify
