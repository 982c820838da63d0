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
// equality here checks. Every verdict comes from verify::check_exhaustive,
// the pipeline diners_mc --exhaustive runs, which also pins the threshold
// erratum's boundary on line-4 and star-4 (EXPERIMENTS.md V2).
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/figure2.hpp"
#include "core/serialize.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "verify/counterexample.hpp"
#include "verify/exhaustive.hpp"
#include "verify/explorer.hpp"
#include "verify/key_index.hpp"
#include "verify/mutation.hpp"
#include "verify/properties.hpp"

namespace diners::verify {
namespace {

using core::DinersConfig;
using core::DinersSystem;
using graph::NodeId;

DinersSystem hungry_system(graph::Graph g,
                           std::optional<std::uint32_t> threshold = {}) {
  DinersConfig cfg;
  // By default the sound threshold.
  cfg.diameter_override = threshold.value_or(g.num_nodes() - 1);
  DinersSystem s(std::move(g), cfg);
  for (NodeId p = 0; p < s.topology().num_nodes(); ++p) s.set_needs(p, true);
  return s;
}

/// The battery's baseline check: box seeds, every property, every demonic
/// victim, unreduced, under a cap no instance here reaches.
ExhaustiveOptions battery_options(
    GuardMutation mutation = GuardMutation::kNone) {
  ExhaustiveOptions o;
  o.explore.mutation = mutation;
  o.explore.max_states = 8'000'000;
  return o;
}

/// Runs the exhaustive check (the pipeline diners_mc --exhaustive runs)
/// over the depth box 0..D+1, D the prototype's threshold.
ExhaustiveResult check(const DinersSystem& prototype,
                       const ExhaustiveOptions& options) {
  const StateCodec codec(prototype.topology(), 0,
                         static_cast<std::int64_t>(
                             *prototype.config().diameter_override) +
                             1);
  std::ostringstream log;
  return check_exhaustive(prototype, codec, options, log);
}

/// "verified", "inconclusive", or the violated property.
std::string verdict(const ExhaustiveResult& r) {
  if (r.cex) return r.cex->property;
  return r.verdict == ExhaustiveResult::Verdict::kVerified ? "verified"
                                                           : "inconclusive";
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
      const ExhaustiveOptions spec = battery_options(mutation);
      const ExhaustiveResult base = check(proto, spec);

      for (const bool por : {false, true}) {
        ExhaustiveOptions red = spec;
        red.explore.reduce_sym = true;
        red.explore.reduce_por = por;
        red.explore.compact_visited = true;
        const ExhaustiveResult r = check(proto, red);
        const std::string ctx = t.name + " mutation=" +
                                std::string(to_string(mutation)) +
                                (por ? " sym,por" : " sym");
        EXPECT_EQ(verdict(r), verdict(base)) << ctx;
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
        ExhaustiveOptions por_only = spec;
        por_only.explore.reduce_por = true;
        const ExhaustiveResult p = check(proto, por_only);
        EXPECT_EQ(verdict(p), verdict(base)) << t.name;
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
    ExhaustiveOptions spec = battery_options(mutation);
    spec.box_seeds = false;
    spec.victims = false;
    const ExhaustiveResult base = check(proto, spec);
    ExhaustiveOptions red = spec;
    red.explore.reduce_sym = red.explore.reduce_por = true;
    red.explore.compact_visited = true;
    const ExhaustiveResult r = check(proto, red);
    EXPECT_EQ(verdict(r), verdict(base))
        << "figure2 mutation=" << to_string(mutation);
    EXPECT_LE(r.healthy_states, base.healthy_states);
  }
}

TEST(Reduction, InstanceSeededPorVerdictsMatchAndPrune) {
  // Instance seeding is where POR actually prunes (the visited-probe
  // proviso can pass). Ring-5 crash-free: closure + convergence +
  // progress under none / por / sym,por must agree.
  const DinersSystem proto = hungry_system(graph::make_ring(5));
  ExhaustiveOptions spec = battery_options();
  spec.box_seeds = false;
  spec.victims = false;
  const ExhaustiveResult base = check(proto, spec);
  EXPECT_EQ(verdict(base), "verified");

  ExhaustiveOptions por = spec;
  por.explore.reduce_por = true;
  const ExhaustiveResult rp = check(proto, por);
  EXPECT_EQ(verdict(rp), verdict(base));
  EXPECT_LE(rp.healthy_states, base.healthy_states);
  EXPECT_LE(rp.healthy_arcs, base.healthy_arcs);
  EXPECT_GT(rp.reduction.por_ample_states, 0u);
  EXPECT_GT(rp.reduction.por_arcs_pruned, 0u);

  ExhaustiveOptions both = spec;
  both.explore.reduce_sym = both.explore.reduce_por = true;
  both.explore.compact_visited = true;
  const ExhaustiveResult rb = check(proto, both);
  EXPECT_EQ(verdict(rb), verdict(base));
  EXPECT_LT(rb.healthy_states, base.healthy_states);
}

// ---- random symmetric labels ---------------------------------------------

std::string kind_of(const std::optional<Violation>& v) {
  if (!v) return "ok";
  return v->kind == Violation::Kind::kCycle ? "cycle" : "stuck";
}

TEST(Reduction, RandomSymmetricLabelsGiveTheUnreducedVerdict) {
  // The coset-frame fair-cycle search must decide any symmetric bad set
  // exactly as the unreduced search does, not only the labels the
  // protocol's own properties produce. A label bit is drawn per quotient
  // state of a box-seeded sym-only graph and lifted to every orbit
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
    const std::vector<Key> seeds = codec.domain_keys();
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
    ExhaustiveOptions spec = battery_options();
    spec.victims = false;
    spec.box_seeds = n == 4;
    const ExhaustiveResult base = check(proto, spec);
    ExhaustiveOptions red = spec;
    red.explore.reduce_sym = true;
    red.explore.compact_visited = true;
    const ExhaustiveResult r = check(proto, red);
    EXPECT_EQ(verdict(r), verdict(base));
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
  const ExhaustiveOptions spec = battery_options(GuardMutation::kNoFixdepth);
  const ExhaustiveResult base = check(proto, spec);
  ExhaustiveOptions red = spec;
  red.explore.reduce_sym = red.explore.compact_visited = true;
  const ExhaustiveResult r = check(proto, red);
  ASSERT_EQ(verdict(base), "convergence");
  ASSERT_EQ(verdict(r), "convergence");
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
  const std::vector<Key> seeds = codec.domain_keys();
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

// ---- the threshold erratum's boundary ------------------------------------

TEST(ExhaustiveCheck, ClosureBreaksBelowTheLongestPathAndAllHoldsAtIt) {
  // From every state of the depth box, under sym,por, the algorithm breaks
  // closure with the cycle threshold one below L(G), the longest simple
  // path, and verifies every property at L(G). On line-4 (D = L = 3) and
  // star-4 (D = L = 2) the paper's D = diameter is L(G).
  struct Case {
    const char* name;
    graph::Graph g;
    std::uint32_t longest_path;
    std::uint64_t states_below, states_at;
  };
  const Case cases[] = {
      {"line-4", graph::make_path(4), 3, 82'944, 202'500},
      {"star-4", graph::make_star(4), 2, 10'260, 31'200},
  };
  ExhaustiveOptions options = battery_options();
  options.explore.reduce_sym = options.explore.reduce_por = true;
  options.explore.compact_visited = true;
  options.explore.jobs = 2;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ExhaustiveResult below =
        check(hungry_system(c.g, c.longest_path - 1), options);
    EXPECT_EQ(below.verdict, ExhaustiveResult::Verdict::kCounterexample);
    EXPECT_EQ(below.healthy_states, c.states_below);
    ASSERT_TRUE(below.cex.has_value());
    EXPECT_EQ(below.cex->property, "closure");

    const ExhaustiveResult at =
        check(hungry_system(c.g, c.longest_path), options);
    EXPECT_EQ(at.verdict, ExhaustiveResult::Verdict::kVerified);
    EXPECT_FALSE(at.cex.has_value());
    EXPECT_EQ(at.healthy_states, c.states_at);
  }
}

// ---- --max-states cap semantics under reduction -------------------------

TEST(Reduction, CapCountsCanonicalStatesAndTruncationIsRejected) {
  const DinersSystem proto = hungry_system(graph::make_ring(4));
  const StateCodec codec(proto.topology(), 0, 4);
  const std::vector<Key> seeds = codec.domain_keys();

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
