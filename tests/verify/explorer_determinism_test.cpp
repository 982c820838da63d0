// The parallel explorer's determinism contract: the StateGraph is
// bit-identical for every Options::jobs value — same keys in the same
// discovery order, same BFS tree, same enabled masks and CSR arcs, same
// layer count, same truncation point. The canonical merge order (ascending
// parent state index, then ascending move) is what a serial BFS produces,
// so jobs = 1 is the reference and every other jobs value must reproduce
// it exactly.
//
// Comparing two runs of one build cannot catch a change in admission order
// itself, so box-seeded healthy and demonic graphs are also pinned to
// golden hashes: an optimization of the explorer or of canonicalization
// must leave every explored graph bit-identical.
#include "verify/explorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/figure2.hpp"
#include "core/serialize.hpp"
#include "graph/automorphisms.hpp"
#include "graph/generators.hpp"

namespace diners::verify {
namespace {

using core::DinersSystem;
using P = DinersSystem::ProcessId;

void expect_graphs_identical(const StateGraph& a, const StateGraph& b) {
  ASSERT_EQ(a.num_states(), b.num_states());
  EXPECT_EQ(a.num_seeds, b.num_seeds);
  EXPECT_EQ(a.num_expanded, b.num_expanded);
  EXPECT_EQ(a.layers, b.layers);
  EXPECT_EQ(a.complete, b.complete);
  for (std::uint32_t i = 0; i < a.num_states(); ++i) {
    ASSERT_EQ(a.keys[i].lo, b.keys[i].lo) << "state " << i;
    ASSERT_EQ(a.keys[i].hi, b.keys[i].hi) << "state " << i;
    ASSERT_EQ(a.parent[i], b.parent[i]) << "state " << i;
    ASSERT_EQ(a.parent_move[i], b.parent_move[i]) << "state " << i;
  }
  ASSERT_EQ(a.enabled, b.enabled);
  ASSERT_EQ(a.succ_begin, b.succ_begin);
  ASSERT_EQ(a.parent_witness, b.parent_witness);
  ASSERT_EQ(a.succ.size(), b.succ.size());
  for (std::size_t i = 0; i < a.succ.size(); ++i) {
    ASSERT_EQ(a.succ[i].to, b.succ[i].to) << "arc " << i;
    ASSERT_EQ(a.succ[i].move, b.succ[i].move) << "arc " << i;
    ASSERT_EQ(a.succ[i].witness, b.succ[i].witness) << "arc " << i;
  }
}

void expect_stats(const StateGraph::ReductionStats& got,
                  const StateGraph::ReductionStats& want) {
  EXPECT_EQ(got.raw_candidates, want.raw_candidates);
  EXPECT_EQ(got.canonical_hits, want.canonical_hits);
  EXPECT_EQ(got.por_ample_states, want.por_ample_states);
  EXPECT_EQ(got.por_arcs_pruned, want.por_arcs_pruned);
}

/// Explores `seeds` at jobs 1, 4 and 8 and requires all three graphs to be
/// bit-identical. Returns the jobs = 1 reference graph.
StateGraph explore_all_jobs(DinersSystem& scratch, const StateCodec& codec,
                            Explorer::Options base,
                            std::span<const Key> seeds) {
  std::optional<StateGraph> ref;
  for (const unsigned jobs : {1u, 4u, 8u}) {
    Explorer::Options opts = base;
    opts.jobs = jobs;
    Explorer explorer(scratch, codec, opts);
    StateGraph g = explorer.explore(seeds);
    if (!ref) {
      ref = std::move(g);
      continue;
    }
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    expect_graphs_identical(*ref, g);
  }
  return std::move(*ref);
}

constexpr GuardMutation kAllMutations[] = {
    GuardMutation::kNone, GuardMutation::kNoFixdepth,
    GuardMutation::kGreedyEnter};

TEST(ExplorerDeterminism, SmallTopologiesAllMutationsBothModes) {
  const struct {
    const char* name;
    graph::Graph topo;
  } cases[] = {
      {"ring4", graph::make_ring(4)},
      {"line4", graph::make_path(4)},
      {"star4", graph::make_star(4)},
  };
  for (const auto& c : cases) {
    for (const auto mutation : kAllMutations) {
      for (const bool demonic : {false, true}) {
        SCOPED_TRACE(std::string(c.name) +
                     " mutation=" + std::to_string(static_cast<int>(mutation)) +
                     " demonic=" + std::to_string(demonic));
        DinersSystem scratch{graph::Graph(c.topo)};
        for (P p = 0; p < scratch.topology().num_nodes(); ++p) {
          scratch.set_needs(p, true);
        }
        if (demonic) scratch.crash(1);
        const StateCodec codec(scratch.topology(), 0, 4);
        Explorer::Options opts;
        opts.mutation = mutation;
        if (demonic) opts.demon_victim = 1;
        const Key seed = codec.encode(scratch);
        const StateGraph g = explore_all_jobs(
            scratch, codec, opts, std::span<const Key>(&seed, 1));
        ASSERT_TRUE(g.complete);
        EXPECT_GT(g.num_states(), 50u);
      }
    }
  }
}

TEST(ExplorerDeterminism, BoxSeededRing4) {
  // Box seeding stresses the seed-admission path: every domain key is a
  // seed, layer 0 is the whole graph.
  DinersSystem scratch(graph::make_ring(4));
  for (P p = 0; p < 4; ++p) scratch.set_needs(p, true);
  const StateCodec codec(scratch.topology(), 0, 1);
  const std::vector<Key> seeds = codec.domain_keys();
  const StateGraph g =
      explore_all_jobs(scratch, codec, Explorer::Options{}, seeds);
  ASSERT_TRUE(g.complete);
  EXPECT_EQ(g.num_seeds, codec.domain_size());
  EXPECT_EQ(g.layers, 0u);
}

TEST(ExplorerDeterminism, Figure2AllMutationsBothModesTruncated) {
  // The paper's Figure 2 instance — large enough for several chunks per
  // layer — capped at max_states, which also pins down that the *exact*
  // truncation point (which candidate is dropped, in canonical merge
  // order) is jobs-invariant.
  for (const auto mutation : kAllMutations) {
    for (const bool demonic : {false, true}) {
      SCOPED_TRACE("mutation=" + std::to_string(static_cast<int>(mutation)) +
                   " demonic=" + std::to_string(demonic));
      DinersSystem scratch = core::make_figure2_system();
      if (demonic) scratch.crash(3);
      const StateCodec codec(
          scratch.topology(), 0,
          static_cast<std::int64_t>(scratch.topology().num_nodes()));
      Explorer::Options opts;
      opts.mutation = mutation;
      opts.max_states = 150'000;
      if (demonic) opts.demon_victim = 3;
      const Key seed = codec.encode(scratch);
      const StateGraph g = explore_all_jobs(
          scratch, codec, opts, std::span<const Key>(&seed, 1));
      // Some mutated/crashed combinations confine the reachable set below
      // the cap; whenever the cap fires, it is exact.
      if (!g.complete) {
        EXPECT_EQ(g.num_states(), 150'000u);
      }
      if (mutation == GuardMutation::kNone && !demonic) {
        EXPECT_FALSE(g.complete);
      }
    }
  }
}

/// FNV-1a over everything an exploration decides, field by field (struct
/// padding never enters): keys, BFS tree with witnesses, enabled masks, CSR
/// arcs and the layer count. Vector lengths are mixed in too.
std::uint64_t graph_hash(const StateGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_all = [&mix](const auto& values, int bytes) {
    mix(values.size(), 8);
    for (const auto v : values) mix(v, bytes);
  };
  mix(g.keys.size(), 8);
  for (const Key& k : g.keys) {
    mix(k.lo, 8);
    mix(k.hi, 8);
  }
  mix_all(g.parent, 4);
  mix_all(g.parent_move, 2);
  mix_all(g.parent_witness, 2);
  mix_all(g.enabled, 8);
  mix_all(g.succ_begin, 4);
  mix(g.succ.size(), 8);
  for (const StateGraph::Arc& a : g.succ) {
    mix(a.to, 4);
    mix(a.move, 2);
    mix(a.witness, 2);
  }
  mix(g.layers, 4);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(ExplorerDeterminism, BoxSeededGraphsMatchGoldenHashes) {
  // Every key of the depth box [0, 2] is a seed; threshold D = 1, so the
  // cycle-breaking exit (depth > D) fires inside the box. The demonic graph
  // crashes victim 0 and is seeded with the healthy graph's keys, as
  // diners_mc's locality check does.
  const struct {
    const char* name;
    graph::Graph topo;
    bool reduced;  ///< reduce_sym + reduce_por + compact_visited
    std::uint64_t healthy;
    std::uint64_t demonic;
    StateGraph::ReductionStats healthy_stats;
    StateGraph::ReductionStats demonic_stats;
  } cases[] = {
      {"K3", graph::make_complete(3), false, 0x5ee4a8d633682542,
       0x5b481247ba939b72, {}, {}},
      {"star4", graph::make_star(4), false, 0x3609f8d4570ee531,
       0x3ec6ff29b1047ae1, {}, {}},
      {"line4", graph::make_path(4), false, 0x045a822f25e4528f,
       0x0afb2612f2541fb2, {}, {}},
      {"ring4", graph::make_ring(4), true, 0xcbb5d5a7e7b0cada,
       0x92695cdc33fb9d2b,
       {188707, 119910, 0, 0}, {268713, 50025, 0, 0}},
      {"K3", graph::make_complete(3), true, 0xa166e99477359b09,
       0xee0c8f9b3306e7af,
       {10273, 6273, 0, 0}, {12615, 1620, 0, 0}},
      {"star4", graph::make_star(4), true, 0xcee272c191433f10,
       0xa83fa4d0f698e666,
       {111486, 61440, 0, 0}, {98805, 52992, 0, 0}},
      {"line4", graph::make_path(4), true, 0x425c921bda2ee673,
       0x1f424fd70aef753e,
       {204606, 40824, 0, 0}, {}},
  };
  for (const auto& c : cases) {
    core::DinersConfig config;
    config.diameter_override = 1;
    DinersSystem prototype(graph::Graph(c.topo), config);
    for (P p = 0; p < prototype.topology().num_nodes(); ++p) {
      prototype.set_needs(p, true);
    }
    const StateCodec codec(prototype.topology(), 0, 2);
    const std::vector<Key> seeds = codec.domain_keys();
    for (const unsigned jobs : {1u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + (c.reduced ? " sym,por" : "") +
                   " jobs=" + std::to_string(jobs));
      Explorer::Options opts;
      opts.jobs = jobs;
      opts.reduce_sym = c.reduced;
      opts.reduce_por = c.reduced;
      opts.compact_visited = c.reduced;
      DinersSystem scratch = core::clone(prototype);
      const StateGraph healthy = Explorer(scratch, codec, opts).explore(seeds);
      ASSERT_TRUE(healthy.complete);
      EXPECT_EQ(hex(graph_hash(healthy)), hex(c.healthy));
      expect_stats(healthy.reduction, c.healthy_stats);

      DinersSystem crashed = core::clone(prototype);
      crashed.crash(0);
      Explorer::Options copts = opts;
      copts.demon_victim = 0;
      copts.expected_states = healthy.num_states();
      const StateGraph demonic =
          Explorer(crashed, codec, copts).explore(healthy.keys);
      ASSERT_TRUE(demonic.complete);
      EXPECT_EQ(hex(graph_hash(demonic)), hex(c.demonic));
      expect_stats(demonic.reduction, c.demonic_stats);
    }
  }
}

TEST(ExplorerDeterminism, BoxAdmissionMatchesGeneralPath) {
  // explore() admits a whole depth box (every box key once, ascending) by a
  // lex-leader scan; any other seed list goes through canonicalize, visited
  // probe and merge seed by seed. A trailing duplicate of the last key, or
  // two swapped keys, sends the same box down that general path, which must
  // admit the same graph. The duplicate adds one raw candidate, and one
  // canonical hit unless it is a leader.
  const struct {
    const char* name;
    graph::Graph topo;
    std::int64_t threshold;
    std::int64_t depth_max;
  } cases[] = {
      {"ring4", graph::make_ring(4), 1, 2},
      {"K3", graph::make_complete(3), 1, 2},
      {"star4", graph::make_star(4), 1, 2},
      {"line4", graph::make_path(4), 1, 2},
      {"K4 sound", graph::make_complete(4), 3, 4},
  };
  const auto sorted_keys = [](std::vector<Key> keys) {
    std::sort(keys.begin(), keys.end(), key_less);
    return keys;
  };
  for (const auto& c : cases) {
    core::DinersConfig config;
    config.diameter_override = c.threshold;
    DinersSystem prototype(graph::Graph(c.topo), config);
    for (P p = 0; p < prototype.topology().num_nodes(); ++p) {
      prototype.set_needs(p, true);
    }
    const StateCodec codec(prototype.topology(), 0, c.depth_max);
    const std::vector<Key> box = codec.domain_keys();
    std::vector<Key> dup = box;
    dup.push_back(box.back());
    for (const unsigned jobs : {1u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + " jobs=" + std::to_string(jobs));
      const auto explore = [&](const std::vector<Key>& seeds,
                               std::uint32_t max_states) {
        Explorer::Options opts;
        opts.jobs = jobs;
        opts.reduce_sym = true;
        opts.reduce_por = true;
        opts.compact_visited = true;
        opts.max_states = max_states;
        DinersSystem scratch = core::clone(prototype);
        return Explorer(scratch, codec, opts).explore(seeds);
      };
      const std::uint32_t uncapped = Explorer::Options{}.max_states;
      const StateGraph g = explore(box, uncapped);
      ASSERT_TRUE(g.complete);
      ASSERT_NE(g.sym, nullptr);
      const std::uint64_t dup_hit = g.sym->is_canonical(box.back()) ? 0 : 1;
      {
        const StateGraph general = explore(dup, uncapped);
        expect_graphs_identical(g, general);
        ASSERT_NE(general.sym, nullptr);
        EXPECT_EQ(general.sym->size(), g.sym->size());
        EXPECT_EQ(general.reduction.raw_candidates,
                  g.reduction.raw_candidates + 1);
        EXPECT_EQ(general.reduction.canonical_hits,
                  g.reduction.canonical_hits + dup_hit);
        EXPECT_EQ(general.reduction.por_ample_states,
                  g.reduction.por_ample_states);
        EXPECT_EQ(general.reduction.por_arcs_pruned,
                  g.reduction.por_arcs_pruned);
      }
      {
        // Truncated among the seeds. The general path stops after the seed
        // chunk it truncates in, so it reaches the trailing duplicate only
        // when that chunk is the last one.
        const std::uint32_t cap = g.num_seeds / 2;
        const StateGraph cut = explore(box, cap);
        const StateGraph general = explore(dup, cap);
        ASSERT_FALSE(cut.complete);
        EXPECT_EQ(cut.num_states(), cap);
        EXPECT_EQ(cut.num_seeds, cap);
        expect_graphs_identical(cut, general);
        const std::uint64_t reached =
            general.reduction.raw_candidates - cut.reduction.raw_candidates;
        EXPECT_LE(reached, 1u);
        EXPECT_GE(cut.reduction.raw_candidates, cap);
        EXPECT_EQ(general.reduction.canonical_hits,
                  cut.reduction.canonical_hits + reached * dup_hit);
      }
      {
        std::vector<Key> swapped = box;
        std::swap(swapped[0], swapped[1]);
        const StateGraph general = explore(swapped, uncapped);
        ASSERT_TRUE(general.complete);
        EXPECT_EQ(sorted_keys(general.keys), sorted_keys(g.keys));
      }
    }
  }
}

TEST(ExplorerDeterminism, BoxSizedSpansOutsideTheBoxTakeTheGeneralPath) {
  // The lex-leader scan is sound only on the whole box. Replace a leader X
  // of a box-sized ascending span and no remaining seed of X's orbit is its
  // own canonical form: only canonicalizing them brings X in. Each span
  // below breaks one clause of the box test, so X must still be admitted
  // among the seeds (the BFS may reach it later either way).
  const auto admits = [](const graph::Graph& topo, std::vector<Key> seeds,
                         const Key& x) {
    DinersSystem scratch{graph::Graph(topo)};
    for (P p = 0; p < scratch.topology().num_nodes(); ++p) {
      scratch.set_needs(p, true);
    }
    const StateCodec codec(scratch.topology(), 0, 2);
    Explorer::Options opts;
    opts.reduce_sym = true;
    const StateGraph g = Explorer(scratch, codec, opts).explore(seeds);
    return std::find(g.keys.begin(), g.keys.begin() + g.num_seeds, x) !=
           g.keys.begin() + g.num_seeds;
  };
  {
    // Ring-4: a leader X with a nontrivial orbit whose predecessor has
    // process 0 eating, so predecessor | 3 (process 0 in state 3) still
    // sorts between them.
    const graph::Graph ring4 = graph::make_ring(4);
    const StateCodec codec(ring4, 0, 2);
    const SymmetryGroup grp(codec, graph::automorphism_generators(ring4));
    const std::vector<Key> box = codec.domain_keys();
    std::size_t i = 1;
    while (codec.state_of(box[i - 1], 0) != core::DinerState::kEating ||
           !grp.is_canonical(box[i]) || grp.apply(1, box[i]) == box[i]) {
      ++i;
    }
    std::vector<Key> state3 = box;
    state3[i] = key_or(box[i - 1], Key{3, 0});
    EXPECT_TRUE(admits(ring4, state3, box[i])) << "state field 3";
    std::vector<Key> repeated = box;
    repeated[i] = box[i - 1];
    EXPECT_TRUE(admits(ring4, repeated, box[i])) << "repeated key";
  }
  {
    // Star-4: leaf permutations keep every edge's endpoint order, so the
    // last box key is fixed by the group. A bit past the codec's width
    // makes it larger still, and every non-identity image drops that bit.
    const graph::Graph star4 = graph::make_star(4);
    const StateCodec codec(star4, 0, 2);
    std::vector<Key> beyond = codec.domain_keys();
    const Key x = beyond.back();
    key_set_bits(beyond.back(), codec.bits(), 1, 1);
    EXPECT_TRUE(admits(star4, beyond, x)) << "bit past the codec width";
  }
}

}  // namespace
}  // namespace diners::verify
