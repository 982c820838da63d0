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

#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/figure2.hpp"
#include "core/serialize.hpp"
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
  ASSERT_EQ(a.succ.size(), b.succ.size());
  for (std::size_t i = 0; i < a.succ.size(); ++i) {
    ASSERT_EQ(a.succ[i].to, b.succ[i].to) << "arc " << i;
    ASSERT_EQ(a.succ[i].move, b.succ[i].move) << "arc " << i;
  }
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
  } cases[] = {
      {"K3", graph::make_complete(3), false, 0x5ee4a8d633682542,
       0x5b481247ba939b72},
      {"star4", graph::make_star(4), false, 0x3609f8d4570ee531,
       0x3ec6ff29b1047ae1},
      {"line4", graph::make_path(4), false, 0x045a822f25e4528f,
       0x0afb2612f2541fb2},
      {"ring4", graph::make_ring(4), true, 0xcbb5d5a7e7b0cada,
       0x92695cdc33fb9d2b},
      {"K3", graph::make_complete(3), true, 0xa166e99477359b09,
       0xee0c8f9b3306e7af},
      {"star4", graph::make_star(4), true, 0xcee272c191433f10,
       0xa83fa4d0f698e666},
      {"line4", graph::make_path(4), true, 0x425c921bda2ee673,
       0x1f424fd70aef753e},
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

      DinersSystem crashed = core::clone(prototype);
      crashed.crash(0);
      Explorer::Options copts = opts;
      copts.demon_victim = 0;
      copts.expected_states = healthy.num_states();
      const StateGraph demonic =
          Explorer(crashed, codec, copts).explore(healthy.keys);
      ASSERT_TRUE(demonic.complete);
      EXPECT_EQ(hex(graph_hash(demonic)), hex(c.demonic));
    }
  }
}

}  // namespace
}  // namespace diners::verify
