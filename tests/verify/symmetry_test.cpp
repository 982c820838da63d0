// Canonicalization algebra of verify::SymmetryGroup, fuzzed over random
// domain keys: canon is idempotent, constant on orbits, witnessed by a
// group element; apply() is a group action consistent with compose() and
// inverse(); orbit sizes divide the group order (orbit-stabilizer);
// is_canonical() agrees with canonical() on whole boxes.
#include "verify/symmetry.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "core/diners_system.hpp"
#include "graph/automorphisms.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "verify/canonical.hpp"
#include "verify/explorer.hpp"

namespace diners::verify {
namespace {

using core::DinersSystem;

struct KeyLess {
  bool operator()(const Key& a, const Key& b) const {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

SymmetryGroup make_group(const StateCodec& codec, const graph::Graph& g) {
  return SymmetryGroup(codec, graph::automorphism_generators(g));
}

/// Uniform keys of the codec's depth box, drawn field by field so that
/// codecs whose box exceeds domain_size()'s 63 bits work too.
std::vector<Key> random_domain_keys(const StateCodec& codec, std::size_t count,
                                    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const graph::Graph& g = codec.topology();
  std::vector<Key> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Key k;
    for (graph::NodeId p = 0; p < g.num_nodes(); ++p) {
      key_set_bits(k, codec.state_pos(p), 2, rng.next() % 3);
      key_set_bits(k, codec.depth_pos(p), codec.depth_field_bits(),
                   rng.next() % codec.num_depth_values());
    }
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      key_set_bits(k, codec.edge_pos(e), 1, rng.next() & 1);
    }
    keys.push_back(k);
  }
  return keys;
}

struct Instance {
  graph::Graph graph;
  std::size_t expected_order;
};

std::vector<Instance> instances() {
  std::vector<Instance> out;
  out.push_back({graph::make_ring(4), 8});
  out.push_back({graph::make_ring(5), 10});
  out.push_back({graph::make_path(4), 2});
  out.push_back({graph::make_star(4), 6});
  out.push_back({graph::make_complete(4), 24});
  // Codec (0, 12) is 84 bits wide: process 10's field straddles bit 64 and
  // the edge bits live in the hi word.
  out.push_back({graph::make_ring(12), 24});
  return out;
}

TEST(SymmetryGroup, ClosureHasExpectedOrderAndIdentityAtZero) {
  for (const auto& inst : instances()) {
    const StateCodec codec(inst.graph, 0, inst.graph.num_nodes());
    const SymmetryGroup grp = make_group(codec, inst.graph);
    EXPECT_EQ(grp.size(), inst.expected_order) << inst.graph.describe();
    for (graph::NodeId p = 0; p < inst.graph.num_nodes(); ++p) {
      EXPECT_EQ(grp.apply_node(SymmetryGroup::kIdentity, p), p);
    }
  }
}

TEST(SymmetryGroup, ApplyIsAGroupAction) {
  for (const auto& inst : instances()) {
    const StateCodec codec(inst.graph, 0, inst.graph.num_nodes());
    const SymmetryGroup grp = make_group(codec, inst.graph);
    const auto keys = random_domain_keys(codec, 40, 0xAC7104u);
    for (const Key& k : keys) {
      EXPECT_EQ(grp.apply(SymmetryGroup::kIdentity, k), k);
      for (SymmetryGroup::ElemId a = 0; a < grp.size(); ++a) {
        // Inverse round trip.
        EXPECT_EQ(grp.apply(grp.inverse(a), grp.apply(a, k)), k);
        for (SymmetryGroup::ElemId b = 0; b < grp.size(); ++b) {
          // apply(a) ∘ apply(b) == apply(a∘b).
          EXPECT_EQ(grp.apply(a, grp.apply(b, k)),
                    grp.apply(grp.compose(a, b), k));
        }
      }
    }
  }
}

TEST(SymmetryGroup, CanonIsIdempotentConstantOnOrbitsAndWitnessed) {
  for (const auto& inst : instances()) {
    const StateCodec codec(inst.graph, 0, inst.graph.num_nodes());
    const SymmetryGroup grp = make_group(codec, inst.graph);
    const auto keys = random_domain_keys(codec, 60, 0xBEEFu);
    for (const Key& k : keys) {
      SymmetryGroup::ElemId wit = SymmetryGroup::kIdentity;
      const Key canon = grp.canonical(k, &wit);
      // The witness actually maps k to its representative.
      EXPECT_EQ(grp.apply(wit, k), canon);
      // Idempotence: a representative is its own representative, witnessed
      // by the identity.
      SymmetryGroup::ElemId wit2 = 0xFFFF;
      EXPECT_EQ(grp.canonical(canon, &wit2), canon);
      EXPECT_EQ(wit2, SymmetryGroup::kIdentity);
      // canon(apply(g, k)) == canon(k) for every group element (in
      // particular every generator).
      for (SymmetryGroup::ElemId e = 0; e < grp.size(); ++e) {
        EXPECT_EQ(grp.canonical(grp.apply(e, k)), canon);
      }
    }
  }
}

TEST(SymmetryGroup, IsCanonicalIsTheLexLeaderTest) {
  // Every key of four whole boxes: is_canonical agrees with canonical, and
  // the leaders, one per orbit, number exactly the seeds of the box-seeded
  // reduced graphs — the depth box [0, 2] of
  // ExplorerDeterminism.BoxSeededGraphsMatchGoldenHashes, and K4 at its
  // sound box [0, 4] (diners_mc's 135,300 healthy states).
  const struct {
    const char* name;
    graph::Graph graph;
    std::int64_t depth_max;
    std::uint64_t leaders;
  } boxes[] = {
      {"K3", graph::make_complete(3), 2, 978},
      {"ring4", graph::make_ring(4), 2, 13'896},
      {"star4", graph::make_star(4), 2, 10'260},
      {"K4", graph::make_complete(4), 4, 135'300},
  };
  for (const auto& box : boxes) {
    const StateCodec codec(box.graph, 0, box.depth_max);
    const SymmetryGroup grp = make_group(codec, box.graph);
    std::uint64_t leaders = 0;
    for (std::uint64_t i = 0; i < codec.domain_size(); ++i) {
      const Key k = codec.domain_key(i);
      const bool leader = grp.is_canonical(k);
      ASSERT_EQ(leader, grp.canonical(k) == k) << box.name << " key " << i;
      leaders += leader ? 1 : 0;
    }
    EXPECT_EQ(leaders, box.leaders) << box.name;
  }
  // Ring-12 over [0, 12] is 84 bits wide: process 10's fields straddle bit
  // 64, so images differ in both words. Random keys are almost never
  // leaders; their representatives always are.
  const graph::Graph ring12 = graph::make_ring(12);
  const StateCodec codec(ring12, 0, 12);
  ASSERT_GT(codec.bits(), 64u);
  const SymmetryGroup grp = make_group(codec, ring12);
  for (const Key& k : random_domain_keys(codec, 2000, 0x1EADu)) {
    const Key canon = grp.canonical(k);
    EXPECT_EQ(grp.is_canonical(k), canon == k);
    EXPECT_TRUE(grp.is_canonical(canon));
  }
}

TEST(SymmetryGroup, OrbitSizesDivideGroupOrder) {
  for (const auto& inst : instances()) {
    const StateCodec codec(inst.graph, 0, inst.graph.num_nodes());
    const SymmetryGroup grp = make_group(codec, inst.graph);
    const auto keys = random_domain_keys(codec, 60, 0x0D1CEu);
    for (const Key& k : keys) {
      std::set<Key, KeyLess> orbit;
      for (SymmetryGroup::ElemId e = 0; e < grp.size(); ++e) {
        orbit.insert(grp.apply(e, k));
      }
      EXPECT_EQ(grp.size() % orbit.size(), 0u)
          << "orbit size " << orbit.size() << " does not divide |G|="
          << grp.size();
    }
  }
}

TEST(SymmetryGroup, PermuteMoveAndMaskAgree) {
  const graph::Graph g = graph::make_ring(5);
  const StateCodec codec(g, 0, g.num_nodes());
  const SymmetryGroup grp = make_group(codec, g);
  util::Xoshiro256 rng(7);
  constexpr std::uint32_t kActs = core::DinersSystem::kNumActions;
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t mask =
        rng.next() & ((std::uint64_t{1} << (5 * kActs)) - 1);
    const auto e =
        static_cast<SymmetryGroup::ElemId>(rng.next() % grp.size());
    const std::uint64_t pmask = grp.permute_mask(e, mask);
    for (std::uint16_t move = 0; move < 5 * kActs; ++move) {
      const std::uint16_t pmove = grp.permute_move(e, move);
      EXPECT_EQ((mask >> move) & 1, (pmask >> pmove) & 1)
          << "move " << move << " element " << e;
    }
    // Demonic and seed moves pass through.
    EXPECT_EQ(grp.permute_move(e, kDemonMoveBase + 3), kDemonMoveBase + 3);
    EXPECT_EQ(grp.permute_move(e, kSeedMove), kSeedMove);
  }
}

TEST(SymmetryGroup, ApplyCommutesWithDecodeRelabeling) {
  // Semantic anchor, independent of the image tables: decoding A_e(k) must
  // equal decoding k and relabeling the system by pi_e — state and depth
  // move to pi(p), and the edge {p, q} of A_e(k) is owned by the image of
  // its owner in k.
  for (const auto& inst : instances()) {
    SCOPED_TRACE(inst.graph.describe());
    const graph::Graph& g = inst.graph;
    const StateCodec codec(g, 0, g.num_nodes());
    const SymmetryGroup grp = make_group(codec, g);
    ASSERT_EQ(codec.bits() > 64, g.num_nodes() == 12);
    core::DinersSystem sys_a{graph::Graph(g)};
    core::DinersSystem sys_b{graph::Graph(g)};
    const auto keys = random_domain_keys(codec, 30, 0xF00Du);
    for (const Key& k : keys) {
      codec.decode(k, sys_a);
      for (SymmetryGroup::ElemId e = 0; e < grp.size(); ++e) {
        codec.decode(grp.apply(e, k), sys_b);
        for (graph::NodeId p = 0; p < g.num_nodes(); ++p) {
          const auto q = grp.apply_node(e, p);
          ASSERT_EQ(sys_b.state(q), sys_a.state(p)) << "element " << e;
          ASSERT_EQ(sys_b.depth(q), sys_a.depth(p)) << "element " << e;
        }
        for (const auto& edge : g.edges()) {
          ASSERT_EQ(sys_b.priority(grp.apply_node(e, edge.u),
                                   grp.apply_node(e, edge.v)),
                    grp.apply_node(e, sys_a.priority(edge.u, edge.v)))
              << "element " << e << " edge {" << edge.u << ", " << edge.v
              << "}";
        }
      }
    }
  }
}

TEST(SymmetryGroup, StabilizerFixesDistinguishedNode) {
  const graph::Graph g = graph::make_ring(6);
  const StateCodec codec(g, 0, g.num_nodes());
  const SymmetryGroup grp = make_group(codec, g);
  ASSERT_EQ(grp.size(), 12u);
  // Label node 2 differently (a dead victim): the stabilizer must fix it
  // pointwise and has order 2 (the reflection about node 2).
  std::vector<std::uint8_t> label(6, 1);
  label[2] = 0;
  const auto stab = grp.stabilizer(label);
  ASSERT_NE(stab, nullptr);
  EXPECT_EQ(stab->size(), 2u);
  for (SymmetryGroup::ElemId e = 0; e < stab->size(); ++e) {
    EXPECT_EQ(stab->apply_node(e, 2), 2u);
  }
}

TEST(SymmetryGroup, NodeOrbitsPartitionByRole) {
  const graph::Graph star = graph::make_star(5);
  const StateCodec codec(star, 0, star.num_nodes());
  const SymmetryGroup grp = make_group(codec, star);
  const auto orbits = grp.node_orbits();
  ASSERT_EQ(orbits.size(), 2u);  // hub, leaves
  EXPECT_EQ(orbits[0], (std::vector<graph::NodeId>{0}));
  EXPECT_EQ(orbits[1], (std::vector<graph::NodeId>{1, 2, 3, 4}));
}

TEST(SymmetryGroup, RejectsInvalidGenerators) {
  const graph::Graph g = graph::make_ring(4);
  const StateCodec codec(g, 0, g.num_nodes());
  // A permutation that is not an automorphism (swaps a non-edge into an
  // edge) must be rejected.
  EXPECT_THROW(SymmetryGroup(codec, {{1, 0, 2, 3}}), std::invalid_argument);
  // Wrong arity.
  EXPECT_THROW(SymmetryGroup(codec, {{0, 1, 2}}), std::invalid_argument);
}

}  // namespace
}  // namespace diners::verify
