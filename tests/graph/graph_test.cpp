#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"

namespace diners::graph {
namespace {

Graph triangle() {
  Graph::Builder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
  return std::move(b).build();
}

TEST(GraphBuilder, RejectsZeroNodes) {
  EXPECT_THROW(Graph::Builder(0), std::invalid_argument);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  Graph::Builder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  Graph::Builder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
}

TEST(GraphBuilder, RejectsDuplicateEitherOrientation) {
  // add_edge only normalizes and appends; build() finds the duplicate.
  for (const NodeId first : {0u, 1u}) {
    Graph::Builder b(3);
    b.add_edge(0, 1).add_edge(1, 2).add_edge(first, 1 - first);
    EXPECT_THROW((void)std::move(b).build(), std::invalid_argument);
  }
}

TEST(Graph, CountsNodesAndEdges) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, NeighborsSorted) {
  Graph::Builder b(4);
  b.add_edge(2, 0).add_edge(2, 3).add_edge(2, 1);
  const Graph g = std::move(b).build();
  const std::vector<NodeId> expected = {0, 1, 3};
  const auto nbrs = g.neighbors(2);
  EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), expected);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, HasEdgeSymmetric) {
  const Graph g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, EdgeIndexStableUnderInsertionOrder) {
  Graph::Builder b1(4);
  b1.add_edge(0, 1).add_edge(2, 3).add_edge(1, 2);
  Graph::Builder b2(4);
  b2.add_edge(1, 2).add_edge(0, 1).add_edge(2, 3);
  const Graph g1 = std::move(b1).build();
  const Graph g2 = std::move(b2).build();
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(g1.edge_index(u, v), g2.edge_index(u, v));
    }
  }
}

TEST(Graph, EdgeIndexRoundTrips) {
  const Graph g = triangle();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& edge = g.edge(e);
    EXPECT_EQ(g.edge_index(edge.u, edge.v), e);
    EXPECT_EQ(g.edge_index(edge.v, edge.u), e);
  }
}

TEST(Graph, EdgeIndexMissingIsSentinel) {
  Graph::Builder b(3);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.edge_index(1, 2), kNoEdge);
  EXPECT_EQ(g.edge_index(0, 99), kNoEdge);
}

TEST(Graph, IncidentEdgesAlignWithNeighbors) {
  const Graph g = triangle();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& nbrs = g.neighbors(u);
    const auto& inc = g.incident_edges(u);
    ASSERT_EQ(nbrs.size(), inc.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EXPECT_EQ(g.edge_index(u, nbrs[i]), inc[i]);
    }
  }
}

TEST(Graph, DescribeMentionsCounts) {
  EXPECT_EQ(triangle().describe(), "Graph(n=3, m=3)");
}

TEST(Graph, BadNodeIdThrowsOutOfRange) {
  const Graph g = triangle();
  EXPECT_THROW((void)g.neighbors(3), std::out_of_range);
  EXPECT_THROW((void)g.incident_edges(3), std::out_of_range);
  EXPECT_THROW((void)g.degree(3), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(kNoNode), std::out_of_range);
}

// Every make_named family at four sizes (a size the family rejects is kept
// as a case without a graph), the other generators, and connected G(n, p)
// over a grid of sizes, densities and seeds.
struct GeneratedCase {
  std::string name;
  std::optional<Graph> graph;
};

std::vector<GeneratedCase> generated_graphs() {
  std::vector<GeneratedCase> out;
  const auto add = [&out](std::string name, const auto& make) {
    std::optional<Graph> g;
    try {
      g.emplace(make());
    } catch (const std::invalid_argument&) {
    }
    out.push_back({std::move(name), std::move(g)});
  };
  for (const char* kind : {"ring", "path", "star", "complete", "grid", "torus",
                           "tree", "wheel", "barbell", "gnp", "figure2"}) {
    for (const NodeId n : {4u, 7u, 40u, 130u}) {
      add(std::string(kind) + " n=" + std::to_string(n),
          [&] { return make_named(kind, n, /*seed=*/n + 1); });
    }
  }
  for (const std::uint32_t d : {1u, 3u, 6u}) {
    add("hypercube d=" + std::to_string(d), [&] { return make_hypercube(d); });
  }
  add("caterpillar 5x3", [] { return make_caterpillar(5, 3); });
  add("binary tree 40", [] { return make_binary_tree(40); });
  for (const NodeId n : {1u, 2u, 7u, 40u, 130u}) {
    for (const double p : {0.0, 0.05, 0.3, 0.7, 1.0}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        add("gnp n=" + std::to_string(n) + " p=" + std::to_string(p) +
                " seed=" + std::to_string(seed),
            [&] { return make_connected_gnp(n, p, seed); });
      }
    }
  }
  return out;
}

TEST(Graph, CsrRowsMatchABruteForceReferenceOnGeneratedGraphs) {
  for (const GeneratedCase& c : generated_graphs()) {
    if (!c.graph) continue;
    SCOPED_TRACE(c.name);
    const Graph& g = *c.graph;
    const NodeId n = g.num_nodes();
    std::vector<std::vector<std::pair<NodeId, EdgeId>>> rows(n);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& edge = g.edges()[e];
      ASSERT_LT(edge.u, edge.v);
      ASSERT_LT(edge.v, n);
      if (e > 0) {
        const Edge& prev = g.edges()[e - 1];
        ASSERT_TRUE(prev.u < edge.u || (prev.u == edge.u && prev.v < edge.v))
            << "edge ids are not lexicographic at " << e;
      }
      rows[edge.u].push_back({edge.v, e});
      rows[edge.v].push_back({edge.u, e});
    }
    for (NodeId u = 0; u < n; ++u) {
      std::sort(rows[u].begin(), rows[u].end());
      const auto nbrs = g.neighbors(u);
      const auto inc = g.incident_edges(u);
      ASSERT_EQ(g.degree(u), rows[u].size());
      ASSERT_EQ(nbrs.size(), rows[u].size());
      ASSERT_EQ(inc.size(), rows[u].size());
      for (std::size_t i = 0; i < rows[u].size(); ++i) {
        EXPECT_EQ(nbrs[i], rows[u][i].first);
        EXPECT_EQ(inc[i], rows[u][i].second);
      }
    }
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const EdgeId e = g.edge_index(u, v);
        if (e == kNoEdge) {
          EXPECT_FALSE(g.has_edge(u, v));
          continue;
        }
        ASSERT_LT(e, g.num_edges());
        EXPECT_EQ(g.edge(e), (Edge{std::min(u, v), std::max(u, v)}));
        EXPECT_EQ(g.edge_index(v, u), e);
      }
      EXPECT_EQ(g.edge_index(u, n), kNoEdge);
      EXPECT_EQ(g.edge_index(n, u), kNoEdge);
      EXPECT_EQ(g.edge_index(u, kNoNode), kNoEdge);
    }
    EXPECT_THROW((void)g.neighbors(n), std::out_of_range);
    EXPECT_THROW((void)g.incident_edges(n), std::out_of_range);
    EXPECT_THROW((void)g.degree(n), std::out_of_range);
  }
}

// 64-bit FNV-1a over every generated case: node and edge counts, the edge
// list, and each CSR row (degree, neighbors, edge ids). The expected value
// was computed on the adjacency-list representation that predates the CSR
// graph, so a change to a generator's RNG use or to edge numbering fails
// here even when the graph stays well formed.
TEST(Graph, GeneratedGraphsMatchGoldenHash) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const GeneratedCase& c : generated_graphs()) {
    if (!c.graph) {
      mix(0xffffffffu);
      continue;
    }
    const Graph& g = *c.graph;
    mix(g.num_nodes());
    mix(g.num_edges());
    for (const Edge& e : g.edges()) {
      mix(e.u);
      mix(e.v);
    }
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      mix(static_cast<std::uint32_t>(g.degree(u)));
      for (const NodeId v : g.neighbors(u)) mix(v);
      for (const EdgeId e : g.incident_edges(u)) mix(e);
    }
  }
  EXPECT_EQ(h, 0xf57330f8c371f00aull);
}

}  // namespace
}  // namespace diners::graph
