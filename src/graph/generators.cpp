#include "graph/generators.hpp"

#include <stdexcept>
#include <vector>

namespace diners::graph {

Graph make_path(NodeId n) {
  Graph::Builder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return std::move(b).build();
}

Graph make_ring(NodeId n) {
  if (n < 3) throw std::invalid_argument("make_ring: n < 3");
  Graph::Builder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  b.add_edge(n - 1, 0);
  return std::move(b).build();
}

Graph make_star(NodeId n) {
  if (n < 2) throw std::invalid_argument("make_star: n < 2");
  Graph::Builder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(0, i);
  return std::move(b).build();
}

Graph make_complete(NodeId n) {
  if (n < 2) throw std::invalid_argument("make_complete: n < 2");
  Graph::Builder b(n);
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  }
  return std::move(b).build();
}

Graph make_grid(NodeId rows, NodeId cols) {
  if (rows == 0 || cols == 0 || rows * cols < 2) {
    throw std::invalid_argument("make_grid: too small");
  }
  Graph::Builder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return std::move(b).build();
}

Graph make_torus(NodeId rows, NodeId cols) {
  if (rows < 3 || cols < 3) throw std::invalid_argument("make_torus: dims < 3");
  Graph::Builder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      b.add_edge(id(r, c), id(r, (c + 1) % cols));
      b.add_edge(id(r, c), id((r + 1) % rows, c));
    }
  }
  return std::move(b).build();
}

Graph make_binary_tree(NodeId n) {
  Graph::Builder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge((i - 1) / 2, i);
  return std::move(b).build();
}

Graph make_random_tree(NodeId n, std::uint64_t seed) {
  Graph::Builder b(n);
  util::Xoshiro256 rng(seed);
  for (NodeId i = 1; i < n; ++i) {
    const auto parent = static_cast<NodeId>(rng.below(i));
    b.add_edge(parent, i);
  }
  return std::move(b).build();
}

Graph make_connected_gnp(NodeId n, double p, std::uint64_t seed) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("make_connected_gnp: p out of [0,1]");
  }
  Graph::Builder b(n);
  util::Xoshiro256 rng(seed);
  // Random attachment spanning tree guarantees connectivity...
  std::vector<NodeId> parent(n, kNoNode);
  for (NodeId i = 1; i < n; ++i) {
    parent[i] = static_cast<NodeId>(rng.below(i));
    b.add_edge(parent[i], i);
  }
  // ...then each non-tree pair independently with probability p. Tree edge
  // {parent[j], j} is the only pair (i, j), i < j, already present.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      if (parent[j] != i && rng.chance(p)) b.add_edge(i, j);
    }
  }
  return std::move(b).build();
}

Graph make_caterpillar(NodeId spine, NodeId legs) {
  if (spine == 0) throw std::invalid_argument("make_caterpillar: empty spine");
  const NodeId n = spine + spine * legs;
  Graph::Builder b(n);
  for (NodeId i = 0; i + 1 < spine; ++i) b.add_edge(i, i + 1);
  NodeId next = spine;
  for (NodeId i = 0; i < spine; ++i) {
    for (NodeId k = 0; k < legs; ++k) b.add_edge(i, next++);
  }
  return std::move(b).build();
}

Graph make_hypercube(std::uint32_t dimension) {
  if (dimension < 1 || dimension > 20) {
    throw std::invalid_argument("make_hypercube: dimension out of [1, 20]");
  }
  const NodeId n = NodeId{1} << dimension;
  Graph::Builder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (std::uint32_t bit = 0; bit < dimension; ++bit) {
      const NodeId w = v ^ (NodeId{1} << bit);
      if (v < w) b.add_edge(v, w);
    }
  }
  return std::move(b).build();
}

Graph make_wheel(NodeId n) {
  if (n < 4) throw std::invalid_argument("make_wheel: n < 4");
  Graph::Builder b(n);
  for (NodeId i = 1; i < n; ++i) {
    b.add_edge(0, i);
    b.add_edge(i, i + 1 == n ? 1 : i + 1);
  }
  return std::move(b).build();
}

Graph make_barbell(NodeId k, NodeId bridge) {
  if (k < 2) throw std::invalid_argument("make_barbell: clique size < 2");
  const NodeId n = 2 * k + bridge;
  Graph::Builder b(n);
  auto clique = [&](NodeId base) {
    for (NodeId i = 0; i < k; ++i) {
      for (NodeId j = i + 1; j < k; ++j) b.add_edge(base + i, base + j);
    }
  };
  clique(0);
  clique(k + bridge);
  // Chain: last of left clique - path - first of right clique.
  NodeId prev = k - 1;
  for (NodeId i = 0; i < bridge; ++i) {
    b.add_edge(prev, k + i);
    prev = k + i;
  }
  b.add_edge(prev, k + bridge);
  return std::move(b).build();
}

Graph make_figure2_topology() {
  // a=0 b=1 c=2 d=3 e=4 f=5 g=6
  Graph::Builder b(7);
  b.add_edge(0, 1);  // a-b
  b.add_edge(0, 2);  // a-c
  b.add_edge(1, 3);  // b-d
  b.add_edge(3, 4);  // d-e
  b.add_edge(2, 4);  // c-e
  b.add_edge(4, 5);  // e-f
  b.add_edge(4, 6);  // e-g
  b.add_edge(5, 6);  // f-g
  return std::move(b).build();
}

const char* figure2_name(NodeId p) {
  static const char* names[] = {"a", "b", "c", "d", "e", "f", "g"};
  if (p >= 7) throw std::out_of_range("figure2_name: node out of range");
  return names[p];
}

Graph make_named(const std::string& kind, NodeId n, std::uint64_t seed,
                 double gnp_p) {
  if (kind == "ring") return make_ring(n);
  if (kind == "path") return make_path(n);
  if (kind == "star") return make_star(n);
  if (kind == "complete") return make_complete(n);
  if (kind == "grid") return make_grid(n / 4 ? n / 4 : 1, 4);
  if (kind == "torus") return make_torus(n / 4 ? n / 4 : 3, 4);
  if (kind == "tree") return make_random_tree(n, seed);
  if (kind == "wheel") return make_wheel(n);
  if (kind == "barbell") return make_barbell(n / 2, 2);
  if (kind == "gnp") return make_connected_gnp(n, gnp_p, seed);
  if (kind == "figure2") return make_figure2_topology();
  throw std::invalid_argument("make_named: unknown topology '" + kind + "'");
}

}  // namespace diners::graph
