#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace diners::graph {

Graph::Builder::Builder(NodeId num_nodes) : num_nodes_(num_nodes) {
  if (num_nodes == 0) throw std::invalid_argument("Graph: zero nodes");
}

Graph::Builder& Graph::Builder::add_edge(NodeId u, NodeId v) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    throw std::invalid_argument("Graph: edge endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("Graph: self-loop");
  if (u > v) std::swap(u, v);
  edges_.push_back(Edge{u, v});
  return *this;
}

Graph Graph::Builder::build() && {
  const NodeId n = num_nodes_;
  const std::size_t m = edges_.size();
  if (m > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw std::length_error("Graph: 2m exceeds the 32-bit CSR offsets");
  }
  Graph g;
  g.offsets_.assign(std::size_t{n} + 1, 0);

  // Counting sort by u into g.edges_, then sort each (short) row by v:
  // lexicographic edge ids, independent of insertion order, so generators
  // produce identical graphs however they enumerate edges.
  for (const Edge& e : edges_) ++g.offsets_[e.u + 1];
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());
  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  g.edges_.resize(m);
  for (const Edge& e : edges_) g.edges_[cursor[e.u]++] = e;
  edges_ = {};
  const auto by_v = [](const Edge& a, const Edge& b) { return a.v < b.v; };
  for (NodeId u = 0; u < n; ++u) {
    const auto row = g.edges_.begin() + g.offsets_[u];
    const auto row_end = g.edges_.begin() + g.offsets_[u + 1];
    std::sort(row, row_end, by_v);
    if (std::adjacent_find(row, row_end) != row_end) {
      throw std::invalid_argument("Graph: duplicate edge");
    }
  }

  // Pass 1: degrees. Pass 2: walking the edges in id order appends, to row
  // x, first every lower neighbor (edges (w, x), w ascending) and then every
  // higher one (edges (x, v), v ascending), so each row comes out sorted.
  std::fill(g.offsets_.begin(), g.offsets_.end(), 0);
  for (const Edge& e : g.edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());
  std::copy(g.offsets_.begin(), g.offsets_.end() - 1, cursor.begin());
  g.neighbors_.resize(2 * m);
  g.edge_ids_.resize(2 * m);
  for (EdgeId id = 0; id < m; ++id) {
    const Edge e = g.edges_[id];
    g.neighbors_[cursor[e.u]] = e.v;
    g.edge_ids_[cursor[e.u]++] = id;
    g.neighbors_[cursor[e.v]] = e.u;
    g.edge_ids_[cursor[e.v]++] = id;
  }
  return g;
}

EdgeId Graph::edge_index(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) return kNoEdge;
  const NodeId* begin = neighbors_.data() + offsets_[u];
  const NodeId* end = neighbors_.data() + offsets_[u + 1];
  const NodeId* it = std::lower_bound(begin, end, v);
  if (it == end || *it != v) return kNoEdge;
  return edge_ids_[static_cast<std::size_t>(it - neighbors_.data())];
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  return edge_index(u, v) != kNoEdge;
}

std::string Graph::describe() const {
  return "Graph(n=" + std::to_string(num_nodes()) +
         ", m=" + std::to_string(num_edges()) + ")";
}

}  // namespace diners::graph
