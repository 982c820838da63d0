// Undirected simple graphs: the neighbor relation N of the paper's model.
//
// Nodes are dense ids [0, n). Each undirected edge additionally carries a
// dense edge id, which the diners runtimes use to address the shared
// `priority` variable that each pair of neighbors maintains.
//
// The adjacency is stored once, in CSR (compressed sparse row) form: row u
// of the flat neighbor array holds u's neighbors in ascending order, and the
// edge-id array is aligned with it index-for-index. Every layer — the
// generic engine, the flat engine's guard pass, the invariant oracle, the
// fault injector and the model checker — reads the same arrays.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace diners::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);

/// An undirected edge; endpoints are stored with u < v.
struct Edge {
  NodeId u;
  NodeId v;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable-after-build undirected simple graph.
///
/// Built via Builder (or the generators in generators.hpp). Self-loops and
/// parallel edges are rejected. Edge ids are positions in the
/// lexicographically sorted edge list, and neighbor rows are sorted by node
/// id, so both are independent of insertion order and iteration is
/// deterministic everywhere downstream.
class Graph {
 public:
  class Builder {
   public:
    explicit Builder(NodeId num_nodes);

    /// Adds the undirected edge {u, v}. Throws std::invalid_argument on
    /// self-loops and out-of-range endpoints; duplicates are detected by
    /// build().
    Builder& add_edge(NodeId u, NodeId v);

    /// O(n + m) CSR construction. Throws std::invalid_argument if an edge
    /// was added twice (in either orientation).
    [[nodiscard]] Graph build() &&;

   private:
    NodeId num_nodes_;
    std::vector<Edge> edges_;  ///< normalized u < v, insertion order
  };

  /// An empty (or moved-from) graph has 0 nodes.
  [[nodiscard]] NodeId num_nodes() const noexcept {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  [[nodiscard]] EdgeId num_edges() const noexcept {
    return static_cast<EdgeId>(edges_.size());
  }

  /// Sorted neighbor list of `u`. Throws std::out_of_range on a bad `u`.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    const std::uint32_t begin = row_begin(u);
    return {neighbors_.data() + begin, offsets_[u + 1] - begin};
  }

  /// Edge ids incident to `u`, aligned index-for-index with neighbors(u).
  [[nodiscard]] std::span<const EdgeId> incident_edges(NodeId u) const {
    const std::uint32_t begin = row_begin(u);
    return {edge_ids_.data() + begin, offsets_[u + 1] - begin};
  }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    const std::uint32_t begin = row_begin(u);
    return offsets_[u + 1] - begin;
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// Dense id of edge {u, v}; kNoEdge if absent. O(log degree(u)).
  [[nodiscard]] EdgeId edge_index(NodeId u, NodeId v) const;

  /// Edge by id, endpoints normalized u < v.
  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_.at(e); }

  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }

  /// Raw CSR arrays for index-based hot loops, unchecked: row u of
  /// raw_neighbors()/raw_edge_ids() is [raw_offsets()[u],
  /// raw_offsets()[u + 1]).
  [[nodiscard]] const std::uint32_t* raw_offsets() const noexcept {
    return offsets_.data();
  }
  [[nodiscard]] const NodeId* raw_neighbors() const noexcept {
    return neighbors_.data();
  }
  [[nodiscard]] const EdgeId* raw_edge_ids() const noexcept {
    return edge_ids_.data();
  }

  /// Human-readable summary, e.g. "Graph(n=7, m=8)".
  [[nodiscard]] std::string describe() const;

 private:
  Graph() = default;

  [[nodiscard]] std::uint32_t row_begin(NodeId u) const {
    if (u >= num_nodes()) throw std::out_of_range("Graph: node out of range");
    return offsets_[u];
  }

  std::vector<Edge> edges_;             ///< lexicographic; id = position
  std::vector<std::uint32_t> offsets_;  ///< size n + 1
  std::vector<NodeId> neighbors_;       ///< size 2m, each row sorted
  std::vector<EdgeId> edge_ids_;        ///< aligned with neighbors_
};

}  // namespace diners::graph
