#include "verify/canonical.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace diners::verify {

// Bit-field plumbing lives in the header (key_get_bits / key_set_bits /
// key_low_mask) so the explorer's patch-based successor generator can
// inline it; local aliases keep this file readable.
namespace {
constexpr auto& low_mask = key_low_mask;
constexpr auto& get_bits = key_get_bits;
constexpr auto& set_bits = key_set_bits;
}  // namespace

StateCodec::StateCodec(const graph::Graph& g, std::int64_t depth_min,
                       std::int64_t depth_max)
    : graph_(&g), depth_min_(depth_min), depth_max_(depth_max) {
  if (depth_max < depth_min) {
    throw std::invalid_argument("StateCodec: depth_max < depth_min");
  }
  const std::uint64_t depth_values =
      static_cast<std::uint64_t>(depth_max - depth_min) + 1;
  depth_bits_ = static_cast<std::uint32_t>(std::bit_width(depth_values - 1));
  per_process_bits_ = 2 + depth_bits_;
  edge_base_ = g.num_nodes() * per_process_bits_;
  total_bits_ = edge_base_ + g.num_edges();
  if (total_bits_ > 128) {
    throw std::invalid_argument(
        "StateCodec: instance needs " + std::to_string(total_bits_) +
        " bits (> 128); use a smaller topology or a tighter depth box");
  }
}

Key StateCodec::encode(const core::DinersSystem& system) const {
  Key k;
  const auto n = graph_->num_nodes();
  for (graph::NodeId p = 0; p < n; ++p) {
    const std::uint32_t base = proc_base(p);
    set_bits(k, base, 2, static_cast<std::uint64_t>(system.state(p)));
    const std::int64_t d =
        std::clamp(system.depth(p), depth_min_, depth_max_);
    set_bits(k, base + 2, depth_bits_,
             static_cast<std::uint64_t>(d - depth_min_));
  }
  const auto& edges = graph_->edges();
  for (graph::EdgeId e = 0; e < graph_->num_edges(); ++e) {
    if (system.priority(edges[e].u, edges[e].v) == edges[e].v) {
      set_bits(k, edge_base_ + e, 1, 1);
    }
  }
  return k;
}

void StateCodec::decode(const Key& key, core::DinersSystem& system) const {
  const auto n = graph_->num_nodes();
  for (graph::NodeId p = 0; p < n; ++p) {
    system.set_state(p, state_of(key, p));
    system.set_depth(p, depth_of(key, p));
  }
  const auto& edges = graph_->edges();
  for (graph::EdgeId e = 0; e < graph_->num_edges(); ++e) {
    system.set_priority(edges[e].u, edges[e].v, edge_owner(key, e));
  }
}

core::DinerState StateCodec::state_of(const Key& key, graph::NodeId p) const {
  return static_cast<core::DinerState>(get_bits(key, proc_base(p), 2));
}

std::int64_t StateCodec::depth_of(const Key& key, graph::NodeId p) const {
  return depth_min_ +
         static_cast<std::int64_t>(get_bits(key, proc_base(p) + 2,
                                            depth_bits_));
}

graph::NodeId StateCodec::edge_owner(const Key& key, graph::EdgeId e) const {
  const auto& edge = graph_->edge(e);
  return get_bits(key, edge_base_ + e, 1) != 0 ? edge.v : edge.u;
}

Key StateCodec::process_mask(graph::NodeId p) const {
  Key m;
  set_bits(m, proc_base(p), per_process_bits_,
           low_mask(per_process_bits_));
  for (graph::EdgeId e : graph_->incident_edges(p)) {
    set_bits(m, edge_base_ + e, 1, 1);
  }
  return m;
}

std::uint64_t StateCodec::domain_size() const {
  const std::uint64_t limit = std::uint64_t{1} << 63;
  std::uint64_t size = 1;
  const auto mul = [&](std::uint64_t f) {
    if (size > limit / f) {
      throw std::overflow_error(
          "StateCodec::domain_size: state box exceeds 2^63");
    }
    size *= f;
  };
  for (graph::NodeId p = 0; p < graph_->num_nodes(); ++p) {
    mul(3);
    mul(num_depth_values());
  }
  for (graph::EdgeId e = 0; e < graph_->num_edges(); ++e) mul(2);
  return size;
}

Key StateCodec::domain_key(std::uint64_t i) const {
  Key k;
  const auto n = graph_->num_nodes();
  const std::uint64_t dv = num_depth_values();
  for (graph::NodeId p = 0; p < n; ++p) {
    const std::uint32_t base = proc_base(p);
    set_bits(k, base, 2, i % 3);
    i /= 3;
    set_bits(k, base + 2, depth_bits_, i % dv);
    i /= dv;
  }
  for (graph::EdgeId e = 0; e < graph_->num_edges(); ++e) {
    set_bits(k, edge_base_ + e, 1, i & 1);
    i >>= 1;
  }
  return k;
}

std::vector<Key> StateCodec::domain_keys() const {
  const std::uint64_t size = domain_size();
  std::vector<Key> keys;
  keys.reserve(size);
  for (std::uint64_t i = 0; i < size; ++i) keys.push_back(domain_key(i));
  return keys;
}

}  // namespace diners::verify
