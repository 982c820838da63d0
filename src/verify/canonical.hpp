// Canonical 128-bit packing of a DinersSystem global protocol state.
//
// A Key holds, bit-packed: per process its diner state (2 bits) and its
// depth (offset against a configurable [depth_min, depth_max] box, with
// saturation — see encode()), and per edge one orientation bit. needs and
// alive are NOT part of the key: they are environment configuration, held
// constant over one exploration (the explorer's scratch system carries
// them).
//
// The packing is the model checker's state identity: two global states are
// the same vertex of the transition graph iff their keys are equal.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/diners_system.hpp"
#include "graph/graph.hpp"

namespace diners::verify {

/// A packed global state. Instances of up to 128 bits are supported; the
/// codec constructor throws for anything wider.
struct Key {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Key&, const Key&) = default;
};

[[nodiscard]] constexpr Key key_or(Key a, Key b) noexcept {
  return {a.lo | b.lo, a.hi | b.hi};
}
[[nodiscard]] constexpr Key key_and(Key a, Key b) noexcept {
  return {a.lo & b.lo, a.hi & b.hi};
}
/// a with mask's bits cleared.
[[nodiscard]] constexpr Key key_andnot(Key a, Key mask) noexcept {
  return {a.lo & ~mask.lo, a.hi & ~mask.hi};
}
/// (hi, lo)-lexicographic order: the order of the 128-bit integer, which
/// orbit minima (SymmetryGroup::canonical) and box seeds are taken in.
[[nodiscard]] constexpr bool key_less(const Key& a, const Key& b) noexcept {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

// --- raw bit-field access ---------------------------------------------------
// The explorer's key-patch successor generator reads and rewrites individual
// packed fields without a decode round-trip, so these live in the header.
// Fields may straddle the lo/hi word boundary; pos + width <= 128, width < 64.

[[nodiscard]] constexpr std::uint64_t key_low_mask(
    std::uint32_t width) noexcept {
  return width >= 64 ? ~0ULL : (1ULL << width) - 1;
}

[[nodiscard]] constexpr std::uint64_t key_get_bits(
    const Key& k, std::uint32_t pos, std::uint32_t width) noexcept {
  std::uint64_t out;
  if (pos < 64) {
    out = k.lo >> pos;
    if (pos + width > 64) out |= k.hi << (64 - pos);
  } else {
    out = k.hi >> (pos - 64);
  }
  return out & key_low_mask(width);
}

/// ORs `value` into the field. Precondition: the field's bits in `k` are
/// currently zero (use key_clear_bits first to overwrite).
constexpr void key_set_bits(Key& k, std::uint32_t pos, std::uint32_t width,
                            std::uint64_t value) noexcept {
  if (pos < 64) {
    k.lo |= value << pos;
    if (pos + width > 64) k.hi |= value >> (64 - pos);
  } else {
    k.hi |= value << (pos - 64);
  }
}

constexpr void key_clear_bits(Key& k, std::uint32_t pos,
                              std::uint32_t width) noexcept {
  const std::uint64_t mask = key_low_mask(width);
  if (pos < 64) {
    k.lo &= ~(mask << pos);
    if (pos + width > 64) k.hi &= ~(mask >> (64 - pos));
  } else {
    k.hi &= ~(mask << (pos - 64));
  }
}

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    std::uint64_t h = k.lo * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    h += k.hi * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 32;
    h *= 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }
};

/// Bidirectional state <-> Key packing over a fixed topology and depth box.
///
/// Depth saturation: encode() clamps each depth into [depth_min, depth_max].
/// With depth_max > D this is the standard saturating abstraction for the
/// unbounded depth counter: every guard of Figure 1 compares depths either
/// against D or against a neighbor's depth + 1, and clamping preserves both
/// (clamped depths keep their relative order up to the cap and stay > D iff
/// big enough), so every concrete transition maps to a transition between
/// the clamped states. The abstraction can only *add* behaviors (e.g. a
/// fixdepth self-loop at the cap, which is fairness-infeasible because exit
/// is co-enabled there), making the checks conservative.
class StateCodec {
 public:
  /// Throws std::invalid_argument if depth_max < depth_min or the packed
  /// instance exceeds 128 bits.
  StateCodec(const graph::Graph& g, std::int64_t depth_min,
             std::int64_t depth_max);

  [[nodiscard]] Key encode(const core::DinersSystem& system) const;

  /// Writes the key back through set_state / set_depth / set_priority.
  /// needs and alive are untouched.
  void decode(const Key& key, core::DinersSystem& system) const;

  [[nodiscard]] const graph::Graph& topology() const noexcept {
    return *graph_;
  }
  [[nodiscard]] std::uint32_t bits() const noexcept { return total_bits_; }
  [[nodiscard]] std::int64_t depth_min() const noexcept { return depth_min_; }
  [[nodiscard]] std::int64_t depth_max() const noexcept { return depth_max_; }
  [[nodiscard]] std::uint64_t num_depth_values() const noexcept {
    return static_cast<std::uint64_t>(depth_max_ - depth_min_) + 1;
  }

  // --- field readers (used for counterexample rendering) ------------------
  [[nodiscard]] core::DinerState state_of(const Key& key,
                                          graph::NodeId p) const;
  [[nodiscard]] std::int64_t depth_of(const Key& key, graph::NodeId p) const;
  /// The ancestor endpoint id held by edge `e` in `key`.
  [[nodiscard]] graph::NodeId edge_owner(const Key& key,
                                         graph::EdgeId e) const;

  /// 1-bits at every position process `p` can write: its state and depth
  /// fields and its incident edge bits. Malicious-crash write patterns live
  /// inside this mask.
  [[nodiscard]] Key process_mask(graph::NodeId p) const;

  // --- field geometry (for key_get_bits / key_set_bits patching) ----------
  /// Bit position of process p's 2-bit diner-state field.
  [[nodiscard]] std::uint32_t state_pos(graph::NodeId p) const noexcept {
    return proc_base(p);
  }
  /// Bit position of process p's depth field.
  [[nodiscard]] std::uint32_t depth_pos(graph::NodeId p) const noexcept {
    return proc_base(p) + 2;
  }
  /// Width of each depth field in bits.
  [[nodiscard]] std::uint32_t depth_field_bits() const noexcept {
    return depth_bits_;
  }
  /// Bit position of edge e's orientation bit (1 iff owner == edge.v).
  [[nodiscard]] std::uint32_t edge_pos(graph::EdgeId e) const noexcept {
    return edge_base_ + e;
  }
  /// The stored field value for concrete depth `d`: clamped into the box
  /// and offset against depth_min (the same saturation encode() applies).
  [[nodiscard]] std::uint64_t encoded_depth(std::int64_t d) const noexcept {
    return static_cast<std::uint64_t>(std::clamp(d, depth_min_, depth_max_) -
                                      depth_min_);
  }

  /// Size of the full key domain 3^n · (depth values)^n · 2^m — the
  /// arbitrary-start state box of Theorem 1. Throws std::overflow_error
  /// if it does not fit in 63 bits.
  [[nodiscard]] std::uint64_t domain_size() const;

  /// The i-th key of the domain in mixed-radix order, i < domain_size().
  [[nodiscard]] Key domain_key(std::uint64_t i) const;

  /// Every key of the domain, in domain_key order.
  [[nodiscard]] std::vector<Key> domain_keys() const;

 private:
  [[nodiscard]] std::uint32_t proc_base(graph::NodeId p) const noexcept {
    return p * per_process_bits_;
  }

  const graph::Graph* graph_;
  std::int64_t depth_min_;
  std::int64_t depth_max_;
  std::uint32_t depth_bits_;
  std::uint32_t per_process_bits_;
  std::uint32_t edge_base_;
  std::uint32_t total_bits_;
};

}  // namespace diners::verify
