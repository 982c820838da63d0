#include "verify/symmetry.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>

#include "verify/explorer.hpp"

namespace diners::verify {

namespace {

graph::Permutation compose_perm(const graph::Permutation& a,
                                const graph::Permutation& b) {
  graph::Permutation out(a.size());
  for (std::size_t p = 0; p < a.size(); ++p) out[p] = a[b[p]];
  return out;
}

Key key_xor(Key a, Key b) noexcept { return {a.lo ^ b.lo, a.hi ^ b.hi}; }

/// Byte b (0 = least significant) of the 128-bit key.
std::uint64_t key_byte(const Key& k, std::uint32_t b) noexcept {
  return ((b < 8 ? k.lo : k.hi) >> (8 * (b % 8))) & 0xFF;
}

constexpr std::size_t kComposeTableLimit = 4096;

}  // namespace

SymmetryGroup::SymmetryGroup(const StateCodec& codec,
                             const std::vector<graph::Permutation>& generators)
    : SymmetryGroup(codec, [&] {
        const graph::NodeId n = codec.topology().num_nodes();
        if (n > 16) {
          throw std::invalid_argument(
              "SymmetryGroup: > 16 nodes overflow the packed-permutation "
              "lookup");
        }
        for (const auto& gen : generators) {
          if (!graph::is_automorphism(codec.topology(), gen)) {
            throw std::invalid_argument(
                "SymmetryGroup: generator is not an automorphism of the "
                "topology");
          }
        }
        // BFS closure under composition, starting from the identity.
        graph::Permutation identity(n);
        std::iota(identity.begin(), identity.end(), graph::NodeId{0});
        std::vector<graph::Permutation> all{identity};
        std::vector<graph::Permutation> frontier{identity};
        const auto known = [&](const graph::Permutation& p) {
          return std::find(all.begin(), all.end(), p) != all.end();
        };
        while (!frontier.empty()) {
          std::vector<graph::Permutation> next;
          for (const auto& f : frontier) {
            for (const auto& gen : generators) {
              graph::Permutation c = compose_perm(gen, f);
              if (!known(c)) {
                if (all.size() >= kMaxElements) {
                  throw std::invalid_argument(
                      "SymmetryGroup: closure exceeds the 16-bit element "
                      "limit");
                }
                all.push_back(c);
                next.push_back(std::move(c));
              }
            }
          }
          frontier = std::move(next);
        }
        return all;
      }(), ClosedTag{}) {}

SymmetryGroup::SymmetryGroup(const StateCodec& codec,
                             std::vector<graph::Permutation> all, ClosedTag)
    : codec_(&codec),
      perms_(std::move(all)),
      key_bytes_((codec.bits() + 7) / 8) {
  // Deterministic element ids: sort lexicographically. The identity is the
  // lex-minimum permutation, so kIdentity == 0 holds by construction.
  std::sort(perms_.begin(), perms_.end());
  build_tables();
}

std::uint64_t SymmetryGroup::pack_perm(const graph::Permutation& p) const {
  std::uint64_t packed = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    packed |= static_cast<std::uint64_t>(p[i]) << (4 * i);
  }
  return packed;
}

void SymmetryGroup::build_tables() {
  const auto& topo = codec_->topology();
  const graph::NodeId n = topo.num_nodes();
  const graph::EdgeId m = topo.num_edges();
  const auto size = static_cast<ElemId>(perms_.size());
  const std::size_t rows = std::size_t{key_bytes_} * 256;
  if (rows * perms_.size() > kMaxTableBytes / sizeof(Key)) {
    throw std::invalid_argument(
        "SymmetryGroup: canonicalization tables exceed the " +
        std::to_string(kMaxTableBytes >> 20) + " MiB limit");
  }

  images_.assign(rows * perms_.size(), Key{});
  flips_.assign(perms_.size(), Key{});
  by_packed_.reserve(perms_.size());
  // dst[s]: the bit position A_e moves source bit s to (bits past the last
  // field stay unmapped, as they are never set in a codec key).
  std::vector<Key> dst(std::size_t{key_bytes_} * 8);
  const auto map_field = [&](std::uint32_t from, std::uint32_t to,
                             std::uint32_t width) {
    for (std::uint32_t i = 0; i < width; ++i) {
      dst[from + i] = Key{};
      key_set_bits(dst[from + i], to + i, 1, 1);
    }
  };
  const std::uint32_t depth_bits = codec_->depth_field_bits();
  for (ElemId e = 0; e < size; ++e) {
    const graph::Permutation& perm = perms_[e];
    for (graph::NodeId p = 0; p < n; ++p) {
      map_field(codec_->state_pos(p), codec_->state_pos(perm[p]), 2);
      map_field(codec_->depth_pos(p), codec_->depth_pos(perm[p]), depth_bits);
    }
    for (graph::EdgeId ed = 0; ed < m; ++ed) {
      const auto& edge = topo.edge(ed);
      const graph::NodeId iu = perm[edge.u], iv = perm[edge.v];
      const std::uint32_t to = codec_->edge_pos(topo.edge_index(iu, iv));
      map_field(codec_->edge_pos(ed), to, 1);
      // The packed bit encodes owner == edge.v with u < v, so it flips iff
      // pi swaps the endpoint order.
      if (iu > iv) key_set_bits(flips_[e], to, 1, 1);
    }
    // Each value's image is its lowest set bit's image plus the image of
    // the value without that bit, already built.
    for (std::uint32_t b = 0; b < key_bytes_; ++b) {
      for (std::uint32_t v = 1; v < 256; ++v) {
        const Key low = dst[b * 8 + std::countr_zero(v)];
        const Key rest = image_row(b, v & (v - 1))[e];
        images_[(b * 256 + v) * perms_.size() + e] = key_or(low, rest);
      }
    }
    by_packed_.emplace_back(pack_perm(perm), e);
  }
  std::sort(by_packed_.begin(), by_packed_.end());

  const auto lookup = [&](const graph::Permutation& p) {
    const std::uint64_t packed = pack_perm(p);
    const auto it = std::lower_bound(
        by_packed_.begin(), by_packed_.end(), packed,
        [](const auto& entry, std::uint64_t v) { return entry.first < v; });
    return it->second;
  };

  inverse_.resize(size);
  for (ElemId e = 0; e < size; ++e) {
    graph::Permutation inv(n);
    for (graph::NodeId p = 0; p < n; ++p) inv[perms_[e][p]] = p;
    inverse_[e] = lookup(inv);
  }
  if (perms_.size() <= kComposeTableLimit) {
    compose_.resize(perms_.size() * perms_.size());
    for (ElemId a = 0; a < size; ++a) {
      for (ElemId b = 0; b < size; ++b) {
        compose_[static_cast<std::size_t>(a) * size + b] =
            lookup(compose_perm(perms_[a], perms_[b]));
      }
    }
  }
}

SymmetryGroup::ElemId SymmetryGroup::compose(ElemId a, ElemId b) const {
  if (!compose_.empty()) {
    return compose_[static_cast<std::size_t>(a) * perms_.size() + b];
  }
  const graph::Permutation c = compose_perm(perms_[a], perms_[b]);
  const std::uint64_t packed = pack_perm(c);
  const auto it = std::lower_bound(
      by_packed_.begin(), by_packed_.end(), packed,
      [](const auto& entry, std::uint64_t v) { return entry.first < v; });
  return it->second;
}

Key SymmetryGroup::apply(ElemId e, const Key& k) const {
  Key out;
  for (std::uint32_t b = 0; b < key_bytes_; ++b) {
    out = key_or(out, image_row(b, key_byte(k, b))[e]);
  }
  return key_xor(out, flips_[e]);
}

std::uint16_t SymmetryGroup::permute_move(ElemId e,
                                          std::uint16_t move) const {
  if (move >= kDemonMoveBase) return move;
  return protocol_move(perms_[e][move_process(move)], move_action(move));
}

std::uint64_t SymmetryGroup::permute_mask(ElemId e,
                                          std::uint64_t mask) const {
  if (e == kIdentity) return mask;
  constexpr std::uint32_t kActs = core::DinersSystem::kNumActions;
  constexpr std::uint64_t kActMask = (std::uint64_t{1} << kActs) - 1;
  const auto& perm = perms_[e];
  std::uint64_t out = 0;
  for (std::size_t p = 0; p < perm.size(); ++p) {
    out |= ((mask >> (p * kActs)) & kActMask) << (perm[p] * kActs);
  }
  return out;
}

template <class Visit>
void SymmetryGroup::for_each_image(const Key& k, Visit visit) const {
  // The key's image rows, one per byte; element e's image is the OR of
  // rows[b][e], then its flips.
  std::array<const Key*, 16> rows{};
  for (std::uint32_t b = 0; b < key_bytes_; ++b) {
    rows[b] = image_row(b, key_byte(k, b));
  }
  for (std::size_t e = 1; e < perms_.size(); ++e) {
    Key img;
    for (std::uint32_t b = 0; b < key_bytes_; ++b) {
      img = key_or(img, rows[b][e]);
    }
    if (!visit(static_cast<ElemId>(e), key_xor(img, flips_[e]))) return;
  }
}

Key SymmetryGroup::canonical(const Key& k, ElemId* witness) const {
  Key best = k;
  ElemId best_e = kIdentity;
  for_each_image(k, [&](ElemId e, const Key& img) {
    // Strictly smaller only: ties keep the smallest witness.
    if (key_less(img, best)) {
      best = img;
      best_e = e;
    }
    return true;
  });
  if (witness != nullptr) *witness = best_e;
  return best;
}

bool SymmetryGroup::is_canonical(const Key& k) const {
  bool leader = true;
  for_each_image(k, [&](ElemId, const Key& img) {
    leader = !key_less(img, k);
    return leader;
  });
  return leader;
}

std::shared_ptr<const SymmetryGroup> SymmetryGroup::stabilizer(
    const std::vector<std::uint8_t>& label) const {
  std::vector<graph::Permutation> kept;
  for (const graph::Permutation& perm : perms_) {
    bool ok = true;
    for (std::size_t p = 0; p < perm.size() && ok; ++p) {
      ok = label[perm[p]] == label[p];
    }
    if (ok) kept.push_back(perm);
  }
  // The kept set is a subgroup (labels compose and invert), already closed.
  return std::shared_ptr<const SymmetryGroup>(
      new SymmetryGroup(*codec_, std::move(kept), ClosedTag{}));
}

std::vector<std::vector<graph::NodeId>> SymmetryGroup::node_orbits() const {
  const auto n = static_cast<graph::NodeId>(perms_[0].size());
  std::vector<std::vector<graph::NodeId>> orbits;
  std::vector<std::uint8_t> seen(n, 0);
  for (graph::NodeId p = 0; p < n; ++p) {
    if (seen[p] != 0) continue;
    std::vector<graph::NodeId> orbit;
    for (const graph::Permutation& perm : perms_) {
      const graph::NodeId q = perm[p];
      if (seen[q] == 0) {
        seen[q] = 1;
        orbit.push_back(q);
      }
    }
    std::sort(orbit.begin(), orbit.end());
    orbits.push_back(std::move(orbit));
  }
  return orbits;
}

}  // namespace diners::verify
