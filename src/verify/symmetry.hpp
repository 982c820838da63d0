// The topology's automorphism group acting on packed state Keys — the
// symmetry-reduction substrate of the explorer (--reduce=sym).
//
// A node permutation pi acts on a Key by relabeling: process p's state and
// depth fields move to position pi(p), and edge {u, v}'s orientation bit
// moves to edge {pi(u), pi(v)} with the bit flipped iff pi swaps the
// endpoint order (the packed bit encodes owner == edge.v with edges
// normalized u < v, so new_bit = old_bit XOR (pi(u) > pi(v))). This action
// commutes with the protocol's transition relation whenever pi also
// preserves the environment inputs (needs, alive) — see stabilizer().
//
// The group is materialized as an explicit element table (closure of the
// generators, deterministically sorted so element ids are a pure function
// of the group, never of generator order), which at explorer scale is tiny:
// ring-n has 2n elements, K_n has n!, n <= 8. Element ids fit in 16 bits —
// they ride along as per-arc witnesses in the StateGraph.
//
// The action itself is table-driven: A_e is a fixed permutation of key bit
// positions followed by the orientation flips, so for every key byte b and
// byte value v the image of "byte b holds v, every other bit 0" is one
// precomputed Key. apply() ORs ceil(bits/8) such images and XORs the
// element's flip mask; canonical() runs that over every element in one
// loop (DESIGN.md section 10 has the layout and footprint).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/automorphisms.hpp"
#include "verify/canonical.hpp"

namespace diners::verify {

class SymmetryGroup {
 public:
  /// Element id; kIdentity is always 0.
  using ElemId = std::uint16_t;
  static constexpr ElemId kIdentity = 0;
  /// Hard cap on group order: element ids must fit the 16-bit arc witness.
  static constexpr std::size_t kMaxElements = 0xFFFF;

  /// Closure of `generators` under composition (the identity is always
  /// included). Throws std::invalid_argument if a generator is not a valid
  /// permutation of the codec's nodes, the closure exceeds kMaxElements, or
  /// its canonicalization tables would exceed 256 MiB.
  SymmetryGroup(const StateCodec& codec,
                const std::vector<graph::Permutation>& generators);

  [[nodiscard]] std::size_t size() const noexcept { return perms_.size(); }
  [[nodiscard]] bool trivial() const noexcept { return perms_.size() == 1; }

  [[nodiscard]] const graph::Permutation& perm(ElemId e) const {
    return perms_[e];
  }
  /// pi_e(p).
  [[nodiscard]] graph::NodeId apply_node(ElemId e, graph::NodeId p) const {
    return perms_[e][p];
  }
  /// Element id of pi_a ∘ pi_b (b applied first).
  [[nodiscard]] ElemId compose(ElemId a, ElemId b) const;
  [[nodiscard]] ElemId inverse(ElemId e) const { return inverse_[e]; }

  /// The relabeled key A_e(k): fields of p land at position pi_e(p).
  [[nodiscard]] Key apply(ElemId e, const Key& k) const;

  /// Protocol move (p, a) relabeled to (pi_e(p), a). Demonic and seed moves
  /// (>= kDemonMoveBase) pass through unchanged.
  [[nodiscard]] std::uint16_t permute_move(ElemId e, std::uint16_t move) const;

  /// Enabled mask with each process's action bits moved to pi_e(p).
  [[nodiscard]] std::uint64_t permute_mask(ElemId e, std::uint64_t mask) const;

  /// The orbit minimum of k under (hi, lo)-lexicographic order. If
  /// `witness` is non-null it receives the smallest element id w with
  /// apply(w, k) == canonical(k).
  [[nodiscard]] Key canonical(const Key& k, ElemId* witness = nullptr) const;

  /// Lex-leader test: canonical(k) == k, decided over the same images and
  /// order but returning at the first strictly smaller one.
  [[nodiscard]] bool is_canonical(const Key& k) const;

  /// The subgroup of elements preserving the per-node label pointwise
  /// (label[pi(p)] == label[p] for all p). Callers pack the environment
  /// inputs — needs and alive — into the label; the result is the largest
  /// subgroup whose action commutes with the (possibly crashed) protocol.
  [[nodiscard]] std::shared_ptr<const SymmetryGroup> stabilizer(
      const std::vector<std::uint8_t>& label) const;

  /// Node orbits under the group, each sorted ascending, listed by smallest
  /// member. Processes in one orbit are interchangeable: checking a
  /// per-process property on the orbit minimum covers the orbit.
  [[nodiscard]] std::vector<std::vector<graph::NodeId>> node_orbits() const;

 private:
  /// Hard cap on the image tables: |G| * ceil(bits/8) * 256 Keys.
  static constexpr std::size_t kMaxTableBytes = std::size_t{256} << 20;

  struct ClosedTag {};
  SymmetryGroup(const StateCodec& codec, std::vector<graph::Permutation> all,
                ClosedTag);
  void build_tables();
  [[nodiscard]] std::uint64_t pack_perm(const graph::Permutation& p) const;
  /// Row of images_ for key byte b holding value v: element e's image is
  /// row[e].
  [[nodiscard]] const Key* image_row(std::uint32_t b,
                                     std::uint64_t v) const noexcept {
    return images_.data() + (b * 256 + v) * perms_.size();
  }
  /// Calls visit(e, apply(e, k)) for e = 1, 2, ... in id order until it
  /// returns false (the identity's image, k itself, is skipped).
  template <class Visit>
  void for_each_image(const Key& k, Visit visit) const;

  const StateCodec* codec_;
  std::vector<graph::Permutation> perms_;
  std::vector<ElemId> inverse_;
  /// compose table (a * size + b) when the group is small enough; empty
  /// otherwise (compose falls back to permutation arithmetic + lookup).
  std::vector<ElemId> compose_;
  /// packed permutation -> element id (4 bits per node; n <= 12 holds by
  /// the explorer's enabled-mask limit, checked at construction).
  std::vector<std::pair<std::uint64_t, ElemId>> by_packed_;  ///< sorted
  /// ceil(codec bits / 8): the key bytes the tables cover.
  std::uint32_t key_bytes_;
  /// images_[(b * 256 + v) * size() + e]: the destination bits under A_e of
  /// the bits set in value v at key byte b, before the orientation flips.
  /// Element-minor, so canonical() reads size() consecutive Keys per byte.
  std::vector<Key> images_;
  /// Per element: the orientation bits A_e flips (destination positions).
  std::vector<Key> flips_;
};

}  // namespace diners::verify
