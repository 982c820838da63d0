// Flat open-addressing hash table mapping packed Keys to dense 32-bit
// state indices — the model checker's visited set.
//
// Compared with std::unordered_map<Key, uint32_t, KeyHash> this stores
// {key, value} slots contiguously (24 bytes each, no per-node allocation)
// and probes linearly from the hashed slot, so a lookup touches one or two
// cache lines instead of chasing bucket pointers. Capacity is a power of
// two with a maximum load factor of 1/2; reserve() up front (the explorer
// passes its Options::expected_states hint) to avoid rehash storms on
// 10^5–10^6-state runs.
//
// The value 0xFFFFFFFF (kAbsent) marks an empty slot and cannot be stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "verify/canonical.hpp"

namespace diners::verify {

/// Paged bit-packed key storage: keys are appended once, addressed by dense
/// 32-bit id, and stored at their true codec width (StateCodec::bits(), e.g.
/// 36 bits for ring-6) instead of the 16-byte in-memory Key. Pages are fixed
/// at 4096 keys so appends never move existing data. This is the backing
/// store of CompactKeyIndex, the explorer's compressed visited set.
class KeyBank {
 public:
  KeyBank() = default;
  /// key_bits in [1, 128] — everything beyond is dropped on push.
  explicit KeyBank(std::uint32_t key_bits) { init(key_bits); }

  /// (Re)initializes for `key_bits`-wide keys; drops stored keys.
  void init(std::uint32_t key_bits);

  /// Appends `k` (low key_bits only) and returns its id.
  std::uint32_t push(const Key& k);

  [[nodiscard]] Key get(std::uint32_t id) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Bytes held by the packed pages (capacity accounting for stats).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return pages_.size() * words_per_page_ * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint32_t kPageKeys = 1u << 12;

  std::uint32_t bits_ = 0;
  std::size_t words_per_page_ = 0;
  std::size_t count_ = 0;
  std::vector<std::vector<std::uint64_t>> pages_;
};

/// Open-addressing visited set with 8-byte slots {key id, value} over a
/// KeyBank — the compressed alternative to KeyIndex (24-byte slots). At the
/// table's max load factor 1/2 this costs 16 bytes per key plus the packed
/// key itself (~5 bytes at ring-6 width) against KeyIndex's 48, at the price
/// of one extra indirection per probe. Same interface contract as KeyIndex:
/// kAbsent is returned on a miss and is not a storable value.
class CompactKeyIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xFFFF'FFFFu;

  CompactKeyIndex() = default;
  explicit CompactKeyIndex(std::uint32_t key_bits) { init(key_bits); }

  /// (Re)initializes for `key_bits`-wide keys; drops all entries.
  void init(std::uint32_t key_bits);

  void reserve(std::size_t expected);
  [[nodiscard]] std::size_t size() const noexcept { return bank_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.size() * sizeof(Slot) + bank_.memory_bytes();
  }

  [[nodiscard]] std::uint32_t find(const Key& k) const noexcept;
  std::pair<std::uint32_t, bool> insert(const Key& k, std::uint32_t value);
  void update(const Key& k, std::uint32_t value) noexcept;

 private:
  struct Slot {
    std::uint32_t id = kNoSlot;  ///< into bank_; kNoSlot = empty
    std::uint32_t value = 0;
  };
  static constexpr std::uint32_t kNoSlot = 0xFFFF'FFFFu;

  void grow(std::size_t min_slots);
  [[nodiscard]] std::size_t home(const Key& k) const noexcept {
    return KeyHash{}(k)&mask_;
  }

  KeyBank bank_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

class KeyIndex {
 public:
  /// Returned by find() on a miss; not a storable value.
  static constexpr std::uint32_t kAbsent = 0xFFFF'FFFFu;

  KeyIndex() = default;
  explicit KeyIndex(std::size_t expected) { reserve(expected); }

  /// Pre-sizes the table for `expected` entries without rehashing later.
  void reserve(std::size_t expected);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The value mapped to `k`, or kAbsent.
  [[nodiscard]] std::uint32_t find(const Key& k) const noexcept;

  /// Inserts {k, value} if absent. Returns {stored value, inserted}:
  /// on a hit the existing value and false, on a miss `value` and true.
  std::pair<std::uint32_t, bool> insert(const Key& k, std::uint32_t value);

  /// Overwrites the value of an existing key. Precondition: k is present.
  void update(const Key& k, std::uint32_t value) noexcept;

 private:
  struct Slot {
    Key key;
    std::uint32_t value = kAbsent;
  };

  void grow(std::size_t min_slots);
  [[nodiscard]] std::size_t home(const Key& k) const noexcept {
    return KeyHash{}(k)&mask_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;  ///< slots_.size() - 1 when allocated
  std::size_t size_ = 0;
};

}  // namespace diners::verify
