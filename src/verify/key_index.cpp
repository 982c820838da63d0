#include "verify/key_index.hpp"

#include <algorithm>
#include <bit>

namespace diners::verify {

namespace {

constexpr std::size_t kMinSlots = 64;

// Reads/writes a `width`-bit field (width in [1, 64]) at bit offset `pos`
// of a u64 array; fields may straddle a word boundary. put_bits requires the
// target bits to be zero (freshly allocated pages are).
void put_bits(std::vector<std::uint64_t>& words, std::size_t pos,
              std::uint32_t width, std::uint64_t v) noexcept {
  const std::size_t word = pos / 64;
  const std::uint32_t off = pos % 64;
  words[word] |= v << off;
  if (off + width > 64) words[word + 1] |= v >> (64 - off);
}

std::uint64_t get_bits(const std::vector<std::uint64_t>& words,
                       std::size_t pos, std::uint32_t width) noexcept {
  const std::size_t word = pos / 64;
  const std::uint32_t off = pos % 64;
  std::uint64_t v = words[word] >> off;
  if (off + width > 64) v |= words[word + 1] << (64 - off);
  return v & key_low_mask(width);
}

}  // namespace

void KeyBank::init(std::uint32_t key_bits) {
  bits_ = std::clamp<std::uint32_t>(key_bits, 1, 128);
  // One spare word so a field straddling the last packed word can always
  // touch word + 1 without bounds checks.
  words_per_page_ =
      (static_cast<std::size_t>(kPageKeys) * bits_ + 63) / 64 + 1;
  count_ = 0;
  pages_.clear();
}

std::uint32_t KeyBank::push(const Key& k) {
  const std::size_t page = count_ / kPageKeys;
  if (page == pages_.size()) {
    pages_.emplace_back(words_per_page_, std::uint64_t{0});
  }
  const std::size_t pos = (count_ % kPageKeys) * bits_;
  const std::uint32_t lo_bits = std::min<std::uint32_t>(bits_, 64);
  put_bits(pages_[page], pos, lo_bits, k.lo & key_low_mask(lo_bits));
  if (bits_ > 64) {
    put_bits(pages_[page], pos + 64, bits_ - 64,
             k.hi & key_low_mask(bits_ - 64));
  }
  return static_cast<std::uint32_t>(count_++);
}

Key KeyBank::get(std::uint32_t id) const noexcept {
  const std::vector<std::uint64_t>& page = pages_[id / kPageKeys];
  const std::size_t pos = static_cast<std::size_t>(id % kPageKeys) * bits_;
  Key k;
  k.lo = get_bits(page, pos, std::min<std::uint32_t>(bits_, 64));
  if (bits_ > 64) k.hi = get_bits(page, pos + 64, bits_ - 64);
  return k;
}

void CompactKeyIndex::init(std::uint32_t key_bits) {
  bank_.init(key_bits);
  slots_.clear();
  mask_ = 0;
}

void CompactKeyIndex::reserve(std::size_t expected) {
  const std::size_t want = std::bit_ceil(std::max(kMinSlots, expected * 2));
  if (want > slots_.size()) grow(want);
}

void CompactKeyIndex::grow(std::size_t min_slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(min_slots, Slot{});
  mask_ = min_slots - 1;
  for (const Slot& s : old) {
    if (s.id == kNoSlot) continue;
    std::size_t i = home(bank_.get(s.id));
    while (slots_[i].id != kNoSlot) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

std::uint32_t CompactKeyIndex::find(const Key& k) const noexcept {
  if (slots_.empty()) return kAbsent;
  for (std::size_t i = home(k);; i = (i + 1) & mask_) {
    const Slot& s = slots_[i];
    if (s.id == kNoSlot) return kAbsent;
    if (bank_.get(s.id) == k) return s.value;
  }
}

std::pair<std::uint32_t, bool> CompactKeyIndex::insert(const Key& k,
                                                       std::uint32_t value) {
  if (bank_.size() * 2 >= slots_.size()) {
    grow(std::max(kMinSlots, slots_.size() * 2));
  }
  for (std::size_t i = home(k);; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.id == kNoSlot) {
      s.id = bank_.push(k);
      s.value = value;
      return {value, true};
    }
    if (bank_.get(s.id) == k) return {s.value, false};
  }
}

void CompactKeyIndex::update(const Key& k, std::uint32_t value) noexcept {
  for (std::size_t i = home(k);; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.id != kNoSlot && bank_.get(s.id) == k) {
      s.value = value;
      return;
    }
  }
}

void KeyIndex::reserve(std::size_t expected) {
  // Max load factor 1/2: the table needs at least 2x entries in slots.
  std::size_t want = std::bit_ceil(std::max(kMinSlots, expected * 2));
  if (want > slots_.size()) grow(want);
}

void KeyIndex::grow(std::size_t min_slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(min_slots, Slot{});
  mask_ = min_slots - 1;
  for (const Slot& s : old) {
    if (s.value == kAbsent) continue;
    std::size_t i = home(s.key);
    while (slots_[i].value != kAbsent) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

std::uint32_t KeyIndex::find(const Key& k) const noexcept {
  if (slots_.empty()) return kAbsent;
  for (std::size_t i = home(k);; i = (i + 1) & mask_) {
    const Slot& s = slots_[i];
    if (s.value == kAbsent) return kAbsent;
    if (s.key == k) return s.value;
  }
}

std::pair<std::uint32_t, bool> KeyIndex::insert(const Key& k,
                                                std::uint32_t value) {
  if (size_ * 2 >= slots_.size()) grow(std::max(kMinSlots, slots_.size() * 2));
  for (std::size_t i = home(k);; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.value == kAbsent) {
      s.key = k;
      s.value = value;
      ++size_;
      return {value, true};
    }
    if (s.key == k) return {s.value, false};
  }
}

void KeyIndex::update(const Key& k, std::uint32_t value) noexcept {
  for (std::size_t i = home(k);; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.key == k && s.value != kAbsent) {
      s.value = value;
      return;
    }
  }
}

}  // namespace diners::verify
