#include "core/flat_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace diners::core {

namespace {

/// Bits >= b of a 64-bit word.
constexpr std::uint64_t mask_from(std::uint32_t b) { return ~0ULL << b; }

/// Bits strictly above b of a 64-bit word.
constexpr std::uint64_t mask_above(std::uint32_t b) {
  return b == 63 ? 0 : ~0ULL << (b + 1);
}

}  // namespace

FlatEngine::FlatEngine(DinersSystem& system, const std::string& daemon,
                       std::uint64_t daemon_seed, std::uint64_t fairness_bound)
    : system_(system), rng_(daemon_seed), fairness_bound_(fairness_bound) {
  if (daemon == "round-robin") {
    kind_ = DaemonKind::kRoundRobin;
  } else if (daemon == "random") {
    kind_ = DaemonKind::kRandom;
  } else if (daemon == "adversarial-age") {
    kind_ = DaemonKind::kAdversarialAge;
  } else if (daemon == "biased") {
    kind_ = DaemonKind::kBiased;
  } else {
    throw std::invalid_argument("FlatEngine: unknown daemon '" + daemon + "'");
  }
  if (fairness_bound_ == 0) {
    throw std::invalid_argument("FlatEngine: fairness bound must be positive");
  }
  track_select_ = kind_ == DaemonKind::kRandom;
  n_ = system_.topology().num_nodes();
  slots_ = n_ * kActions;
  words_ = (slots_ + 63) / 64;
  sum1_words_ = (words_ + 63) / 64;
  sum2_words_ = (sum1_words_ + 63) / 64;
  enabled_.assign(words_, 0);
  sum1_.assign(sum1_words_, 0);
  sum2_.assign(sum2_words_, 0);
  fen_.assign(words_ + 1, 0);
  enabled_since_.assign(slots_, 0);
  prev_.assign(slots_, kNull);
  next_.assign(slots_, kNull);
  // The first build is deferred to the first step (pending_ = kZeroAges),
  // matching sim::Engine: state written between construction and stepping
  // is observed.
}

void FlatEngine::fenwick_add(std::uint32_t word, std::int64_t delta) const {
  // Rank selection — the only Fenwick consumer — exists only under the
  // random daemon; everyone else skips the O(log W) scattered update.
  if (!track_select_) return;
  for (std::uint32_t i = word + 1; i <= words_; i += i & (~i + 1)) {
    fen_[i] += delta;
  }
}

void FlatEngine::set_bit(Slot s) const {
  const std::uint32_t w = s >> 6;
  if (enabled_[w] == 0) {
    const std::uint32_t s1 = w >> 6;
    if (sum1_[s1] == 0) sum2_[s1 >> 6] |= 1ULL << (s1 & 63);
    sum1_[s1] |= 1ULL << (w & 63);
  }
  enabled_[w] |= 1ULL << (s & 63);
  fenwick_add(w, 1);
  ++total_;
}

void FlatEngine::clear_bit(Slot s) const {
  const std::uint32_t w = s >> 6;
  enabled_[w] &= ~(1ULL << (s & 63));
  if (enabled_[w] == 0) {
    const std::uint32_t s1 = w >> 6;
    sum1_[s1] &= ~(1ULL << (w & 63));
    if (sum1_[s1] == 0) sum2_[s1 >> 6] &= ~(1ULL << (s1 & 63));
  }
  fenwick_add(w, -1);
  --total_;
}

std::uint32_t FlatEngine::next_nonzero_word(std::uint32_t w) const {
  std::uint32_t s1 = w >> 6;
  std::uint64_t m = sum1_[s1] & mask_above(w & 63);
  if (m == 0) {
    std::uint32_t s2 = s1 >> 6;
    std::uint64_t m2 = sum2_[s2] & mask_above(s1 & 63);
    while (m2 == 0) {
      if (++s2 >= sum2_words_) return kNull;
      m2 = sum2_[s2];
    }
    s1 = (s2 << 6) + static_cast<std::uint32_t>(std::countr_zero(m2));
    m = sum1_[s1];
  }
  return (s1 << 6) + static_cast<std::uint32_t>(std::countr_zero(m));
}

FlatEngine::Slot FlatEngine::find_first_at(Slot s) const {
  if (total_ == 0 || s >= slots_) return kNull;
  std::uint32_t w = s >> 6;
  const std::uint64_t head = enabled_[w] & mask_from(s & 63);
  if (head != 0) {
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(head));
  }
  w = next_nonzero_word(w);
  if (w == kNull) return kNull;
  return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(enabled_[w]));
}

FlatEngine::Slot FlatEngine::select(std::uint64_t k) const {
  // Fenwick descent: find the last word prefix whose popcount sum is <= k.
  std::uint32_t pos = 0;
  std::uint32_t step = std::bit_floor(words_);
  std::uint64_t rem = k;
  for (; step != 0; step >>= 1) {
    const std::uint32_t nxt = pos + step;
    if (nxt <= words_ && static_cast<std::uint64_t>(fen_[nxt]) <= rem) {
      pos = nxt;
      rem -= static_cast<std::uint64_t>(fen_[nxt]);
    }
  }
  std::uint64_t word = enabled_[pos];
  while (rem > 0) {
    word &= word - 1;
    --rem;
  }
  return (pos << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
}

void FlatEngine::list_unlink(Slot s) const {
  const Slot p = prev_[s];
  const Slot n = next_[s];
  if (p == kNull) head_ = n; else next_[p] = n;
  if (n == kNull) tail_ = p; else prev_[n] = p;
}

void FlatEngine::list_append_tail(Slot s) const {
  prev_[s] = tail_;
  next_[s] = kNull;
  if (tail_ == kNull) head_ = s; else next_[tail_] = s;
  tail_ = s;
}

void FlatEngine::list_insert_max_stamp(Slot s) const {
  const std::uint64_t stamp = enabled_since_[s];
  Slot after = tail_;
  // Walk back over the same-stamp tail segment until the (stamp, slot)
  // position is found. The segment holds only slots stamped this step —
  // at most the executed process's neighborhood — so the walk is O(deg).
  while (after != kNull && enabled_since_[after] == stamp && after > s) {
    after = prev_[after];
  }
  if (after == kNull) {
    prev_[s] = kNull;
    next_[s] = head_;
    if (head_ == kNull) tail_ = s; else prev_[head_] = s;
    head_ = s;
  } else {
    const Slot n = next_[after];
    prev_[s] = after;
    next_[s] = n;
    next_[after] = s;
    if (n == kNull) tail_ = s; else prev_[n] = s;
  }
}

FlatEngine::Slot FlatEngine::youngest() const {
  Slot s = tail_;
  const std::uint64_t stamp = enabled_since_[s];
  while (prev_[s] != kNull && enabled_since_[prev_[s]] == stamp) s = prev_[s];
  return s;
}

void FlatEngine::refresh_process(sim::ProcessId p) const {
  const std::uint32_t mask =
      system_.alive(p) ? system_.guard_mask(p) : 0;
  const Slot base = p * kActions;
  // Read all five current bits in one (possibly straddling) group load and
  // diff against the fresh mask: the common no-change refresh touches no
  // bit, summary, or list state at all. The straddle read of word w + 1 is
  // in bounds: slot base + 4 < slots_ <= 64 * words_.
  const std::uint32_t w = base >> 6;
  const std::uint32_t off = base & 63;
  std::uint64_t cur = enabled_[w] >> off;
  if (off > 64 - kActions) cur |= enabled_[w + 1] << (64 - off);
  std::uint32_t changed =
      (static_cast<std::uint32_t>(cur) ^ mask) & ((1u << kActions) - 1);
  while (changed != 0) {
    const auto a = static_cast<std::uint32_t>(std::countr_zero(changed));
    changed &= changed - 1;
    const Slot s = base + a;
    if ((mask >> a) & 1u) {
      set_bit(s);
      enabled_since_[s] = steps_;
      list_insert_max_stamp(s);
    } else {
      clear_bit(s);
      list_unlink(s);
    }
  }
}

void FlatEngine::sweep_block_words(std::uint32_t block,
                                   std::uint64_t* out) const {
  const auto lo = static_cast<sim::ProcessId>(block) << 6;
  const auto cnt =
      static_cast<std::uint32_t>(std::min<sim::ProcessId>(64, n_ - lo));
  std::fill(out, out + kActions, 0);
  for (std::uint32_t j = 0; j < cnt; ++j) {
    const sim::ProcessId p = lo + j;
    // Dead processes execute nothing. Process j owns bits 5j..5j+4 of the
    // block's 320; a group starting above bit 59 of a word straddles into
    // the next one.
    const std::uint64_t m = system_.alive(p) ? system_.guard_mask(p) : 0;
    const std::uint32_t bit = j * kActions;
    const std::uint32_t off = bit & 63;
    out[bit >> 6] |= m << off;
    if (off > 64 - kActions) out[(bit >> 6) + 1] |= m >> (64 - off);
  }
}

void FlatEngine::rebuild(bool keep_ages) const {
  // One pass over 64-process blocks (5 * 64 = 320 slots = exactly five
  // words): sweep_block_words packs each block's guards, then each word
  // folds into the stamps, summaries, Fenwick counts and age list. The bit
  // walk counts each word's slots itself (std::popcount is a libgcc call
  // without -mpopcnt). After a zero-ages rebuild all stamps are equal, so
  // slot order is (stamp, slot) order and the walk links the list directly;
  // a keep-ages rebuild collects the slots, slot-ascending, and a stable
  // sort by stamp yields (stamp, slot) order.
  std::fill(sum1_.begin(), sum1_.end(), 0);
  std::fill(sum2_.begin(), sum2_.end(), 0);
  total_ = 0;
  head_ = tail_ = kNull;
  std::vector<Slot> order;
  const std::uint32_t blocks = (n_ + 63) / 64;  // n_ * 5 fits in a Slot
  for (std::uint32_t block = 0; block < blocks; ++block) {
    std::uint64_t w5[kActions];
    sweep_block_words(block, w5);
    const std::uint32_t wbase = block * kActions;
    const std::uint32_t wcnt = std::min(kActions, words_ - wbase);
    for (std::uint32_t k = 0; k < wcnt; ++k) {
      const std::uint32_t w = wbase + k;
      std::uint64_t word = w5[k];
      // A zero-ages rebuild stamps every now-enabled slot; keep-ages
      // stamps only newly enabled ones. Disabled slots keep stale stamps
      // (dead values), exactly like the per-process path.
      std::uint64_t to_stamp = keep_ages ? (word & ~enabled_[w]) : word;
      for (; to_stamp != 0; to_stamp &= to_stamp - 1) {
        enabled_since_[(w << 6) + static_cast<std::uint32_t>(
                                      std::countr_zero(to_stamp))] = steps_;
      }
      enabled_[w] = word;
      if (word != 0) sum1_[w >> 6] |= 1ULL << (w & 63);
      std::uint32_t count = 0;
      for (; word != 0; word &= word - 1, ++count) {
        const Slot s =
            (w << 6) + static_cast<std::uint32_t>(std::countr_zero(word));
        if (keep_ages) {
          order.push_back(s);
        } else {
          list_append_tail(s);
        }
      }
      total_ += count;
      if (track_select_) fen_[w + 1] = count;
    }
  }
  for (std::uint32_t s1 = 0; s1 < sum1_words_; ++s1) {
    if (sum1_[s1] != 0) sum2_[s1 >> 6] |= 1ULL << (s1 & 63);
  }
  if (track_select_) {
    for (std::uint32_t i = 1; i <= words_; ++i) {
      const std::uint32_t j = i + (i & (~i + 1));
      if (j <= words_) fen_[j] += fen_[i];
    }
  }
  if (keep_ages) {
    std::stable_sort(order.begin(), order.end(), [this](Slot a, Slot b) {
      return enabled_since_[a] < enabled_since_[b];
    });
    for (const Slot s : order) list_append_tail(s);
  }
}

void FlatEngine::ensure_fresh() const {
  if (pending_ != Refresh::kNone) {
    rebuild(/*keep_ages=*/pending_ == Refresh::kKeepAges);
    pending_ = Refresh::kNone;
  } else {
    for (const sim::ProcessId q : dirty_) refresh_process(q);
  }
  dirty_.clear();
}

FlatEngine::Slot FlatEngine::choose_slot() {
  switch (kind_) {
    case DaemonKind::kBiased:
      return find_first();
    case DaemonKind::kRoundRobin: {
      Slot s = rr_cursor_ == kNull || rr_cursor_ + 1 >= slots_
                   ? kNull
                   : find_first_at(rr_cursor_ + 1);
      if (s == kNull) s = find_first();
      rr_cursor_ = s;
      return s;
    }
    case DaemonKind::kRandom:
      return select(rng_.below(total_));
    case DaemonKind::kAdversarialAge:
      return youngest();
  }
  return kNull;  // unreachable
}

std::optional<sim::StepRecord> FlatEngine::step() {
  ensure_fresh();
  if (total_ == 0) {
    // Never cache termination, exactly like sim::Engine.
    if (pending_ == Refresh::kNone) pending_ = Refresh::kKeepAges;
    return std::nullopt;
  }

  // Weak fairness: the list head is the oldest (min stamp, ties to the
  // lowest slot). A forced execution bypasses the daemon entirely — the
  // round-robin cursor does not move and the random stream is not consumed,
  // matching the object engine.
  Slot chosen;
  if (steps_ - enabled_since_[head_] >= fairness_bound_) {
    chosen = head_;
    ++forced_steps_;
  } else {
    chosen = choose_slot();
  }

  const sim::ProcessId p = chosen / kActions;
  const auto a = static_cast<sim::ActionIndex>(chosen % kActions);
  system_.apply_action(p, a);

  sim::StepRecord record{steps_, p, a, system_.action_name(p, a)};
  ++steps_;

  // The executed slot leaves the enabled set now. p is always dirty, so if
  // its guard still holds (a saturated fixdepth) the refresh re-enables it
  // with stamp steps_ (post-increment), at the (stamp, slot) position a
  // restamp would give it.
  clear_bit(chosen);
  list_unlink(chosen);

  // Defer the re-evaluation of p and of the neighbours that read what
  // (p, a) wrote to the next ensure_fresh().
  dirty_.push_back(p);
  system_.affected(p, a, dirty_);

  for (const auto& observer : observers_) observer(record);
  return record;
}

std::size_t FlatEngine::enabled_count() const {
  ensure_fresh();
  return static_cast<std::size_t>(total_);
}

void FlatEngine::invalidate_all() {
  if (pending_ != Refresh::kZeroAges) pending_ = Refresh::kKeepAges;
}

void FlatEngine::reset_ages() { pending_ = Refresh::kZeroAges; }

}  // namespace diners::core
