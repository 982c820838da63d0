// FlatEngine: the structure-of-arrays simulation substrate for the paper's
// algorithm — the large-n counterpart of the generic sim::Engine.
//
// Same computation model, same observable behavior: one weakly-fair step per
// call, a daemon choosing among the enabled (process, action) pairs, the
// deferred external-mutation contract (invalidate_all / reset_ages), and
// step traces byte-identical to sim::Engine running core::DinersSystem with
// the same daemon name, daemon seed, and fairness bound (pinned by
// tests/runtime/flat_engine_test.cpp). What changes is the representation:
//
//  * the enabled set is a packed bitmask (slot = process * 5 + action) with
//    a two-level nonzero-word summary for find-first/find-next scans;
//  * a Fenwick tree over per-word popcounts answers "the i-th enabled slot"
//    in O(log W) — the random daemon's selection — and keeps enabled_count
//    O(1);
//  * fairness ages live in a doubly-linked list totally ordered by
//    (enabled-since stamp, slot): the head is the forced-fairness oldest,
//    the first node of the maximal tail segment is the adversarial
//    daemon's youngest;
//  * the Fenwick tree is maintained lazily: only the random daemon ever
//    selects by rank, so the other daemons skip the O(log W) update on
//    every enabled-bit flip — the dominant steady-state cost;
//  * a step dirties p and the neighbours DinersSystem::affected() names
//    for the executed action (its readers, not all of N(p); none after
//    enter), and the executed slot leaves the enabled set at once: p's
//    refresh re-enables it with the step's stamp if its guard still
//    holds, which places it exactly where sim::Engine's restamp does;
//  * guards are evaluated five-at-a-time by DinersSystem::guard_mask()
//    (single branch-light pass over the topology's own CSR row, no
//    virtual dispatch), the only guard evaluator of this engine: the
//    per-step dirty path diffs one process's mask, block sweeps pack 64
//    masks into five words;
//  * full rebuilds (the initial build, invalidate_all, reset_ages) are one
//    serial pass over 64-process blocks (5 actions x 64 processes = 320
//    slots = exactly five 64-bit words).
//
// The daemons are implemented natively against these structures rather than
// through the sim::Daemon candidate-span interface; each reproduces its
// object-model counterpart's choice (and RNG consumption) exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/diners_system.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace diners::core {

class FlatEngine final : public sim::EngineBase {
 public:
  /// Borrows `system`. `daemon` / `daemon_seed` mirror
  /// sim::make_daemon(name, seed); `fairness_bound` as in sim::Engine.
  /// Throws std::invalid_argument on an unknown daemon name or a zero
  /// fairness bound.
  FlatEngine(DinersSystem& system, const std::string& daemon,
             std::uint64_t daemon_seed, std::uint64_t fairness_bound = 4096);

  std::optional<sim::StepRecord> step() override;
  [[nodiscard]] std::size_t enabled_count() const override;
  void invalidate_all() override;
  void reset_ages() override;

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNull = static_cast<Slot>(-1);
  static constexpr std::uint32_t kActions = DinersSystem::kNumActions;

  enum class DaemonKind : std::uint8_t {
    kRoundRobin,
    kRandom,
    kAdversarialAge,
    kBiased,
  };

  enum class Refresh : std::uint8_t { kNone, kKeepAges, kZeroAges };

  // Enabled-set maintenance (mutable: refreshed lazily from const readers,
  // exactly like sim::Engine).
  void ensure_fresh() const;
  void rebuild(bool keep_ages) const;
  void refresh_process(sim::ProcessId p) const;
  /// The five slot-major enabled words of a 64-process block, packed from
  /// per-process guard_mask() (dead processes masked out).
  void sweep_block_words(std::uint32_t block, std::uint64_t* out) const;

  void set_bit(Slot s) const;
  void clear_bit(Slot s) const;

  /// First enabled slot >= s; kNull if none.
  [[nodiscard]] Slot find_first_at(Slot s) const;
  [[nodiscard]] Slot find_first() const { return find_first_at(0); }
  /// Index of the next nonzero enabled word strictly after w via the
  /// two-level summary; kNull if none.
  [[nodiscard]] std::uint32_t next_nonzero_word(std::uint32_t w) const;
  /// The k-th (0-based, slot-ascending) enabled slot via Fenwick descent.
  [[nodiscard]] Slot select(std::uint64_t k) const;
  void fenwick_add(std::uint32_t word, std::int64_t delta) const;

  // (stamp, slot)-ordered age list.
  void list_unlink(Slot s) const;
  void list_append_tail(Slot s) const;
  /// Inserts `s` holding the current maximum stamp, keeping (stamp, slot)
  /// order; scans only the same-stamp tail segment.
  void list_insert_max_stamp(Slot s) const;
  /// Largest stamp, ties to the lowest slot: the first node of the maximal
  /// tail segment. Precondition: list non-empty.
  [[nodiscard]] Slot youngest() const;

  [[nodiscard]] Slot choose_slot();

  DinersSystem& system_;
  DaemonKind kind_;
  util::Xoshiro256 rng_;  ///< consumed only by the random daemon's choices
  std::uint64_t fairness_bound_;
  bool track_select_;  ///< Fenwick maintained? only the random daemon ranks

  sim::ProcessId n_ = 0;
  Slot slots_ = 0;
  std::uint32_t words_ = 0;       ///< enabled_ words
  std::uint32_t sum1_words_ = 0;  ///< sum1_ words
  std::uint32_t sum2_words_ = 0;  ///< sum2_ words

  mutable std::vector<std::uint64_t> enabled_;  ///< bit per slot
  mutable std::vector<std::uint64_t> sum1_;     ///< bit per nonzero word
  mutable std::vector<std::uint64_t> sum2_;     ///< bit per nonzero sum1 word
  mutable std::vector<std::int64_t> fen_;       ///< Fenwick over word popcounts
  mutable std::uint64_t total_ = 0;             ///< enabled slots

  mutable std::vector<std::uint64_t> enabled_since_;  ///< stamp per slot
  mutable std::vector<Slot> prev_;
  mutable std::vector<Slot> next_;
  mutable Slot head_ = kNull;  ///< oldest (min stamp, then min slot)
  mutable Slot tail_ = kNull;  ///< max stamp, then max slot

  mutable std::vector<sim::ProcessId> dirty_;
  mutable Refresh pending_ = Refresh::kZeroAges;  ///< first build deferred

  Slot rr_cursor_ = kNull;  ///< round-robin: last chosen slot
};

}  // namespace diners::core
