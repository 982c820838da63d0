#include "verify/explorer.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "analysis/invariants.hpp"
#include "core/serialize.hpp"
#include "fault/injector.hpp"
#include "graph/automorphisms.hpp"
#include "util/thread_pool.hpp"
#include "verify/key_index.hpp"

namespace diners::verify {

namespace {

// Candidate-resolution markers (see Explorer::explore). A resolved slot is
// either an admitted global state index (< kDroppedIdx), kDroppedIdx for a
// fresh state dropped at the max_states cap, or a kPendingTag-ged candidate
// ordinal naming the first occurrence of a not-yet-admitted key. Global
// indices and chunk ordinals both fit in 31 bits, so the tag bit
// disambiguates.
constexpr std::uint32_t kPendingTag = 0x8000'0000u;
constexpr std::uint32_t kDroppedIdx = 0x7FFF'FFFFu;
/// Largest admissible state count (indices must stay below kDroppedIdx).
constexpr std::uint32_t kMaxAdmittable = kDroppedIdx - 1;

/// A visited-set shard: a KeyIndex, or a CompactKeyIndex when
/// Options::compact_visited asks for bit-packed key storage. Both share the
/// kAbsent sentinel, so callers branch-free on the returned value.
class VisitedShard {
 public:
  static_assert(KeyIndex::kAbsent == CompactKeyIndex::kAbsent);

  void init(bool compact, std::uint32_t key_bits) {
    compact_ = compact;
    if (compact) packed_.init(key_bits);
  }
  void reserve(std::size_t expected) {
    compact_ ? packed_.reserve(expected) : plain_.reserve(expected);
  }
  [[nodiscard]] std::uint32_t find(const Key& k) const noexcept {
    return compact_ ? packed_.find(k) : plain_.find(k);
  }
  std::pair<std::uint32_t, bool> insert(const Key& k, std::uint32_t value) {
    return compact_ ? packed_.insert(k, value) : plain_.insert(k, value);
  }
  void update(const Key& k, std::uint32_t value) noexcept {
    compact_ ? packed_.update(k, value) : plain_.update(k, value);
  }

 private:
  bool compact_ = false;
  KeyIndex plain_;
  CompactKeyIndex packed_;
};

/// One T per worker, each on its own cache line. Parallel phases write
/// their worker's object per item (a vector header per push_back, a counter
/// per candidate), and two workers' objects on one line would bounce it
/// between cores on every write (DESIGN.md §8).
template <class T>
class PerWorker {
 public:
  explicit PerWorker(std::size_t workers) : slots_(workers) {}
  [[nodiscard]] T& operator[](std::size_t w) { return slots_[w].value; }

 private:
  struct alignas(64) Slot {
    T value;
  };
  std::vector<Slot> slots_;
};

}  // namespace

Explorer::Explorer(core::DinersSystem& scratch, const StateCodec& codec,
                   Options options)
    : scratch_(scratch), codec_(codec), options_(std::move(options)) {
  const auto& topo = scratch_.topology();
  const auto n = topo.num_nodes();
  if (n * core::DinersSystem::kNumActions > 64) {
    throw std::invalid_argument(
        "Explorer: > 12 processes overflow the 64-bit enabled mask");
  }
  if (options_.jobs == 0) {
    throw std::invalid_argument("Explorer: jobs must be positive");
  }
  options_.max_states = std::min(options_.max_states, kMaxAdmittable);
  try {
    box_size_ = codec_.domain_size();
  } catch (const std::overflow_error&) {
    box_size_ = 0;
  }
  if (options_.expected_states == 0) {
    options_.expected_states =
        box_size_ != 0 ? box_size_ : options_.max_states;
  }
  options_.expected_states =
      std::min<std::uint64_t>(options_.expected_states, options_.max_states);

  depth_bits_ = codec_.depth_field_bits();
  depth_min_ = codec_.depth_min();
  threshold_d_ = scratch_.diameter_constant();
  dyn_threshold_ = scratch_.config().enable_dynamic_threshold;
  cycle_breaking_ = scratch_.config().enable_cycle_breaking;

  procs_.resize(n + 1);
  for (graph::NodeId p = 0; p < n; ++p) {
    ProcGen& pg = procs_[p];
    pg.state_pos = codec_.state_pos(p);
    pg.depth_pos = codec_.depth_pos(p);
    pg.exit_clear = codec_.process_mask(p);
    Key ex;
    key_set_bits(ex, pg.depth_pos, depth_bits_, codec_.encoded_depth(0));
    pg.nbr_begin = static_cast<std::uint32_t>(nbrs_.size());
    const auto& ns = topo.neighbors(p);
    const auto& inc = topo.incident_edges(p);
    for (std::size_t i = 0; i < ns.size(); ++i) {
      const graph::NodeId q = ns[i];
      const graph::EdgeId e = inc[i];
      // Post-exit p yields every edge (owner := q); the packed bit encodes
      // owner == edge.v.
      const bool q_is_v = topo.edge(e).v == q;
      if (q_is_v) key_set_bits(ex, codec_.edge_pos(e), 1, 1);
      nbrs_.push_back({codec_.state_pos(q), codec_.depth_pos(q),
                       codec_.edge_pos(e),
                       static_cast<std::uint8_t>(q_is_v ? 1 : 0)});
    }
    pg.exit_set = ex;
  }
  procs_[n].nbr_begin = static_cast<std::uint32_t>(nbrs_.size());

  nbr_mask_.assign(n, 0);
  for (graph::NodeId p = 0; p < n; ++p) {
    for (const graph::NodeId q : topo.neighbors(p)) {
      nbr_mask_[p] |= std::uint64_t{0x1F}
                      << (q * core::DinersSystem::kNumActions);
    }
  }
  if (options_.reduce_sym) {
    full_group_ = std::make_shared<SymmetryGroup>(
        codec_, graph::automorphism_generators(topo));
  }

  if (!options_.demon_victim) return;
  const sim::ProcessId victim = *options_.demon_victim;
  if (scratch_.alive(victim)) {
    throw std::invalid_argument(
        "Explorer: demon victim must be dead in the scratch system");
  }
  demon_mask_ = codec_.process_mask(victim);
  const std::uint64_t count = fault::num_crash_assignments(
      scratch_, victim, codec_.depth_min(), codec_.depth_max());
  if (count > kSeedMove - kDemonMoveBase) {
    throw std::invalid_argument(
        "Explorer: too many crash assignments for the move encoding");
  }
  demon_patterns_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    fault::apply_crash_assignment(scratch_, victim, i, codec_.depth_min(),
                                  codec_.depth_max());
    demon_patterns_.push_back(
        key_and(codec_.encode(scratch_), demon_mask_));
  }
}

std::uint64_t Explorer::expand_fast(const Key& k, std::uint32_t self,
                                    std::vector<Cand>& out) const {
  constexpr std::uint64_t kT = 0, kH = 1, kE = 2;
  const auto n = static_cast<std::uint32_t>(procs_.size()) - 1;
  const bool greedy = options_.mutation == GuardMutation::kGreedyEnter;
  const bool fixdepth_on =
      cycle_breaking_ && options_.mutation != GuardMutation::kNoFixdepth;
  std::uint64_t mask = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    const ProcGen& pg = procs_[p];
    if (!pg.alive) continue;
    const std::uint64_t s = key_get_bits(k, pg.state_pos, 2);
    const std::int64_t d =
        depth_min_ +
        static_cast<std::int64_t>(key_get_bits(k, pg.depth_pos, depth_bits_));
    // One sweep over the incident edges feeds every guard of Figure 1.
    bool anc_not_thinking = false;
    bool desc_eating = false;
    bool has_desc = false;
    std::int64_t maxdesc = std::numeric_limits<std::int64_t>::min();
    for (std::uint32_t i = pg.nbr_begin; i < procs_[p + 1].nbr_begin; ++i) {
      const NbrGen& nb = nbrs_[i];
      const std::uint64_t qs = key_get_bits(k, nb.state_pos, 2);
      if (key_get_bits(k, nb.edge_pos, 1) == nb.anc_bit) {
        anc_not_thinking |= qs != kT;
      } else {
        has_desc = true;
        desc_eating |= qs == kE;
        maxdesc = std::max(
            maxdesc,
            depth_min_ + static_cast<std::int64_t>(
                             key_get_bits(k, nb.depth_pos, depth_bits_)));
      }
    }
    const auto base =
        static_cast<std::uint16_t>(p * core::DinersSystem::kNumActions);
    const auto emit = [&](sim::ActionIndex a, const Key& k2) {
      mask |= std::uint64_t{1} << (base + a);
      out.push_back({k2, self, static_cast<std::uint16_t>(base + a)});
    };
    const auto with_state = [&](std::uint64_t v) {
      Key k2 = k;
      key_clear_bits(k2, pg.state_pos, 2);
      key_set_bits(k2, pg.state_pos, 2, v);
      return k2;
    };
    if (pg.needs && s == kT && !anc_not_thinking) {
      emit(core::DinersSystem::kJoin, with_state(kH));
    }
    if (dyn_threshold_ && s == kH && anc_not_thinking) {
      emit(core::DinersSystem::kLeave, with_state(kT));
    }
    if (s == kH && !anc_not_thinking && (greedy || !desc_eating)) {
      emit(core::DinersSystem::kEnter, with_state(kE));
    }
    if (s == kE || (cycle_breaking_ && d > threshold_d_)) {
      emit(core::DinersSystem::kExit,
           key_or(key_andnot(k, pg.exit_clear), pg.exit_set));
    }
    if (fixdepth_on && has_desc && d < maxdesc + 1) {
      Key k2 = k;
      key_clear_bits(k2, pg.depth_pos, depth_bits_);
      key_set_bits(k2, pg.depth_pos, depth_bits_,
                   codec_.encoded_depth(maxdesc + 1));
      emit(core::DinersSystem::kFixDepth, k2);
    }
  }
  return mask;
}

StateGraph Explorer::explore(std::span<const Key> seeds) {
  const auto n = static_cast<sim::ProcessId>(procs_.size() - 1);
  // Refresh the environment inputs: crashes and needs changes happen
  // between explorations.
  for (sim::ProcessId p = 0; p < n; ++p) {
    procs_[p].needs = scratch_.needs(p) ? 1 : 0;
    procs_[p].alive = scratch_.alive(p) ? 1 : 0;
  }

  // Key patches leave untouched fields verbatim, while a decode / execute /
  // encode round-trip would clamp an out-of-box depth field — so demand
  // canonical seeds, on which the two agree. The same pass decides
  // whether the seeds are exactly the depth box: box_size_ keys, strictly
  // ascending, each inside the box (state fields < 3, depth fields in
  // range, no bit at or above codec.bits()). By pigeonhole such a span is
  // the whole box in ascending order, which seed admission exploits below.
  const std::uint64_t depth_values = codec_.num_depth_values();
  const std::uint32_t width = codec_.bits();
  const Key beyond{width >= 64 ? 0 : ~std::uint64_t{0} << width,
                   width <= 64    ? ~std::uint64_t{0}
                   : width == 128 ? 0
                                  : ~std::uint64_t{0} << (width - 64)};
  bool whole_box = box_size_ != 0 && seeds.size() == box_size_;
  if (whole_box || depth_values != std::uint64_t{1} << depth_bits_) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const Key& s = seeds[i];
      for (sim::ProcessId p = 0; p < n; ++p) {
        if (key_get_bits(s, procs_[p].depth_pos, depth_bits_) >=
            depth_values) {
          throw std::invalid_argument(
              "Explorer::explore: seed has an out-of-box depth field; seeds "
              "must come from StateCodec::encode or domain_key");
        }
        whole_box = whole_box && key_get_bits(s, procs_[p].state_pos, 2) < 3;
      }
      whole_box = whole_box && key_and(s, beyond) == Key{} &&
                  (i == 0 || key_less(seeds[i - 1], s));
    }
  }

  // Quotient group for this exploration: the stabilizer of the environment
  // inputs inside the topology's automorphism group. Null group = no
  // reduction (the unreduced paths below are byte-identical to the
  // pre-reduction explorer).
  std::shared_ptr<const SymmetryGroup> grp;
  if (full_group_ && !full_group_->trivial()) {
    std::vector<std::uint8_t> label(n);
    for (sim::ProcessId p = 0; p < n; ++p) {
      label[p] = static_cast<std::uint8_t>((procs_[p].needs << 1) |
                                           procs_[p].alive);
    }
    if (auto stab = full_group_->stabilizer(label); !stab->trivial()) {
      grp = std::move(stab);
    }
  }
  const bool sym_on = grp != nullptr;
  // POR is inert under a demonic victim: arbitrary writes overlap every
  // process's guard footprint, so no action set is provably independent.
  const bool por_on = options_.reduce_por && demon_patterns_.empty();

  StateGraph g;
  g.sym = grp;
  const std::uint32_t cap = options_.max_states;
  const unsigned jobs = options_.jobs;
  util::TrialPool pool(jobs);

  const auto hint = static_cast<std::size_t>(options_.expected_states);
  g.keys.reserve(hint);
  g.parent.reserve(hint);
  g.parent_move.reserve(hint);
  if (sym_on) g.parent_witness.reserve(hint);
  g.enabled.reserve(hint);
  g.succ_begin.reserve(hint + 1);
  g.succ_begin.push_back(0);

  // Hash-sharded visited set: shard = KeyHash % jobs, each owned by one
  // worker during resolution, so the hot probe/insert path is lock-free.
  // Under reduction the shards hold the quotient, which by orbit-stabilizer
  // has at least hint / |G| states; they grow on demand past that.
  const std::size_t visited_hint = sym_on ? hint / grp->size() : hint;
  std::vector<VisitedShard> shards(jobs);
  for (auto& s : shards) {
    s.init(options_.compact_visited, codec_.bits());
    s.reserve(visited_hint / jobs + 16);
  }

  // Per-worker reduction accounting, summed after the BFS. The candidate
  // stream is jobs-invariant, so the totals are too.
  PerWorker<StateGraph::ReductionStats> wstats(jobs);

  // Demonic writes once per base: the demon candidates of k are
  // {base | pattern_i} minus k itself, with base = k & ~demon_mask — a
  // function of base alone. Before each chunk's expansion a serial pass in
  // state order records every state's base and marks the first state of
  // each unseen base; only marked states emit writes. A later state j with
  // the base of an earlier state i would emit only candidates i already
  // emitted at a smaller ordinal, plus k_i, which is admitted — so no
  // admission, parent, witness or cap-drop point changes, and the serial
  // pass keeps the candidate stream jobs-independent.
  KeyIndex orbit_seen;
  std::vector<std::uint8_t> demon_first;  ///< per chunk state: emits writes
  if (!demon_patterns_.empty()) {
    orbit_seen.reserve(hint / (demon_patterns_.size() + 1) + 16);
  }

  // Chunk size is instance-derived (never jobs-derived) so the candidate
  // stream, and with it the merge order, is identical for every jobs
  // value. Ordinals stay well inside 31 bits: patterns are capped at
  // kSeedMove - kDemonMoveBase and chunks at 2^18 states.
  const std::size_t per_state_est =
      static_cast<std::size_t>(n) * core::DinersSystem::kNumActions / 2 +
      demon_patterns_.size() + 1;
  const auto chunk_states = static_cast<std::uint32_t>(
      std::clamp((std::size_t{1} << 21) / per_state_est, std::size_t{1024},
                 std::size_t{1} << 18));

  PerWorker<std::vector<Cand>> wcands(jobs);
  /// outbox[w * jobs + t]: worker w's candidate ordinals for shard t.
  PerWorker<std::vector<std::uint32_t>> outbox(std::size_t{jobs} * jobs);
  PerWorker<std::vector<std::uint32_t>> shard_fresh(jobs);
  std::vector<Cand> cands;
  std::vector<std::uint32_t> resolved;
  std::vector<std::uint32_t> cand_count;
  std::vector<std::uint32_t> prot_count;  ///< protocol arcs kept per state
  std::vector<std::uint64_t> cand_begin;
  std::vector<std::size_t> woff(jobs + 1);

  // The ample rule's invisibility test evaluates the invariant on decoded
  // states; give each worker a scratch system for it.
  std::vector<core::DinersSystem> por_sys;
  if (por_on) {
    por_sys.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w) por_sys.push_back(core::clone(scratch_));
  }

  const auto shard_of = [jobs](const Key& k) {
    return static_cast<unsigned>(KeyHash{}(k) % jobs);
  };

  const auto admit = [&g, sym_on](const Cand& c) {
    const auto idx = static_cast<std::uint32_t>(g.keys.size());
    g.keys.push_back(c.key);
    g.parent.push_back(c.parent);
    g.parent_move.push_back(c.move);
    if (sym_on) g.parent_witness.push_back(c.witness);
    return idx;
  };

  // Dedup cands[0, total) against the sharded visited set and admit fresh
  // keys in ascending-ordinal (canonical) order; resolved[j] ends as the
  // global index of cands[j].key, or kDroppedIdx past the cap.
  const auto resolve = [&](std::size_t total) {
    resolved.resize(total);
    // Shard scan: each worker probes/inserts only its own shard, visiting
    // its candidates in ascending ordinal order and tagging first
    // occurrences as pending.
    pool.run(jobs, [&](std::size_t t) {
      auto& fresh = shard_fresh[t];
      fresh.clear();
      const auto scan = [&](std::uint32_t j) {
        const auto [v, inserted] =
            shards[t].insert(cands[j].key, kPendingTag | j);
        resolved[j] = v;
        if (inserted) fresh.push_back(j);
      };
      if (jobs == 1) {
        for (std::uint32_t j = 0; j < total; ++j) scan(j);
      } else {
        for (unsigned w = 0; w < jobs; ++w) {
          for (const std::uint32_t j : outbox[w * jobs + t]) scan(j);
        }
      }
    });
    // Canonical merge (serial): ordinal order equals the serial BFS
    // discovery order, so admission — and with it every index in the
    // graph — is jobs-independent.
    for (std::uint32_t j = 0; j < total; ++j) {
      const std::uint32_t v = resolved[j];
      if ((v & kPendingTag) == 0) continue;  // previously admitted state
      const std::uint32_t first = v & ~kPendingTag;
      if (first == j) {
        if (g.keys.size() < cap) {
          resolved[j] = admit(cands[j]);
        } else {
          resolved[j] = kDroppedIdx;
          g.complete = false;
        }
      } else {
        resolved[j] = resolved[first];  // duplicate of a pending candidate
      }
    }
    // Replace the pending tags with the assigned indices. Dropped keys
    // leave stale pending entries behind; harmless, since a drop ends the
    // exploration.
    pool.run(jobs, [&](std::size_t t) {
      for (const std::uint32_t j : shard_fresh[t]) {
        if (resolved[j] != kDroppedIdx) {
          shards[t].update(cands[j].key, resolved[j]);
        }
      }
    });
  };

  // Expand one chunk of admitted states [begin, end): parallel expansion
  // into per-worker buffers (worker blocks are contiguous state ranges, so
  // concatenation preserves canonical order), concatenate + bucket by
  // shard, resolve, then write the CSR arc rows.
  const auto expand_chunk = [&](std::uint32_t begin, std::uint32_t end) {
    const std::uint32_t m = end - begin;
    const std::uint32_t block = (m + jobs - 1) / jobs;
    cand_count.assign(m, 0);
    prot_count.assign(m, 0);
    g.enabled.resize(end);
    if (!demon_patterns_.empty()) {
      demon_first.resize(m);
      for (std::uint32_t i = begin; i < end; ++i) {
        demon_first[i - begin] =
            orbit_seen.insert(key_andnot(g.keys[i], demon_mask_), 0).second;
      }
    }
    pool.run(jobs, [&](std::size_t w) {
      auto& buf = wcands[w];
      buf.clear();
      const auto lo =
          begin + std::min(m, static_cast<std::uint32_t>(w) * block);
      const auto hi =
          begin + std::min(m, (static_cast<std::uint32_t>(w) + 1) * block);
      for (std::uint32_t i = lo; i < hi; ++i) {
        const Key k = g.keys[i];
        const std::size_t before = buf.size();
        g.enabled[i] = expand_fast(k, i, buf);
        auto nprot = static_cast<std::uint32_t>(buf.size() - before);
        if (por_on && nprot > 1) {
          // Ample rule: if some process p's only enabled action is
          // fixdepth and no neighbor of p has any action enabled, the
          // remaining (deferred) actions sit at distance >= 2 from p —
          // their guards read neither p's fields nor anything fixdepth(p)
          // writes, so they commute with it. Keep only the fixdepth arc,
          // provided it is invariant-invisible and its target is not yet
          // visited (cycle proviso: shards are read-only during this
          // phase, and an all-fresh-target cycle cannot exist — every
          // cycle closes into an earlier-admitted state, which the probe
          // sees). First eligible p wins; the candidate stream stays
          // jobs-invariant because the probe set is fixed at chunk start.
          constexpr std::uint64_t kFixBit =
              std::uint64_t{1} << core::DinersSystem::kFixDepth;
          constexpr std::uint64_t kActMask = 0x1F;
          const std::uint64_t mask = g.enabled[i];
          for (std::uint32_t p = 0; p < static_cast<std::uint32_t>(n); ++p) {
            const std::uint64_t bits =
                (mask >> (p * core::DinersSystem::kNumActions)) & kActMask;
            if (bits != kFixBit || (mask & nbr_mask_[p]) != 0) continue;
            const std::uint16_t want = protocol_move(
                static_cast<sim::ProcessId>(p), core::DinersSystem::kFixDepth);
            std::size_t ci = before;
            while (buf[ci].move != want) ++ci;
            const auto inv = [&](const Key& key) {
              codec_.decode(key, por_sys[w]);
              return analysis::holds_invariant(por_sys[w]);
            };
            if (inv(k) != inv(buf[ci].key)) continue;
            Key target = buf[ci].key;
            if (sym_on) target = grp->canonical(target);
            if (shards[shard_of(target)].find(target) != KeyIndex::kAbsent) {
              continue;
            }
            buf[before] = buf[ci];
            buf.resize(before + 1);
            wstats[w].por_ample_states += 1;
            wstats[w].por_arcs_pruned += nprot - 1;
            nprot = 1;
            break;
          }
        }
        if (!demon_patterns_.empty() && demon_first[i - begin] != 0) {
          const Key dbase = key_andnot(k, demon_mask_);
          for (std::uint16_t di = 0;
               di < static_cast<std::uint16_t>(demon_patterns_.size());
               ++di) {
            const Key k2 = key_or(dbase, demon_patterns_[di]);
            if (!(k2 == k)) {
              buf.push_back(
                  {k2, i, static_cast<std::uint16_t>(kDemonMoveBase + di)});
            }
          }
        }
        if (sym_on) {
          wstats[w].raw_candidates += buf.size() - before;
          for (std::size_t j = before; j < buf.size(); ++j) {
            SymmetryGroup::ElemId wit = SymmetryGroup::kIdentity;
            const Key ck = grp->canonical(buf[j].key, &wit);
            if (wit != SymmetryGroup::kIdentity) {
              buf[j].key = ck;
              buf[j].witness = wit;
              wstats[w].canonical_hits += 1;
            }
          }
        }
        prot_count[i - begin] = nprot;
        cand_count[i - begin] =
            static_cast<std::uint32_t>(buf.size() - before);
      }
    });
    woff[0] = 0;
    for (unsigned w = 0; w < jobs; ++w) {
      woff[w + 1] = woff[w] + wcands[w].size();
    }
    const std::size_t total = woff[jobs];
    cand_begin.resize(m + 1);
    cand_begin[0] = 0;
    for (std::uint32_t ci = 0; ci < m; ++ci) {
      cand_begin[ci + 1] = cand_begin[ci] + cand_count[ci];
    }
    cands.resize(total);
    pool.run(jobs, [&](std::size_t w) {
      std::copy(wcands[w].begin(), wcands[w].end(), cands.begin() + woff[w]);
      if (jobs > 1) {
        for (unsigned t = 0; t < jobs; ++t) outbox[w * jobs + t].clear();
        for (std::size_t j = woff[w]; j < woff[w + 1]; ++j) {
          outbox[w * jobs + shard_of(cands[j].key)].push_back(
              static_cast<std::uint32_t>(j));
        }
      }
    });
    resolve(total);
    if (!g.complete) {
      // Truncating chunk: keep the admitted keys/parentage, discard the
      // chunk's expansion rows (see the StateGraph truncation shape).
      g.enabled.resize(begin);
      return;
    }
    // CSR arcs: per state, the kept protocol candidates are the first
    // prot_count entries of its candidate range, in move order. (Without
    // POR, prot_count == popcount(enabled); with POR the ample rule may
    // have kept fewer while `enabled` still records the full mask for the
    // fairness analysis.)
    for (std::uint32_t ci = 0; ci < m; ++ci) {
      g.succ_begin.push_back(g.succ_begin.back() + prot_count[ci]);
    }
    g.succ.resize(g.succ_begin.back());
    pool.run(jobs, [&](std::size_t w) {
      const auto lo = std::min(m, static_cast<std::uint32_t>(w) * block);
      const auto hi =
          std::min(m, (static_cast<std::uint32_t>(w) + 1) * block);
      for (std::uint32_t ci = lo; ci < hi; ++ci) {
        const std::uint64_t cbase = cand_begin[ci];
        StateGraph::Arc* dst = g.succ.data() + g.succ_begin[begin + ci];
        for (std::uint32_t a = 0; a < prot_count[ci]; ++a) {
          dst[a] = {resolved[cbase + a], cands[cbase + a].move,
                    cands[cbase + a].witness};
        }
      }
    });
    g.num_expanded = end;
  };

  // ---- seed admission (deduplicated, order preserved) --------------------
  // Seeds go in chunks of kSeedChunk; the reduction counts cover every seed
  // of each chunk reached, so a cap that fires inside the seeds stops after
  // the chunk it fires in.
  //
  // The whole box, ascending, skips canonicalize + probe + merge: every
  // automorphism maps the box onto itself, so each orbit's first seed is its
  // minimum, the one key of the orbit that is its own canonical form.
  // Admitting exactly those lex-leaders, in seed order with the identity
  // witness, is what the general path admits; the other seeds only count
  // as canonical hits.
  std::size_t seed_done = 0;
  constexpr std::size_t kSeedChunk = std::size_t{1} << 21;
  PerWorker<std::vector<std::uint32_t>> leaders(whole_box ? jobs : 0);
  while (seed_done < seeds.size() && g.complete) {
    const std::size_t count = std::min(kSeedChunk, seeds.size() - seed_done);
    const std::size_t block = (count + jobs - 1) / jobs;
    if (whole_box) {
      pool.run(jobs, [&](std::size_t w) {
        const std::size_t lo = std::min(count, w * block);
        const std::size_t hi = std::min(count, (w + 1) * block);
        auto& mine = leaders[w];
        mine.clear();
        for (std::size_t j = lo; j < hi; ++j) {
          if (!sym_on || grp->is_canonical(seeds[seed_done + j])) {
            mine.push_back(static_cast<std::uint32_t>(j));
          }
        }
        if (sym_on) {
          wstats[w].raw_candidates += hi - lo;
          wstats[w].canonical_hits += hi - lo - mine.size();
        }
      });
      // Worker blocks ascend, so this is seed order.
      const auto first = static_cast<std::uint32_t>(g.keys.size());
      for (unsigned w = 0; w < jobs; ++w) {
        for (const std::uint32_t j : leaders[w]) {
          if (g.keys.size() == cap) {
            g.complete = false;
            break;
          }
          admit({seeds[seed_done + j], kNoIndex, kSeedMove});
        }
      }
      pool.run(jobs, [&](std::size_t t) {
        for (auto i = first; i < g.keys.size(); ++i) {
          if (shard_of(g.keys[i]) == t) shards[t].insert(g.keys[i], i);
        }
      });
    } else {
      cands.resize(count);
      pool.run(jobs, [&](std::size_t w) {
        const std::size_t lo = std::min(count, w * block);
        const std::size_t hi = std::min(count, (w + 1) * block);
        for (std::size_t j = lo; j < hi; ++j) {
          cands[j] = {seeds[seed_done + j], kNoIndex, kSeedMove};
          if (sym_on) {
            // A seed's witness maps the original seed key to its canonical
            // representative (counterexample stems start lifting there).
            SymmetryGroup::ElemId wit = SymmetryGroup::kIdentity;
            const Key ck = grp->canonical(cands[j].key, &wit);
            wstats[w].raw_candidates += 1;
            if (wit != SymmetryGroup::kIdentity) {
              cands[j].key = ck;
              cands[j].witness = wit;
              wstats[w].canonical_hits += 1;
            }
          }
        }
        if (jobs > 1) {
          for (unsigned t = 0; t < jobs; ++t) outbox[w * jobs + t].clear();
          for (std::size_t j = lo; j < hi; ++j) {
            outbox[w * jobs + shard_of(cands[j].key)].push_back(
                static_cast<std::uint32_t>(j));
          }
        }
      });
      resolve(count);
    }
    seed_done += count;
  }
  g.num_seeds = g.num_states();

  // ---- layer-synchronous BFS ---------------------------------------------
  std::uint32_t layer_begin = 0;
  std::uint32_t layer_end = g.num_states();
  while (g.complete && layer_begin < layer_end) {
    for (std::uint32_t b = layer_begin; b < layer_end && g.complete;
         b += chunk_states) {
      expand_chunk(b, std::min(layer_end, b + chunk_states));
    }
    layer_begin = layer_end;
    layer_end = g.num_states();
  }

  // BFS layer count: parents precede children in discovery order.
  if (g.complete) {
    std::vector<std::uint32_t> depth(g.num_states(), 0);
    for (std::uint32_t i = g.num_seeds; i < g.num_states(); ++i) {
      depth[i] = depth[g.parent[i]] + 1;
      g.layers = std::max(g.layers, depth[i]);
    }
  }

  for (unsigned w = 0; w < jobs; ++w) {
    const auto& ws = wstats[w];
    g.reduction.raw_candidates += ws.raw_candidates;
    g.reduction.canonical_hits += ws.canonical_hits;
    g.reduction.por_ample_states += ws.por_ample_states;
    g.reduction.por_arcs_pruned += ws.por_arcs_pruned;
  }
  return g;
}

}  // namespace diners::verify
