// Message-passing diners — the transformation sketched in Section 4 of the
// paper, rendered pragmatically.
//
// The paper proposes reusing the stabilizing handshake of Nesterenko & Arora
// [15], built on Dijkstra's K-state token circulation, to synchronize
// neighbor pairs in a low-atomicity / message-passing setting. We implement
// exactly that pairwise skeleton:
//
//  * Per edge, the two endpoints run Dijkstra's 2-process K-state protocol:
//    the lower id ("bottom") holds the edge token when the counters it and
//    its cache agree; the higher id ("top") when they differ. In any counter
//    configuration exactly one side is privileged, so the pair protocol is
//    self-stabilizing by construction; only the *caches* and in-flight
//    messages can transiently disagree.
//  * Every message piggybacks a mirror of the sender's protocol variables
//    (state, depth, edge-direction opinion + version); receivers refresh
//    their caches, so caches converge once the channels flush. Timer ticks
//    re-send mirrors, making cache convergence self-stabilizing too.
//  * The Figure 1 guards run against the caches. Eating additionally
//    requires holding the token of EVERY incident edge, which (after
//    stabilization) gives neighbor exclusion; a hungry process forwards
//    tokens toward hungry ancestors (the dynamic-threshold analogue), so
//    token demand follows the acyclic priority graph and cannot deadlock.
//  * The shared edge variable becomes a versioned replicated register: exit
//    publishes "neighbor is now the ancestor" with a higher version;
//    receivers adopt the higher-versioned opinion (ties break toward the
//    lower endpoint id).
//
// Semantics note (inherent to message passing from arbitrary state): safety
// is *eventual* — corrupt initial caches/channels can let two neighbors
// overlap meals until the first handshake round flushes; afterwards
// exclusion holds. Tests pin down exactly this contract.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/state.hpp"
#include "graph/graph.hpp"
#include "msgpass/network.hpp"
#include "util/rng.hpp"

namespace diners::msgpass {

struct MpOptions {
  /// K of the K-state handshake (>= 2).
  std::uint32_t handshake_modulus = 4;
  /// Probability that a scheduler step is a timer tick rather than a
  /// message delivery (given pending messages; with an empty network every
  /// step is a tick).
  double tick_probability = 0.25;
  /// Channel-level fault model (drop/duplicate/reorder/delay/corrupt); the
  /// default is the perfectly reliable FIFO network. The network's fault
  /// RNG derives from `seed`, so unreliable runs stay deterministic.
  FaultModel network_faults;
  std::uint64_t seed = 1;
};

class MessagePassingDiners {
 public:
  using ProcessId = graph::NodeId;

  MessagePassingDiners(graph::Graph g, core::DinersConfig config = {},
                       MpOptions options = {});

  /// One scheduler step: deliver one message or tick one process.
  void step();
  void run(std::uint64_t steps);

  // --- environment ---------------------------------------------------------
  void set_needs(ProcessId p, bool wants);
  [[nodiscard]] bool needs(ProcessId p) const { return needs_.at(p) != 0; }

  /// Benign crash: p stops handling messages and ticks (its in-flight
  /// messages still get delivered and dropped).
  void crash(ProcessId p);
  [[nodiscard]] bool alive(ProcessId p) const { return alive_.at(p) != 0; }

  /// Restart (rejoin): revives a dead process with fully reset local state —
  /// thinking, depth 0, handshake counters and caches zeroed, every edge
  /// opinion yielded to the neighbor at a bumped version — and announces
  /// itself by mirroring on every incident edge. The reset is a transient
  /// fault to the pair protocols (counters may transiently double-privilege
  /// an edge) which the handshake stabilizes through, per the module's
  /// eventual-safety contract. No-op on a live process.
  void restart(ProcessId p);

  /// Corrupts local states, caches, counters, and the in-flight channels.
  void corrupt(util::Xoshiro256& rng);

  /// Lease pinning, for the service layer (src/service): while set, p
  /// defers its `exit` action and stays eating — an external client holds
  /// the critical section, so the meal lasts until the client releases it
  /// instead of one protocol step. All tokens stay held throughout, so
  /// neighbor exclusion is exactly the eating guarantee. The lease is
  /// *revocable*: cycle breaking (depth > D, only reachable from corrupted
  /// state) still forces the exit, and restart() clears the pin — holders
  /// must tolerate revocation. No effect on any other transition; with the
  /// pin never set the protocol is step-for-step identical to before.
  void set_hold_eating(ProcessId p, bool hold) {
    hold_eating_.at(p) = hold ? 1 : 0;
  }
  [[nodiscard]] bool hold_eating(ProcessId p) const {
    return hold_eating_.at(p) != 0;
  }

  // --- observation ----------------------------------------------------------
  [[nodiscard]] core::DinerState state(ProcessId p) const {
    return states_.at(p);
  }
  [[nodiscard]] std::uint64_t meals(ProcessId p) const { return meals_.at(p); }
  [[nodiscard]] std::uint64_t total_meals() const noexcept {
    return total_meals_;
  }
  [[nodiscard]] const graph::Graph& topology() const noexcept { return graph_; }
  [[nodiscard]] std::uint32_t diameter_constant() const noexcept { return d_; }

  /// True iff p currently holds the token of edge e (per its own view).
  [[nodiscard]] bool holds_token(ProcessId p, graph::EdgeId e) const;

  /// Count of edges whose endpoints are simultaneously eating (live pairs).
  [[nodiscard]] std::size_t eating_violations() const;

  [[nodiscard]] std::uint64_t messages_sent() const {
    return network_.total_sent();
  }
  [[nodiscard]] std::uint64_t messages_delivered() const {
    return network_.total_delivered();
  }

  /// The underlying network, exposed for fault-model swaps mid-run (chaos
  /// campaigns) and for the drop/duplicate conservation counters.
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const Network& network() const noexcept { return network_; }

 private:
  /// Per-process, per-incident-edge slot data.
  struct EdgeEndpoint {
    std::uint8_t my_counter = 0;
    std::uint8_t seen_counter = 0;  ///< cached neighbor counter
    core::DinerState cached_state = core::DinerState::kThinking;
    std::int64_t cached_depth = 0;
    graph::NodeId priority_owner;   ///< local opinion: ancestor endpoint
    std::uint64_t priority_version = 0;
  };

  void handle_message(ProcessId p, graph::EdgeId e, const Message& m);
  void tick(ProcessId p);
  void protocol_step(ProcessId p);
  void send_mirror(ProcessId p, std::size_t slot, bool moved_counter);
  void release_token(ProcessId p, std::size_t slot);
  [[nodiscard]] bool is_bottom(ProcessId p, std::size_t slot) const;
  [[nodiscard]] bool privileged(ProcessId p, std::size_t slot) const;
  [[nodiscard]] std::size_t slot_of(ProcessId p, graph::EdgeId e) const;

  // Guard helpers over caches.
  [[nodiscard]] bool cached_is_ancestor(ProcessId p, std::size_t slot) const;
  [[nodiscard]] bool ancestors_all_thinking(ProcessId p) const;
  [[nodiscard]] bool some_ancestor_not_thinking(ProcessId p) const;
  [[nodiscard]] bool some_descendant_eating(ProcessId p) const;
  [[nodiscard]] std::int64_t max_descendant_depth(ProcessId p) const;
  [[nodiscard]] bool holds_all_tokens(ProcessId p) const;

  graph::Graph graph_;
  core::DinersConfig config_;
  MpOptions options_;
  std::uint32_t d_;
  util::Xoshiro256 rng_;
  Network network_;

  std::vector<core::DinerState> states_;
  std::vector<std::int64_t> depths_;
  std::vector<std::uint8_t> needs_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint8_t> hold_eating_;
  /// endpoints_[p][i] corresponds to topology().neighbors(p)[i].
  std::vector<std::vector<EdgeEndpoint>> endpoints_;

  std::vector<std::uint64_t> meals_;
  std::uint64_t total_meals_ = 0;
};

}  // namespace diners::msgpass
