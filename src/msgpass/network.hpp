// Simulated asynchronous message network: one FIFO channel per directed
// edge, nondeterministic interleaving across channels, plus local timer
// ticks. Channels can be seeded with arbitrary (corrupt) initial messages to
// exercise stabilization from arbitrary network state.
//
// The network optionally runs over an *unsupportive environment* (Dolev &
// Herman): a deterministic FaultModel, seeded from the trial RNG, drops,
// duplicates, reorders, delays, and (boundedly) corrupts messages
// per-channel. All fault draws come from the network's own RNG stream, so a
// run is reproducible bit-for-bit from (topology, model, seed).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace diners::msgpass {

/// The single message type of the protocol: a handshake counter plus a
/// mirror of the sender's protocol variables for this edge.
struct Message {
  std::uint8_t counter = 0;        ///< K-state handshake counter
  std::uint8_t state = 0;          ///< sender's DinerState, as raw value
  std::int64_t depth = 0;          ///< sender's depth
  graph::NodeId priority_owner = graph::kNoNode;  ///< edge-direction opinion
  std::uint64_t priority_version = 0;
};

/// Per-message fault probabilities, applied independently per send (drop,
/// duplicate, corrupt, delay) or per delivery pick (reorder is realized by
/// inserting at a random channel position at send time, which is the same
/// distribution). Corruption is *bounded*: every corrupted field stays
/// inside the domain the receivers already tolerate (the bounds mirror
/// Network::inject_garbage), so a corrupt message is indistinguishable from
/// arbitrary initial network state — exactly the transient-fault class the
/// protocol stabilizes from.
struct FaultModel {
  double drop = 0.0;       ///< message vanishes at send
  double duplicate = 0.0;  ///< message is enqueued twice
  double reorder = 0.0;    ///< message is inserted at a random position
                           ///< instead of the channel's back (breaks FIFO)
  double delay = 0.0;      ///< message must be passed over by
                           ///< `delay_deliveries` delivery picks first
  std::uint32_t delay_deliveries = 4;  ///< the k of delay-by-k-deliveries
  double corrupt = 0.0;    ///< bounded corruption of one random field
  /// Corruption bounds: counters draw below this modulus, depths inside
  /// [-depth_bound, depth_bound], versions below version_bound.
  std::uint32_t corrupt_counter_modulus = 4;
  std::int64_t corrupt_depth_bound = 16;
  std::uint64_t corrupt_version_bound = 1024;

  [[nodiscard]] bool reliable() const noexcept {
    return drop <= 0.0 && duplicate <= 0.0 && reorder <= 0.0 &&
           delay <= 0.0 && corrupt <= 0.0;
  }
};

/// FIFO channels addressed by (edge id, direction). Direction 0 carries
/// messages from edge.u to edge.v; direction 1 the reverse.
class Network {
 public:
  /// Keeps a reference to `g`, which must outlive the network.
  explicit Network(const graph::Graph& g, FaultModel model = {},
                   std::uint64_t fault_seed = 0);
  /// A temporary graph would dangle once the constructor returns.
  Network(graph::Graph&&, FaultModel = {}, std::uint64_t = 0) = delete;

  void send(graph::EdgeId e, int direction, const Message& m);

  [[nodiscard]] bool has_pending() const noexcept { return pending_ > 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t pending_on(graph::EdgeId e, int direction) const {
    return channels_.at(index(e, direction)).size();
  }

  /// Pops the head of a uniformly random non-empty channel. Returns the
  /// channel's (edge, direction) through the out-params. Precondition:
  /// has_pending(). A picked message still owing delivery delays is moved
  /// to the back of its channel instead and another pick is made (each
  /// deferral consumes one delay unit, so the loop terminates).
  Message deliver_random(util::Xoshiro256& rng, graph::EdgeId& edge_out,
                         int& direction_out);

  /// Drops every in-flight message (used by fault injection). The cleared
  /// messages count as dropped, keeping the conservation identity.
  void clear();

  /// Injects `count` random garbage messages on random channels (arbitrary
  /// initial network state for stabilization experiments).
  void inject_garbage(std::uint32_t count, util::Xoshiro256& rng,
                      std::uint32_t counter_modulus, std::int64_t depth_bound);

  /// Swaps the fault model mid-run (chaos campaigns suspend faults for
  /// their quiescent verification windows). The fault RNG stream is
  /// unchanged; in-flight delays keep counting down.
  void set_fault_model(const FaultModel& model) { model_ = model; }
  [[nodiscard]] const FaultModel& fault_model() const noexcept {
    return model_;
  }

  // Conservation identity (pinned by tests):
  //   total_sent() == total_delivered() + total_dropped() + pending().
  // A duplicated message counts as a second send, so duplication feeds the
  // sent side and the identity stays exact under every fault mix.
  [[nodiscard]] std::uint64_t total_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t total_delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    return dropped_;
  }
  [[nodiscard]] std::uint64_t total_duplicated() const noexcept {
    return duplicated_;
  }
  [[nodiscard]] std::uint64_t total_corrupted() const noexcept {
    return corrupted_;
  }

 private:
  /// A queued message plus the delivery picks it must still be passed over.
  struct InFlight {
    Message m;
    std::uint32_t delay = 0;
  };

  [[nodiscard]] std::size_t index(graph::EdgeId e, int direction) const {
    return 2 * static_cast<std::size_t>(e) + static_cast<std::size_t>(direction);
  }

  /// Enqueues one copy of `m` on channel `c`, applying reorder/delay/corrupt
  /// draws. Counts one send.
  void enqueue(std::size_t c, const Message& m);
  void corrupt_message(Message& m, graph::EdgeId e);

  const graph::Graph& graph_;
  FaultModel model_;
  util::Xoshiro256 fault_rng_;
  std::vector<std::deque<InFlight>> channels_;
  std::size_t pending_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t corrupted_ = 0;
};

}  // namespace diners::msgpass
