#include "msgpass/mp_diners.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/algorithms.hpp"

namespace diners::msgpass {

using core::DinerState;

MessagePassingDiners::MessagePassingDiners(graph::Graph g,
                                           core::DinersConfig config,
                                           MpOptions options)
    : graph_(std::move(g)),
      config_(config),
      options_(options),
      rng_(util::derive_seed(options.seed, 0x3b)),
      network_(graph_, options.network_faults,
               util::derive_seed(options.seed, 0x3c)) {
  if (options_.handshake_modulus < 2) {
    throw std::invalid_argument("MessagePassingDiners: K must be >= 2");
  }
  if (!graph::is_connected(graph_)) {
    throw std::invalid_argument("MessagePassingDiners: topology must connect");
  }
  d_ = config_.diameter_override ? *config_.diameter_override
                                 : graph::diameter(graph_);
  const auto n = graph_.num_nodes();
  states_.assign(n, DinerState::kThinking);
  depths_.assign(n, 0);
  needs_.assign(n, 1);
  alive_.assign(n, 1);
  hold_eating_.assign(n, 0);
  meals_.assign(n, 0);
  endpoints_.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    const auto& nbrs = graph_.neighbors(p);
    endpoints_[p].resize(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      endpoints_[p][i].priority_owner = std::min(p, nbrs[i]);
    }
  }
}

std::size_t MessagePassingDiners::slot_of(ProcessId p, graph::EdgeId e) const {
  const auto& inc = graph_.incident_edges(p);
  for (std::size_t i = 0; i < inc.size(); ++i) {
    if (inc[i] == e) return i;
  }
  throw std::invalid_argument("slot_of: edge not incident");
}

bool MessagePassingDiners::is_bottom(ProcessId p, std::size_t slot) const {
  return p < graph_.neighbors(p)[slot];
}

bool MessagePassingDiners::privileged(ProcessId p, std::size_t slot) const {
  const EdgeEndpoint& ep = endpoints_[p][slot];
  return is_bottom(p, slot) ? ep.my_counter == ep.seen_counter
                            : ep.my_counter != ep.seen_counter;
}

bool MessagePassingDiners::holds_token(ProcessId p, graph::EdgeId e) const {
  return privileged(p, slot_of(p, e));
}

bool MessagePassingDiners::cached_is_ancestor(ProcessId p,
                                              std::size_t slot) const {
  // The neighbor is p's direct ancestor iff the edge-direction opinion says
  // the neighbor endpoint holds priority.
  return endpoints_[p][slot].priority_owner == graph_.neighbors(p)[slot];
}

bool MessagePassingDiners::ancestors_all_thinking(ProcessId p) const {
  const auto& eps = endpoints_[p];
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (cached_is_ancestor(p, i) &&
        eps[i].cached_state != DinerState::kThinking) {
      return false;
    }
  }
  return true;
}

bool MessagePassingDiners::some_ancestor_not_thinking(ProcessId p) const {
  return !ancestors_all_thinking(p);
}

bool MessagePassingDiners::some_descendant_eating(ProcessId p) const {
  const auto& eps = endpoints_[p];
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (!cached_is_ancestor(p, i) &&
        eps[i].cached_state == DinerState::kEating) {
      return true;
    }
  }
  return false;
}

std::int64_t MessagePassingDiners::max_descendant_depth(ProcessId p) const {
  std::int64_t best = std::numeric_limits<std::int64_t>::min();
  const auto& eps = endpoints_[p];
  for (std::size_t i = 0; i < eps.size(); ++i) {
    if (!cached_is_ancestor(p, i)) best = std::max(best, eps[i].cached_depth);
  }
  return best;
}

bool MessagePassingDiners::holds_all_tokens(ProcessId p) const {
  for (std::size_t i = 0; i < endpoints_[p].size(); ++i) {
    if (!privileged(p, i)) return false;
  }
  return true;
}

void MessagePassingDiners::send_mirror(ProcessId p, std::size_t slot,
                                       bool /*moved_counter*/) {
  const EdgeEndpoint& ep = endpoints_[p][slot];
  Message m;
  m.counter = ep.my_counter;
  m.state = static_cast<std::uint8_t>(states_[p]);
  m.depth = depths_[p];
  m.priority_owner = ep.priority_owner;
  m.priority_version = ep.priority_version;
  const graph::EdgeId e = graph_.incident_edges(p)[slot];
  const auto& edge = graph_.edge(e);
  network_.send(e, p == edge.u ? 0 : 1, m);
}

void MessagePassingDiners::release_token(ProcessId p, std::size_t slot) {
  EdgeEndpoint& ep = endpoints_[p][slot];
  if (!privileged(p, slot)) return;
  if (is_bottom(p, slot)) {
    ep.my_counter = static_cast<std::uint8_t>(
        (ep.my_counter + 1) % options_.handshake_modulus);
  } else {
    ep.my_counter = ep.seen_counter;
  }
  send_mirror(p, slot, /*moved_counter=*/true);
}

void MessagePassingDiners::protocol_step(ProcessId p) {
  const auto d = static_cast<std::int64_t>(d_);
  const DinerState st = states_[p];
  const auto& nbrs = graph_.neighbors(p);

  bool transitioned = false;
  // A pinned lease (hold_eating_) defers the voluntary exit; the
  // cycle-breaking exit still fires — the lease is revocable when a
  // corrupted priority cycle must be broken.
  if ((st == DinerState::kEating && hold_eating_[p] == 0) ||
      (config_.enable_cycle_breaking && depths_[p] > d)) {
    // exit: yield every edge with a dominating version, release all tokens.
    states_[p] = DinerState::kThinking;
    depths_[p] = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      EdgeEndpoint& ep = endpoints_[p][i];
      ep.priority_owner = nbrs[i];
      ++ep.priority_version;
    }
    transitioned = true;
  } else if (st == DinerState::kHungry && ancestors_all_thinking(p) &&
             !some_descendant_eating(p) && holds_all_tokens(p)) {
    // enter
    states_[p] = DinerState::kEating;
    ++meals_[p];
    ++total_meals_;
    transitioned = true;
  } else if (config_.enable_dynamic_threshold &&
             st == DinerState::kHungry && some_ancestor_not_thinking(p)) {
    // leave
    states_[p] = DinerState::kThinking;
    transitioned = true;
  } else if (needs_[p] != 0 && st == DinerState::kThinking &&
             ancestors_all_thinking(p)) {
    // join
    states_[p] = DinerState::kHungry;
    transitioned = true;
  } else if (config_.enable_cycle_breaking) {
    const std::int64_t m = max_descendant_depth(p);
    if (m != std::numeric_limits<std::int64_t>::min() && depths_[p] < m + 1) {
      depths_[p] = m + 1;
      transitioned = true;
    }
  }

  // Token management: eating keeps everything (exclusion). A hungry process
  // keeps tokens against descendants and against *thinking* ancestors (it
  // intends to eat first) but defers to non-thinking ancestors — the token
  // analogue of the leave guard, so token demand follows the acyclic
  // priority graph and cannot form a waiting cycle. Thinking processes let
  // tokens circulate freely.
  if (states_[p] != DinerState::kEating) {
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!privileged(p, i)) continue;
      const bool ancestor_active =
          cached_is_ancestor(p, i) &&
          endpoints_[p][i].cached_state != DinerState::kThinking;
      const bool keep =
          states_[p] == DinerState::kHungry && !ancestor_active;
      if (!keep) release_token(p, i);
    }
  }

  if (transitioned) {
    // Publish the new local state on every edge (kept tokens included).
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      send_mirror(p, i, false);
    }
  }
}

void MessagePassingDiners::handle_message(ProcessId p, graph::EdgeId e,
                                          const Message& m) {
  if (!alive_[p]) return;  // dead processes drop their mail
  const std::size_t slot = slot_of(p, e);
  EdgeEndpoint& ep = endpoints_[p][slot];
  ep.seen_counter = m.counter;
  if (m.state <= 2) ep.cached_state = static_cast<DinerState>(m.state);
  ep.cached_depth = m.depth;
  const auto& edge = graph_.edge(e);
  const bool valid_owner =
      m.priority_owner == edge.u || m.priority_owner == edge.v;
  if (valid_owner) {
    if (m.priority_version > ep.priority_version ||
        (m.priority_version == ep.priority_version &&
         m.priority_owner < ep.priority_owner)) {
      ep.priority_owner = m.priority_owner;
      ep.priority_version = m.priority_version;
    }
  }
  protocol_step(p);
}

void MessagePassingDiners::tick(ProcessId p) {
  if (!alive_[p]) return;
  protocol_step(p);
  // Cache-refresh resend (self-stabilization of mirrors).
  for (std::size_t i = 0; i < graph_.neighbors(p).size(); ++i) {
    send_mirror(p, i, false);
  }
}

void MessagePassingDiners::step() {
  if (network_.has_pending() && !rng_.chance(options_.tick_probability)) {
    graph::EdgeId e = graph::kNoEdge;
    int direction = 0;
    const Message m = network_.deliver_random(rng_, e, direction);
    const auto& edge = graph_.edge(e);
    handle_message(direction == 0 ? edge.v : edge.u, e, m);
  } else {
    tick(static_cast<ProcessId>(rng_.below(graph_.num_nodes())));
  }
}

void MessagePassingDiners::run(std::uint64_t steps) {
  for (std::uint64_t i = 0; i < steps; ++i) step();
}

void MessagePassingDiners::set_needs(ProcessId p, bool wants) {
  needs_.at(p) = wants ? 1 : 0;
}

void MessagePassingDiners::crash(ProcessId p) { alive_.at(p) = 0; }

void MessagePassingDiners::restart(ProcessId p) {
  if (alive_.at(p)) return;
  alive_[p] = 1;
  states_[p] = DinerState::kThinking;
  depths_[p] = 0;
  hold_eating_[p] = 0;  // a restart revokes any pinned lease
  const auto& nbrs = graph_.neighbors(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    EdgeEndpoint& ep = endpoints_[p][i];
    ep.my_counter = 0;
    ep.seen_counter = 0;
    ep.cached_state = DinerState::kThinking;
    ep.cached_depth = 0;
    ep.priority_owner = nbrs[i];  // yield every edge, as exit does
    ++ep.priority_version;
  }
  // Announce the rejoin so neighbors refresh their caches promptly (ticks
  // would eventually do it anyway; this is the production node's "join").
  for (std::size_t i = 0; i < nbrs.size(); ++i) send_mirror(p, i, false);
}

void MessagePassingDiners::corrupt(util::Xoshiro256& rng) {
  const auto n = graph_.num_nodes();
  const auto d = static_cast<std::int64_t>(d_);
  for (ProcessId p = 0; p < n; ++p) {
    states_[p] = core::kAllDinerStates[rng.below(3)];
    depths_[p] = rng.between(-4, d + 4);
    for (auto& ep : endpoints_[p]) {
      ep.my_counter =
          static_cast<std::uint8_t>(rng.below(options_.handshake_modulus));
      ep.seen_counter =
          static_cast<std::uint8_t>(rng.below(options_.handshake_modulus));
      ep.cached_state = core::kAllDinerStates[rng.below(3)];
      ep.cached_depth = rng.between(-4, d + 4);
      ep.priority_version = rng.below(64);
    }
  }
  network_.clear();
  network_.inject_garbage(static_cast<std::uint32_t>(2 * graph_.num_edges()),
                          rng, options_.handshake_modulus, d + 4);
}

std::size_t MessagePassingDiners::eating_violations() const {
  std::size_t count = 0;
  for (const auto& e : graph_.edges()) {
    if (states_[e.u] == DinerState::kEating &&
        states_[e.v] == DinerState::kEating &&
        (alive_[e.u] || alive_[e.v])) {
      ++count;
    }
  }
  return count;
}

}  // namespace diners::msgpass
