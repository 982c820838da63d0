#include "core/diners_system.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace diners::core {

namespace {
constexpr std::string_view kActionNames[DinersSystem::kNumActions] = {
    "join", "leave", "enter", "exit", "fixdepth"};
}  // namespace

DinersSystem::DinersSystem(graph::Graph g, DinersConfig config)
    : graph_(std::move(g)), config_(config) {
  if (!graph::is_connected(graph_)) {
    throw std::invalid_argument(
        "DinersSystem: topology must be connected (D is the diameter)");
  }
  d_ = config_.diameter_override ? *config_.diameter_override
                                 : graph::diameter(graph_);
  const auto n = graph_.num_nodes();
  states_.assign(n, DinerState::kThinking);
  depths_.assign(n, 0);
  needs_.assign(n, 1);
  alive_.assign(n, 1);
  meals_.assign(n, 0);
  // Legitimate initial orientation: the held (ancestor) endpoint is the
  // lower id, which yields an acyclic priority graph.
  priority_.reserve(graph_.num_edges());
  for (const auto& e : graph_.edges()) priority_.push_back(e.u);
}

std::string_view DinersSystem::action_name(ProcessId,
                                           sim::ActionIndex a) const {
  if (a >= kNumActions) throw std::out_of_range("action_name: bad index");
  return kActionNames[a];
}

DinersSystem::ProcessId DinersSystem::priority(ProcessId p, ProcessId q) const {
  const auto e = graph_.edge_index(p, q);
  if (e == graph::kNoEdge) {
    throw std::invalid_argument("priority: processes are not neighbors");
  }
  return priority_[e];
}

bool DinersSystem::is_direct_ancestor(ProcessId q, ProcessId p) const {
  return priority(p, q) == q;
}

std::vector<DinersSystem::ProcessId> DinersSystem::direct_ancestors(
    ProcessId p) const {
  std::vector<ProcessId> out;
  const auto& nbrs = graph_.neighbors(p);
  const auto& inc = graph_.incident_edges(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (priority_[inc[i]] == nbrs[i]) out.push_back(nbrs[i]);
  }
  return out;
}

std::vector<DinersSystem::ProcessId> DinersSystem::direct_descendants(
    ProcessId p) const {
  std::vector<ProcessId> out;
  const auto& nbrs = graph_.neighbors(p);
  const auto& inc = graph_.incident_edges(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (priority_[inc[i]] == p) out.push_back(nbrs[i]);
  }
  return out;
}

graph::Orientation DinersSystem::orientation() const {
  graph::Orientation o;
  o.ancestors.resize(graph_.num_nodes());
  for (ProcessId p = 0; p < graph_.num_nodes(); ++p) {
    o.ancestors[p] = direct_ancestors(p);
  }
  return o;
}

graph::AliveFn DinersSystem::alive_fn() const {
  return [this](graph::NodeId p) { return alive_[p] != 0; };
}

std::vector<DinersSystem::ProcessId> DinersSystem::dead_processes() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < graph_.num_nodes(); ++p) {
    if (!alive_[p]) out.push_back(p);
  }
  return out;
}

bool DinersSystem::all_direct_ancestors_thinking(ProcessId p) const {
  const auto& nbrs = graph_.neighbors(p);
  const auto& inc = graph_.incident_edges(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (priority_[inc[i]] == nbrs[i] &&
        states_[nbrs[i]] != DinerState::kThinking) {
      return false;
    }
  }
  return true;
}

bool DinersSystem::some_direct_ancestor_not_thinking(ProcessId p) const {
  return !all_direct_ancestors_thinking(p);
}

bool DinersSystem::some_direct_descendant_eating(ProcessId p) const {
  const auto& nbrs = graph_.neighbors(p);
  const auto& inc = graph_.incident_edges(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (priority_[inc[i]] == p && states_[nbrs[i]] == DinerState::kEating) {
      return true;
    }
  }
  return false;
}

std::int64_t DinersSystem::max_descendant_depth(ProcessId p) const {
  std::int64_t best = std::numeric_limits<std::int64_t>::min();
  const auto& nbrs = graph_.neighbors(p);
  const auto& inc = graph_.incident_edges(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (priority_[inc[i]] == p) best = std::max(best, depths_[nbrs[i]]);
  }
  return best;
}

bool DinersSystem::enabled(ProcessId p, sim::ActionIndex a) const {
  if (p >= graph_.num_nodes()) throw std::out_of_range("enabled: bad process");
  switch (a) {
    case kJoin:
      return needs_[p] != 0 && states_[p] == DinerState::kThinking &&
             all_direct_ancestors_thinking(p);
    case kLeave:
      return config_.enable_dynamic_threshold &&
             states_[p] == DinerState::kHungry &&
             some_direct_ancestor_not_thinking(p);
    case kEnter:
      return states_[p] == DinerState::kHungry &&
             all_direct_ancestors_thinking(p) &&
             !some_direct_descendant_eating(p);
    case kExit:
      return states_[p] == DinerState::kEating ||
             (config_.enable_cycle_breaking &&
              depths_[p] > static_cast<std::int64_t>(d_));
    case kFixDepth: {
      if (!config_.enable_cycle_breaking) return false;
      const std::int64_t m = max_descendant_depth(p);
      return m != std::numeric_limits<std::int64_t>::min() &&
             depths_[p] < m + 1;
    }
    default:
      throw std::out_of_range("enabled: bad action index");
  }
}

std::uint32_t DinersSystem::guard_mask(ProcessId p) const noexcept {
  // One CSR pass computes the four neighborhood aggregates every Figure 1
  // guard reads. priority(p,q) holds an endpoint id, so on each incident
  // edge q is either a direct ancestor (priority == q) or a direct
  // descendant (priority == p) — one comparison classifies the edge.
  bool anc_not_thinking = false;
  bool desc_eating = false;
  bool has_desc = false;
  std::int64_t maxd = std::numeric_limits<std::int64_t>::min();
  const std::uint32_t* offsets = graph_.raw_offsets();
  const graph::NodeId* nbrs = graph_.raw_neighbors();
  const graph::EdgeId* eids = graph_.raw_edge_ids();
  for (std::uint32_t i = offsets[p], end = offsets[p + 1]; i != end; ++i) {
    const ProcessId q = nbrs[i];
    const bool desc = priority_[eids[i]] == p;
    const DinerState sq = states_[q];
    anc_not_thinking |= !desc && sq != DinerState::kThinking;
    desc_eating |= desc && sq == DinerState::kEating;
    has_desc |= desc;
    if (desc && depths_[q] > maxd) maxd = depths_[q];
  }
  const DinerState s = states_[p];
  const bool thinking = s == DinerState::kThinking;
  const bool hungry = s == DinerState::kHungry;
  const bool eating = s == DinerState::kEating;
  const bool all_anc_thinking = !anc_not_thinking;
  const bool cycle = config_.enable_cycle_breaking;
  std::uint32_t mask = 0;
  mask |= static_cast<std::uint32_t>(needs_[p] != 0 && thinking &&
                                     all_anc_thinking)
          << kJoin;
  mask |= static_cast<std::uint32_t>(config_.enable_dynamic_threshold &&
                                     hungry && anc_not_thinking)
          << kLeave;
  mask |= static_cast<std::uint32_t>(hungry && all_anc_thinking &&
                                     !desc_eating)
          << kEnter;
  mask |= static_cast<std::uint32_t>(
              eating ||
              (cycle && depths_[p] > static_cast<std::int64_t>(d_)))
          << kExit;
  // fixdepth guard depth < max + 1 rewritten as depth <= max: equivalent on
  // every representable max and free of signed overflow at INT64_MAX.
  mask |= static_cast<std::uint32_t>(cycle && has_desc && depths_[p] <= maxd)
          << kFixDepth;
  return mask;
}

void DinersSystem::execute(ProcessId p, sim::ActionIndex a) {
  if (!enabled(p, a)) {
    throw std::logic_error("execute: action is not enabled");
  }
  apply_action(p, a);
}

void DinersSystem::apply_action(ProcessId p, sim::ActionIndex a) {
  switch (a) {
    case kJoin:
      states_[p] = DinerState::kHungry;
      break;
    case kLeave:
      states_[p] = DinerState::kThinking;
      break;
    case kEnter:
      states_[p] = DinerState::kEating;
      ++meals_[p];
      ++total_meals_;
      break;
    case kExit: {
      states_[p] = DinerState::kThinking;
      depths_[p] = 0;
      const auto& inc = graph_.incident_edges(p);
      const auto& nbrs = graph_.neighbors(p);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        priority_[inc[i]] = nbrs[i];  // every neighbor becomes an ancestor
      }
      break;
    }
    case kFixDepth: {
      // The guard guarantees some descendant violates the bound; taking the
      // max is one of the nondeterministic choices the paper's action
      // permits (pick q = argmax). A replay file may hold any int64 depth,
      // so max + 1 saturates at INT64_MAX; the guard (depth <= max) then
      // still holds and fixdepth stays enabled.
      const std::int64_t m = max_descendant_depth(p);
      depths_[p] = m == std::numeric_limits<std::int64_t>::max() ? m : m + 1;
      break;
    }
    default:
      throw std::out_of_range("apply_action: bad action index");
  }
}

bool DinersSystem::affected(ProcessId p, sim::ActionIndex a,
                            std::vector<ProcessId>& out) const {
  // The engine re-evaluates p itself. Which neighbours read what an action
  // wrote is the table in the header; join, leave and fixdepth keep every
  // priority, so p's ancestors and descendants are the same before and
  // after the step.
  const std::uint32_t* offsets = graph_.raw_offsets();
  const graph::NodeId* nbrs = graph_.raw_neighbors();
  const graph::EdgeId* eids = graph_.raw_edge_ids();
  const std::uint32_t begin = offsets[p];
  const std::uint32_t end = offsets[p + 1];
  bool descendants = false;
  switch (a) {
    case kJoin:
    case kLeave:
      descendants = true;
      break;
    case kEnter:
      return true;
    case kFixDepth:
      break;
    default:  // exit
      out.insert(out.end(), nbrs + begin, nbrs + end);
      return true;
  }
  for (std::uint32_t i = begin; i != end; ++i) {
    if ((priority_[eids[i]] == p) == descendants) out.push_back(nbrs[i]);
  }
  return true;
}

void DinersSystem::set_needs(ProcessId p, bool wants) {
  needs_.at(p) = wants ? 1 : 0;
}

void DinersSystem::set_state(ProcessId p, DinerState s) { states_.at(p) = s; }

void DinersSystem::set_depth(ProcessId p, std::int64_t depth) {
  depths_.at(p) = depth;
}

void DinersSystem::set_priority(ProcessId p, ProcessId q, ProcessId owner) {
  const auto e = graph_.edge_index(p, q);
  if (e == graph::kNoEdge) {
    throw std::invalid_argument("set_priority: processes are not neighbors");
  }
  if (owner != p && owner != q) {
    throw std::invalid_argument("set_priority: owner must be an endpoint");
  }
  priority_[e] = owner;
}

void DinersSystem::crash(ProcessId p) {
  if (alive_.at(p)) {
    alive_[p] = 0;
    ++dead_count_;
  }
}

void DinersSystem::restart(ProcessId p) {
  if (alive_.at(p)) return;
  alive_[p] = 1;
  --dead_count_;
  states_[p] = DinerState::kThinking;
  depths_[p] = 0;
  const auto& inc = graph_.incident_edges(p);
  const auto& nbrs = graph_.neighbors(p);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    priority_[inc[i]] = nbrs[i];  // yield every edge, as exit does
  }
}

void DinersSystem::reset_meals() {
  std::fill(meals_.begin(), meals_.end(), 0);
  total_meals_ = 0;
}

}  // namespace diners::core
