#include "analysis/invariants.hpp"

#include <algorithm>
#include <deque>

namespace diners::analysis {

using core::DinerState;
using core::DinersSystem;
using ProcessId = DinersSystem::ProcessId;

namespace {

// The flat oracle (DESIGN.md §12), fail-fast. Without `shallow` it decides
// NC; with it NC ∧ ST, since ST holds iff every live process is shallow and
// a live cycle always holds a live process that is not. Kahn order over live
// processes along ancestor->descendant edges: when u pops, l:u is final, so
// SH:u is decided there against every direct descendant, dead ones included.
// A live process that never pops lies on or below a live cycle.
bool flat_nc_st(const DinersSystem& system, bool shallow) {
  const ProcessId n = system.topology().num_nodes();
  const auto d = static_cast<std::int64_t>(system.diameter_constant());
  if (shallow) {
    for (ProcessId p = 0; p < n; ++p) {
      if (system.alive(p) && system.depth(p) > d) return false;
    }
  }
  const graph::Graph& g = system.topology();
  const std::uint32_t* offsets = g.raw_offsets();
  const graph::NodeId* nbrs = g.raw_neighbors();
  const graph::EdgeId* eids = g.raw_edge_ids();
  std::vector<std::uint32_t> indegree(n, 0);  // live direct ancestors
  std::vector<std::uint32_t> chain(n, 1);     // l:p, final once p pops
  std::vector<ProcessId> queue(n);
  std::uint32_t tail = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (!system.alive(p)) continue;
    for (std::uint32_t i = offsets[p]; i != offsets[p + 1]; ++i) {
      const ProcessId q = nbrs[i];
      if (system.edge_priority(eids[i]) == q && system.alive(q)) {
        ++indegree[p];
      }
    }
    if (indegree[p] == 0) queue[tail++] = p;
  }
  for (std::uint32_t head = 0; head != tail; ++head) {
    const ProcessId u = queue[head];
    const std::int64_t du = shallow ? system.depth(u) : 0;
    const std::int64_t lu = chain[u];
    for (std::uint32_t i = offsets[u]; i != offsets[u + 1]; ++i) {
      if (system.edge_priority(eids[i]) != u) continue;  // q is an ancestor
      const ProcessId q = nbrs[i];
      if (shallow) {
        // ¬SH:u is depth:q + l:u > D and depth:q + 1 > depth:u, compared
        // without the additions, which overflow near INT64_MAX.
        const std::int64_t dq = system.depth(q);
        if (dq > d - lu && dq >= du) return false;
      }
      if (!system.alive(q)) continue;
      chain[q] = std::max(chain[q], chain[u] + 1);
      if (--indegree[q] == 0) queue[tail++] = q;
    }
  }
  return tail == n - system.dead_count();
}

}  // namespace

bool holds_nc(const DinersSystem& system) {
  return flat_nc_st(system, /*shallow=*/false);
}

std::vector<bool> shallow_processes(const DinersSystem& system) {
  return shallow_processes(system, ShallowContext(system));
}

std::vector<bool> stably_shallow_processes(const DinersSystem& system) {
  return stably_shallow_processes(system, ShallowContext(system));
}

bool holds_st(const DinersSystem& system) {
  return flat_nc_st(system, /*shallow=*/true);
}

bool holds_e(const DinersSystem& system) {
  return eating_violation_count(system) == 0;
}

std::size_t eating_violation_count(const DinersSystem& system) {
  std::size_t count = 0;
  for (const auto& e : system.topology().edges()) {
    const bool both_eating = system.state(e.u) == DinerState::kEating &&
                             system.state(e.v) == DinerState::kEating;
    if (both_eating && (system.alive(e.u) || system.alive(e.v))) ++count;
  }
  return count;
}

bool holds_invariant(const DinersSystem& system) {
  return flat_nc_st(system, /*shallow=*/true) && holds_e(system);
}

void ShallowContext::refresh(const DinersSystem& system) {
  orientation_ = system.orientation();
  const auto n = orientation_.ancestors.size();
  descendants_.assign(n, {});
  for (std::size_t p = 0; p < n; ++p) {
    for (graph::NodeId anc : orientation_.ancestors[p]) {
      descendants_[anc].push_back(static_cast<graph::NodeId>(p));
    }
  }
  chain_ = graph::longest_live_ancestor_chain(orientation_, system.alive_fn());
}

bool holds_nc(const DinersSystem& system, const ShallowContext& ctx) {
  return !graph::has_directed_cycle(ctx.orientation(), system.alive_fn());
}

std::vector<bool> shallow_processes(const DinersSystem& system,
                                    const ShallowContext& ctx) {
  const auto n = system.topology().num_nodes();
  const auto& chain = ctx.chain();
  const auto d = static_cast<std::int64_t>(system.diameter_constant());
  std::vector<bool> shallow(n, false);
  for (ProcessId p = 0; p < n; ++p) {
    if (!system.alive(p)) {
      shallow[p] = true;  // first disjunct of SH:p
      continue;
    }
    if (system.depth(p) > d) continue;
    // l:p; kUnreachable means the live ancestor chain is unbounded (cycle),
    // in which case depth:q + l:p <= D can never hold.
    const bool chain_bounded = chain[p] != graph::kUnreachable;
    const auto lp = static_cast<std::int64_t>(chain[p]);
    bool ok = true;
    for (ProcessId q : ctx.descendants()[p]) {
      // Both tests are rearranged so a depth near INT64_MAX cannot overflow.
      const std::int64_t dq = system.depth(q);
      const bool cannot_overflow = chain_bounded && dq <= d - lp;
      const bool fixdepth_disabled = dq < system.depth(p);
      if (!cannot_overflow && !fixdepth_disabled) {
        ok = false;
        break;
      }
    }
    shallow[p] = ok;
  }
  return shallow;
}

std::vector<bool> stably_shallow_processes(const DinersSystem& system,
                                           const ShallowContext& ctx) {
  const auto n = system.topology().num_nodes();
  const auto shallow = shallow_processes(system, ctx);
  // Stably shallow = shallow and no descendant path reaches a live deep
  // process: BFS back from the live deep processes along ancestor edges.
  std::vector<bool> reaches_deep(n, false);
  std::deque<ProcessId> queue;
  for (ProcessId p = 0; p < n; ++p) {
    if (system.alive(p) && !shallow[p]) {
      reaches_deep[p] = true;
      queue.push_back(p);
    }
  }
  while (!queue.empty()) {
    const ProcessId q = queue.front();
    queue.pop_front();
    for (ProcessId anc : ctx.orientation().ancestors[q]) {
      if (!reaches_deep[anc]) {
        reaches_deep[anc] = true;
        queue.push_back(anc);
      }
    }
  }
  std::vector<bool> stable(n, false);
  for (ProcessId p = 0; p < n; ++p) {
    if (!system.alive(p)) {
      stable[p] = true;  // dead processes are stably shallow by definition
    } else {
      stable[p] = shallow[p] && !reaches_deep[p];
    }
  }
  return stable;
}

bool holds_st(const DinersSystem& system, const ShallowContext& ctx) {
  for (bool s : stably_shallow_processes(system, ctx)) {
    if (!s) return false;
  }
  return true;
}

bool holds_invariant(const DinersSystem& system, const ShallowContext& ctx) {
  return holds_nc(system, ctx) && holds_st(system, ctx) && holds_e(system);
}

}  // namespace diners::analysis
