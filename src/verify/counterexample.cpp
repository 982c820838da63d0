// Counterexample file grammar (one token-separated record per line):
//
//   # free comment lines anywhere
//   property <word>
//   detail <rest of line>
//   nodes <n>
//   edges <m> <u> <v> ... (m pairs, in edge-id order)
//   config D <resolved diameter> dynamic <0|1> cyclebreak <0|1>
//   state/depth/needs/alive/priority lines (core::write_snapshot form)
//   events <total> stem <stem length>
//   action <process> <action index> <action name>
//   crash <process>
//   write <process> <T|H|E> <depth> <owner per incident edge>
#include "verify/counterexample.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/invariants.hpp"
#include "analysis/replay.hpp"
#include "graph/algorithms.hpp"
#include "runtime/trace.hpp"

namespace diners::verify {

namespace {

core::DinerState parse_state_token(const std::string& token) {
  if (token == "T") return core::DinerState::kThinking;
  if (token == "H") return core::DinerState::kHungry;
  if (token == "E") return core::DinerState::kEating;
  throw std::invalid_argument("read_counterexample: bad state token '" +
                              token + "'");
}

CexEvent write_event(const StateCodec& codec, const Key& key,
                     sim::ProcessId victim) {
  CexEvent e;
  e.kind = CexEvent::Kind::kWrite;
  e.process = victim;
  e.wstate = codec.state_of(key, victim);
  e.wdepth = codec.depth_of(key, victim);
  for (graph::EdgeId edge : codec.topology().incident_edges(victim)) {
    e.wowners.push_back(codec.edge_owner(key, edge));
  }
  return e;
}

CexEvent action_event(std::uint16_t move) {
  CexEvent e;
  e.kind = CexEvent::Kind::kAction;
  e.process = move_process(move);
  e.action = move_action(move);
  return e;
}

}  // namespace

Stem stem_to(const StateGraph& g, const StateCodec& codec,
             std::optional<sim::ProcessId> victim, std::uint32_t state,
             std::uint16_t start_frame) {
  // Collect the BFS-tree path seed -> state.
  std::vector<std::uint32_t> path{state};
  while (g.parent[path.back()] != kNoIndex) path.push_back(g.parent[path.back()]);
  std::reverse(path.begin(), path.end());

  Stem stem;
  stem.seed = path.front();
  stem.end_frame = start_frame;
  const SymmetryGroup* grp = g.sym.get();
  std::uint16_t frame = start_frame;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const std::uint32_t cur = path[i];
    const std::uint16_t move = g.parent_move[cur];
    CexEvent e;
    if (move >= kDemonMoveBase) {
      if (!victim) {
        throw std::logic_error("stem_to: demonic move without a victim");
      }
      // The demonic write lands the system in this state; render the
      // victim's concrete written fields (under symmetry: of the concrete
      // instance A_{frame'^{-1}}(rep), with the arc witness folded in —
      // the victim itself is fixed by every frame, since frames preserve
      // the alive labels).
      if (grp != nullptr) {
        frame = grp->compose(g.parent_witness[cur], frame);
        e = write_event(codec, grp->apply(grp->inverse(frame), g.keys[cur]),
                        *victim);
      } else {
        e = write_event(codec, g.keys[cur], *victim);
      }
    } else if (grp != nullptr) {
      e = action_event(grp->permute_move(grp->inverse(frame), move));
      frame = grp->compose(g.parent_witness[cur], frame);
    } else {
      e = action_event(move);
    }
    stem.events.push_back(std::move(e));
  }
  stem.end_frame = grp != nullptr ? frame : start_frame;
  return stem;
}

std::vector<CexEvent> arcs_to_events(
    const std::vector<StateGraph::Arc>& arcs) {
  std::vector<CexEvent> events;
  events.reserve(arcs.size());
  for (const auto& arc : arcs) events.push_back(action_event(arc.move));
  return events;
}

std::vector<CexEvent> cycle_to_events(
    const StateGraph& g, std::uint16_t start_frame,
    const std::vector<StateGraph::Arc>& arcs) {
  if (g.sym == nullptr) return arcs_to_events(arcs);
  const SymmetryGroup& grp = *g.sym;
  std::vector<CexEvent> events;
  events.reserve(arcs.size());
  std::uint16_t frame = start_frame;
  for (const auto& arc : arcs) {
    events.push_back(
        action_event(grp.permute_move(grp.inverse(frame), arc.move)));
    frame = grp.compose(arc.witness, frame);
  }
  return events;
}

Counterexample compose_counterexample(const StateGraph& healthy,
                                      const StateCodec& codec,
                                      const core::DinersSystem& prototype,
                                      std::optional<sim::ProcessId> victim,
                                      const StateGraph* crashed,
                                      const Violation& v) {
  const StateGraph& vg = crashed != nullptr ? *crashed : healthy;
  Stem stem = stem_to(vg, codec, victim, v.state);

  Counterexample cex;
  cex.property = v.property;
  cex.detail = v.detail;

  Key start_key = healthy.keys[stem.seed];
  if (crashed != nullptr) {
    Stem pre = stem_to(healthy, codec, std::nullopt, stem.seed);
    if (healthy.sym != nullptr &&
        pre.end_frame != SymmetryGroup::kIdentity) {
      const std::uint16_t f = pre.end_frame;
      pre = stem_to(healthy, codec, std::nullopt, stem.seed,
                    healthy.sym->inverse(f));
      start_key = healthy.sym->apply(f, healthy.keys[pre.seed]);
    } else {
      start_key = healthy.keys[pre.seed];
    }
    cex.events = std::move(pre.events);
    CexEvent crash;
    crash.kind = CexEvent::Kind::kCrash;
    crash.process = *victim;
    cex.events.push_back(std::move(crash));
  }
  cex.events.insert(cex.events.end(), stem.events.begin(), stem.events.end());

  if (v.kind == Violation::Kind::kClosure) {
    std::uint16_t move = v.move;
    if (vg.sym != nullptr) {
      move = vg.sym->permute_move(vg.sym->inverse(stem.end_frame), move);
    }
    cex.events.push_back(action_event(move));
  }
  cex.stem_length = cex.events.size();
  if (v.kind == Violation::Kind::kCycle) {
    auto cycle = cycle_to_events(vg, stem.end_frame, v.cycle);
    cex.events.insert(cex.events.end(), cycle.begin(), cycle.end());
  }

  core::DinersSystem start = core::clone(prototype);
  codec.decode(start_key, start);
  cex.start = core::capture(start);
  return cex;
}

void write_counterexample(std::ostream& os, const graph::Graph& g,
                          const core::DinersConfig& config,
                          const Counterexample& cex) {
  os << "# diners counterexample\n";
  os << "property " << cex.property << '\n';
  os << "detail " << cex.detail << '\n';
  os << "nodes " << g.num_nodes() << '\n';
  os << "edges " << g.num_edges();
  for (const auto& e : g.edges()) os << ' ' << e.u << ' ' << e.v;
  os << '\n';
  const std::uint32_t d = config.diameter_override
                              ? *config.diameter_override
                              : graph::diameter(g);
  os << "config D " << d << " dynamic "
     << (config.enable_dynamic_threshold ? 1 : 0) << " cyclebreak "
     << (config.enable_cycle_breaking ? 1 : 0) << '\n';
  core::write_snapshot(os, cex.start);
  os << "events " << cex.events.size() << " stem " << cex.stem_length
     << '\n';
  static constexpr std::string_view kNames[] = {"join", "leave", "enter",
                                                "exit", "fixdepth"};
  for (const auto& e : cex.events) {
    switch (e.kind) {
      case CexEvent::Kind::kAction:
        os << "action " << e.process << ' ' << e.action << ' '
           << (e.action < 5 ? kNames[e.action] : "?") << '\n';
        break;
      case CexEvent::Kind::kCrash:
        os << "crash " << e.process << '\n';
        break;
      case CexEvent::Kind::kWrite:
        os << "write " << e.process << ' ' << core::to_string(e.wstate)
           << ' ' << e.wdepth;
        for (auto o : e.wowners) os << ' ' << o;
        os << '\n';
        break;
    }
  }
}

namespace {

/// Next non-comment line split into tokens; throws on EOF.
std::vector<std::string> next_record(std::istream& is) {
  std::string raw;
  while (std::getline(is, raw)) {
    if (raw.empty() || raw[0] == '#') continue;
    std::istringstream line(raw);
    std::vector<std::string> tokens;
    std::string token;
    while (line >> token) tokens.push_back(token);
    if (!tokens.empty()) return tokens;
  }
  throw std::invalid_argument("read_counterexample: truncated file");
}

std::int64_t to_i64(const std::string& token, const char* what) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(token, &pos);
    if (pos != token.size()) throw std::invalid_argument(token);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("read_counterexample: bad ") +
                                what + " token '" + token + "'");
  }
}

void expect(bool ok, const std::string& what) {
  if (!ok) {
    throw std::invalid_argument("read_counterexample: malformed " + what +
                                " line");
  }
}

}  // namespace

LoadedCounterexample read_counterexample(std::istream& is) {
  auto rec = next_record(is);
  expect(rec.size() == 2 && rec[0] == "property", "property");
  Counterexample cex;
  cex.property = rec[1];

  // detail is free text: re-split is wrong, but detail is informative only.
  rec = next_record(is);
  expect(!rec.empty() && rec[0] == "detail", "detail");
  for (std::size_t i = 1; i < rec.size(); ++i) {
    if (i > 1) cex.detail += ' ';
    cex.detail += rec[i];
  }

  rec = next_record(is);
  expect(rec.size() == 2 && rec[0] == "nodes", "nodes");
  const auto n = static_cast<graph::NodeId>(to_i64(rec[1], "nodes"));

  rec = next_record(is);
  expect(rec.size() >= 2 && rec[0] == "edges", "edges");
  const auto m = static_cast<std::size_t>(to_i64(rec[1], "edge count"));
  expect(rec.size() == 2 + 2 * m, "edges");
  graph::Graph::Builder builder(n);
  for (std::size_t e = 0; e < m; ++e) {
    builder.add_edge(
        static_cast<graph::NodeId>(to_i64(rec[2 + 2 * e], "edge endpoint")),
        static_cast<graph::NodeId>(to_i64(rec[3 + 2 * e], "edge endpoint")));
  }
  graph::Graph g = std::move(builder).build();

  rec = next_record(is);
  expect(rec.size() == 7 && rec[0] == "config" && rec[1] == "D" &&
             rec[3] == "dynamic" && rec[5] == "cyclebreak",
         "config");
  core::DinersConfig config;
  config.diameter_override =
      static_cast<std::uint32_t>(to_i64(rec[2], "config D"));
  config.enable_dynamic_threshold = to_i64(rec[4], "config dynamic") != 0;
  config.enable_cycle_breaking = to_i64(rec[6], "config cyclebreak") != 0;

  // Snapshot: 5 fixed lines in write_snapshot order.
  std::string snapshot_text;
  for (int i = 0; i < 5; ++i) {
    const auto toks = next_record(is);
    for (const auto& t : toks) snapshot_text += t + ' ';
    snapshot_text += '\n';
  }
  std::istringstream snapshot_stream(snapshot_text);
  cex.start = core::read_snapshot(snapshot_stream);

  rec = next_record(is);
  expect(rec.size() == 4 && rec[0] == "events" && rec[2] == "stem",
         "events");
  const auto total = static_cast<std::size_t>(to_i64(rec[1], "event count"));
  cex.stem_length = static_cast<std::size_t>(to_i64(rec[3], "stem length"));
  expect(cex.stem_length <= total, "events");

  for (std::size_t i = 0; i < total; ++i) {
    rec = next_record(is);
    CexEvent e;
    if (rec[0] == "action") {
      expect(rec.size() >= 3, "action");
      e.kind = CexEvent::Kind::kAction;
      e.process = static_cast<sim::ProcessId>(to_i64(rec[1], "process"));
      e.action = static_cast<sim::ActionIndex>(to_i64(rec[2], "action"));
    } else if (rec[0] == "crash") {
      expect(rec.size() == 2, "crash");
      e.kind = CexEvent::Kind::kCrash;
      e.process = static_cast<sim::ProcessId>(to_i64(rec[1], "process"));
    } else if (rec[0] == "write") {
      expect(rec.size() >= 4, "write");
      e.kind = CexEvent::Kind::kWrite;
      e.process = static_cast<sim::ProcessId>(to_i64(rec[1], "process"));
      e.wstate = parse_state_token(rec[2]);
      e.wdepth = to_i64(rec[3], "depth");
      expect(e.process < n &&
                 rec.size() == 4 + g.incident_edges(e.process).size(),
             "write");
      for (std::size_t j = 4; j < rec.size(); ++j) {
        e.wowners.push_back(
            static_cast<sim::ProcessId>(to_i64(rec[j], "owner")));
      }
    } else {
      throw std::invalid_argument("read_counterexample: unknown event '" +
                                  rec[0] + "'");
    }
    cex.events.push_back(std::move(e));
  }
  return LoadedCounterexample{std::move(g), config, std::move(cex)};
}

CexReplayResult replay_counterexample(core::DinersSystem& system,
                                      const Counterexample& cex) {
  CexReplayResult result;
  core::SystemSnapshot stem_end;
  bool have_stem_end = false;
  const auto& g = system.topology();

  for (std::size_t i = 0; i < cex.events.size(); ++i) {
    if (i == cex.stem_length) {
      stem_end = core::capture(system);
      have_stem_end = true;
    }
    const CexEvent& e = cex.events[i];
    switch (e.kind) {
      case CexEvent::Kind::kAction: {
        const sim::TraceEvent trace_event{
            i, e.process, e.action,
            std::string(system.action_name(e.process, e.action))};
        const auto r = analysis::replay_trace(
            system, std::span<const sim::TraceEvent>(&trace_event, 1));
        if (!r.valid) {
          result.legal = false;
          result.failed_index = i;
          result.reason = r.reason;
          return result;
        }
        break;
      }
      case CexEvent::Kind::kCrash:
        system.crash(e.process);
        break;
      case CexEvent::Kind::kWrite: {
        system.set_state(e.process, e.wstate);
        system.set_depth(e.process, e.wdepth);
        const auto& nbrs = g.neighbors(e.process);
        if (e.wowners.size() != nbrs.size()) {
          result.legal = false;
          result.failed_index = i;
          result.reason = "write event owner count mismatch";
          return result;
        }
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          system.set_priority(e.process, nbrs[j], e.wowners[j]);
        }
        break;
      }
    }
  }
  if (cex.stem_length == cex.events.size()) {
    stem_end = core::capture(system);
    have_stem_end = true;
  }
  result.cycle_closes = have_stem_end &&
                        cex.stem_length < cex.events.size() &&
                        stem_end == core::capture(system);
  result.invariant_at_end = analysis::holds_invariant(system);
  return result;
}

}  // namespace diners::verify
