#include "verify/counterexample.hpp"

#include <gtest/gtest.h>

#include <span>
#include <sstream>

#include "analysis/invariants.hpp"
#include "core/serialize.hpp"
#include "graph/generators.hpp"
#include "verify/properties.hpp"

namespace diners::verify {
namespace {

using core::DinerState;
using core::DinersConfig;
using core::DinersSystem;
using P = DinersSystem::ProcessId;

DinersSystem hungry_system(graph::Graph g, DinersConfig cfg = {}) {
  DinersSystem s(std::move(g), cfg);
  for (P p = 0; p < s.topology().num_nodes(); ++p) s.set_needs(p, true);
  return s;
}

TEST(CexIo, RoundTripsEveryEventKindAndTheCycleMarker) {
  DinersSystem s = hungry_system(graph::make_path(3));
  s.set_state(2, DinerState::kEating);
  s.set_depth(0, -2);

  Counterexample cex;
  cex.property = "closure";
  cex.detail = "hand-built witness with crash and writes";
  cex.start = core::capture(s);
  CexEvent act;
  act.kind = CexEvent::Kind::kAction;
  act.process = 0;
  act.action = DinersSystem::kJoin;
  CexEvent crash;
  crash.kind = CexEvent::Kind::kCrash;
  crash.process = 1;
  CexEvent write;
  write.kind = CexEvent::Kind::kWrite;
  write.process = 1;
  write.wstate = DinerState::kEating;
  write.wdepth = -1;
  write.wowners = {1, 2};  // one owner per incident edge of process 1
  CexEvent cycle_step;
  cycle_step.kind = CexEvent::Kind::kAction;
  cycle_step.process = 2;
  cycle_step.action = DinersSystem::kExit;
  cex.events = {act, crash, write, cycle_step};
  cex.stem_length = 3;

  std::stringstream ss;
  write_counterexample(ss, s.topology(), s.config(), cex);
  const LoadedCounterexample loaded = read_counterexample(ss);

  EXPECT_EQ(loaded.graph.num_nodes(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 2u);
  EXPECT_EQ(loaded.cex.property, cex.property);
  EXPECT_EQ(loaded.cex.detail, cex.detail);
  EXPECT_EQ(loaded.cex.start, cex.start);
  EXPECT_EQ(loaded.cex.events, cex.events);
  EXPECT_EQ(loaded.cex.stem_length, 3u);
}

TEST(CexIo, MalformedInputsThrowWithTheOffendingLine) {
  const auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return read_counterexample(ss);
  };
  EXPECT_THROW(parse(""), std::invalid_argument);
  EXPECT_THROW(parse("not-a-counterexample"), std::invalid_argument);
  // A valid prefix with a truncated event section.
  DinersSystem s = hungry_system(graph::make_path(3));
  Counterexample cex;
  cex.property = "closure";
  cex.start = core::capture(s);
  CexEvent act;
  act.process = 0;
  act.action = DinersSystem::kJoin;
  cex.events = {act};
  cex.stem_length = 1;
  std::stringstream ss;
  write_counterexample(ss, s.topology(), s.config(), cex);
  std::string text = ss.str();
  // Hostile topologies in an otherwise valid file: an edge repeated in the
  // same orientation or reversed, a self-loop, an out-of-range endpoint.
  const std::string edges = "edges 2 0 1 1 2";
  ASSERT_NE(text.find(edges), std::string::npos);
  for (const std::string hostile :
       {"edges 3 0 1 1 2 0 1", "edges 3 0 1 1 2 2 1", "edges 2 0 1 1 1",
        "edges 2 0 1 1 3"}) {
    std::string bad = text;
    bad.replace(bad.find(edges), edges.size(), hostile);
    EXPECT_THROW(parse(bad), std::invalid_argument) << hostile;
  }
  text.resize(text.rfind("action"));
  EXPECT_THROW(parse(text), std::invalid_argument);
}

TEST(CexStem, DemonicParentMovesRenderAsVictimWrites) {
  DinersSystem scratch = hungry_system(graph::make_path(3));
  scratch.crash(1);
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer::Options opts;
  opts.demon_victim = 1;
  Explorer explorer(scratch, codec, opts);
  const Key seed = codec.encode(scratch);
  const StateGraph g = explorer.explore(std::span<const Key>(&seed, 1));
  ASSERT_TRUE(g.complete);

  bool saw_write = false;
  for (std::uint32_t i = 0; i < g.num_states(); ++i) {
    if (g.parent_move[i] < kDemonMoveBase || g.parent_move[i] == kSeedMove) {
      continue;
    }
    const Stem stem = stem_to(g, codec, 1, i);
    EXPECT_EQ(stem.seed, 0u);
    ASSERT_FALSE(stem.events.empty());
    const CexEvent& last = stem.events.back();
    EXPECT_EQ(last.kind, CexEvent::Kind::kWrite);
    EXPECT_EQ(last.process, 1u);
    EXPECT_EQ(last.wowners.size(),
              scratch.topology().incident_edges(1).size());
    // The rendered write matches the state's own victim fields.
    EXPECT_EQ(last.wstate, codec.state_of(g.keys[i], 1));
    EXPECT_EQ(last.wdepth, codec.depth_of(g.keys[i], 1));
    saw_write = true;
  }
  EXPECT_TRUE(saw_write);
}

TEST(CexReplay, ComposedConvergenceCycleReplaysAndCloses) {
  // End-to-end: find the no-fixdepth convergence cycle on K3, compose a
  // stem + cycle counterexample, write/read it, and replay it on the real
  // (unmutated) program — every event must be legal (the mutation only
  // removes transitions) and the cycle must close.
  DinersConfig cfg;
  cfg.diameter_override = 2;
  DinersSystem scratch = hungry_system(graph::make_complete(3), cfg);
  const StateCodec codec(scratch.topology(), 0, 3);
  Explorer::Options opts;
  opts.mutation = GuardMutation::kNoFixdepth;
  Explorer explorer(scratch, codec, opts);
  const StateGraph g = explorer.explore(codec.domain_keys());
  ASSERT_TRUE(g.complete);

  const auto inv = label_invariant(g, codec, scratch);
  const auto v = check_convergence(g, inv);
  ASSERT_TRUE(v.has_value());
  ASSERT_EQ(v->kind, Violation::Kind::kCycle);

  Counterexample cex;
  cex.property = v->property;
  cex.detail = v->detail;
  const Stem stem = stem_to(g, codec, std::nullopt, v->state);
  codec.decode(g.keys[stem.seed], scratch);
  cex.start = core::capture(scratch);
  cex.events = stem.events;
  cex.stem_length = cex.events.size();
  const auto cycle_events = arcs_to_events(v->cycle);
  cex.events.insert(cex.events.end(), cycle_events.begin(),
                    cycle_events.end());

  std::stringstream ss;
  write_counterexample(ss, scratch.topology(), scratch.config(), cex);
  const LoadedCounterexample loaded = read_counterexample(ss);

  DinersSystem replay_system(loaded.graph, loaded.config);
  core::restore(replay_system, loaded.cex.start);
  const CexReplayResult result =
      replay_counterexample(replay_system, loaded.cex);
  EXPECT_TRUE(result.legal) << result.reason;
  EXPECT_TRUE(result.cycle_closes);
  EXPECT_FALSE(result.invariant_at_end);
}

TEST(CexReplay, DisabledActionIsReportedIllegalAtItsIndex) {
  DinersSystem s = hungry_system(graph::make_path(3));
  Counterexample cex;
  cex.property = "closure";
  cex.start = core::capture(s);
  CexEvent join;
  join.process = 0;
  join.action = DinersSystem::kJoin;
  CexEvent bogus;  // exit while thinking: never enabled
  bogus.process = 2;
  bogus.action = DinersSystem::kExit;
  cex.events = {join, bogus};
  cex.stem_length = 2;

  DinersSystem replay_system = core::clone(s);
  const CexReplayResult result = replay_counterexample(replay_system, cex);
  EXPECT_FALSE(result.legal);
  EXPECT_EQ(result.failed_index, 1u);
  EXPECT_FALSE(result.reason.empty());
}

}  // namespace
}  // namespace diners::verify
