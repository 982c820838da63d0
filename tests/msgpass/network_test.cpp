#include "msgpass/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"

namespace diners::msgpass {
namespace {

TEST(Network, StartsEmpty) {
  const auto g = graph::make_path(3);
  Network net(g);
  EXPECT_FALSE(net.has_pending());
  EXPECT_EQ(net.pending(), 0u);
  EXPECT_EQ(net.total_sent(), 0u);
}

TEST(Network, SendThenDeliverRoundTrips) {
  const auto g = graph::make_path(3);
  Network net(g);
  Message m;
  m.counter = 3;
  m.depth = -7;
  net.send(0, 0, m);
  EXPECT_EQ(net.pending(), 1u);
  util::Xoshiro256 rng(1);
  graph::EdgeId e = graph::kNoEdge;
  int dir = -1;
  const Message got = net.deliver_random(rng, e, dir);
  EXPECT_EQ(e, 0u);
  EXPECT_EQ(dir, 0);
  EXPECT_EQ(got.counter, 3);
  EXPECT_EQ(got.depth, -7);
  EXPECT_FALSE(net.has_pending());
  EXPECT_EQ(net.total_delivered(), 1u);
}

TEST(Network, ChannelsAreFifo) {
  const auto g = graph::make_path(2);
  Network net(g);
  for (std::uint8_t i = 0; i < 5; ++i) {
    Message m;
    m.counter = i;
    net.send(0, 1, m);
  }
  util::Xoshiro256 rng(2);
  graph::EdgeId e;
  int dir;
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net.deliver_random(rng, e, dir).counter, i);
  }
}

TEST(Network, DeliverFromEmptyThrows) {
  const auto g = graph::make_path(2);
  Network net(g);
  util::Xoshiro256 rng(3);
  graph::EdgeId e;
  int dir;
  EXPECT_THROW((void)net.deliver_random(rng, e, dir), std::logic_error);
}

TEST(Network, ClearDropsEverything) {
  const auto g = graph::make_ring(4);
  Network net(g);
  net.send(0, 0, {});
  net.send(1, 1, {});
  net.clear();
  EXPECT_FALSE(net.has_pending());
}

TEST(Network, GarbageInjectionRespectsDomains) {
  const auto g = graph::make_ring(4);
  Network net(g);
  util::Xoshiro256 rng(4);
  net.inject_garbage(100, rng, 4, 10);
  EXPECT_EQ(net.pending(), 100u);
  graph::EdgeId e;
  int dir;
  while (net.has_pending()) {
    const Message m = net.deliver_random(rng, e, dir);
    EXPECT_LT(m.counter, 4);
    EXPECT_LE(m.state, 2);
    EXPECT_GE(m.depth, -10);
    EXPECT_LE(m.depth, 10);
    const auto& edge = g.edge(e);
    EXPECT_TRUE(m.priority_owner == edge.u || m.priority_owner == edge.v);
  }
}

TEST(Network, PendingOnTracksChannel) {
  const auto g = graph::make_path(3);
  Network net(g);
  net.send(1, 0, {});
  net.send(1, 0, {});
  EXPECT_EQ(net.pending_on(1, 0), 2u);
  EXPECT_EQ(net.pending_on(1, 1), 0u);
  EXPECT_EQ(net.pending_on(0, 0), 0u);
}

// --- unsupportive environment (FaultModel) ---------------------------------

void expect_conserved(const Network& net) {
  EXPECT_EQ(net.total_sent(),
            net.total_delivered() + net.total_dropped() + net.pending());
}

TEST(NetworkFaults, CertainDropLosesEverythingAndConserves) {
  FaultModel model;
  model.drop = 1.0;
  const auto g = graph::make_path(2);
  Network net(g, model, 1);
  for (int i = 0; i < 20; ++i) net.send(0, 0, {});
  EXPECT_FALSE(net.has_pending());
  EXPECT_EQ(net.total_sent(), 20u);
  EXPECT_EQ(net.total_dropped(), 20u);
  expect_conserved(net);
}

TEST(NetworkFaults, CertainDuplicationDoublesAndCountsAsSecondSend) {
  FaultModel model;
  model.duplicate = 1.0;
  const auto g = graph::make_path(2);
  Network net(g, model, 2);
  for (int i = 0; i < 10; ++i) net.send(0, 0, {});
  EXPECT_EQ(net.pending(), 20u);
  EXPECT_EQ(net.total_sent(), 20u);  // the duplicate feeds the sent side
  EXPECT_EQ(net.total_duplicated(), 10u);
  expect_conserved(net);
}

TEST(NetworkFaults, ReorderBreaksFifoButLosesNothing) {
  FaultModel model;
  model.reorder = 1.0;
  const auto g = graph::make_path(2);
  Network net(g, model, 3);
  for (std::uint8_t i = 0; i < 16; ++i) {
    Message m;
    m.counter = i;
    net.send(0, 0, m);
  }
  util::Xoshiro256 rng(3);
  graph::EdgeId e;
  int dir;
  std::vector<std::uint8_t> got;
  while (net.has_pending()) {
    got.push_back(net.deliver_random(rng, e, dir).counter);
  }
  ASSERT_EQ(got.size(), 16u);
  // Every message arrives exactly once...
  auto sorted = got;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint8_t i = 0; i < 16; ++i) EXPECT_EQ(sorted[i], i);
  // ...but with certain reordering the FIFO order is broken at this seed.
  EXPECT_FALSE(std::is_sorted(got.begin(), got.end()));
  expect_conserved(net);
}

TEST(NetworkFaults, DelayedMessageIsStillDeliveredEventually) {
  FaultModel model;
  model.delay = 1.0;
  model.delay_deliveries = 3;
  const auto g = graph::make_path(2);
  Network net(g, model, 4);
  Message m;
  m.counter = 2;
  net.send(0, 0, m);
  util::Xoshiro256 rng(4);
  graph::EdgeId e;
  int dir;
  // A lone delayed message must not livelock the delivery pick: each
  // deferral consumes one delay unit, so the pick terminates and delivers.
  EXPECT_EQ(net.deliver_random(rng, e, dir).counter, 2);
  EXPECT_FALSE(net.has_pending());
  expect_conserved(net);
}

TEST(NetworkFaults, CorruptionStaysInsideToleratedDomains) {
  FaultModel model;
  model.corrupt = 1.0;
  model.corrupt_counter_modulus = 4;
  model.corrupt_depth_bound = 16;
  model.corrupt_version_bound = 1024;
  const auto g = graph::make_ring(4);
  Network net(g, model, 5);
  Message m;
  m.counter = 1;
  m.state = 1;
  m.depth = 3;
  m.priority_owner = g.edge(0).u;
  m.priority_version = 7;
  for (int i = 0; i < 200; ++i) net.send(0, 0, m);
  EXPECT_GT(net.total_corrupted(), 0u);
  util::Xoshiro256 rng(5);
  graph::EdgeId e;
  int dir;
  while (net.has_pending()) {
    const Message got = net.deliver_random(rng, e, dir);
    EXPECT_LT(got.counter, 4);
    EXPECT_LE(got.state, 2);
    EXPECT_GE(got.depth, -16);
    EXPECT_LE(got.depth, 16);
    const auto& edge = g.edge(e);
    EXPECT_TRUE(got.priority_owner == edge.u || got.priority_owner == edge.v);
    EXPECT_LT(got.priority_version, 1024u);
  }
  expect_conserved(net);
}

TEST(NetworkFaults, SimultaneousDelayAndDuplicateConserveExactly) {
  // Both faults fire on EVERY send: the original and its duplicate each owe
  // `delay_deliveries` deferrals. The duplicate must count as a second send
  // (conservation's sent side) and the deferred copies must neither vanish
  // nor double-count while they bounce around the channel.
  FaultModel model;
  model.duplicate = 1.0;
  model.delay = 1.0;
  model.delay_deliveries = 3;
  const auto g = graph::make_path(2);
  Network net(g, model, 11);
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.counter = static_cast<std::uint8_t>(i % 4);
    net.send(0, 0, m);
    expect_conserved(net);
  }
  EXPECT_EQ(net.total_sent(), 20u);
  EXPECT_EQ(net.total_duplicated(), 10u);
  EXPECT_EQ(net.pending(), 20u);
  EXPECT_EQ(net.total_dropped(), 0u);
  // Draining must terminate (each deferral consumes one delay unit) and
  // deliver every copy exactly once, conserving at every step.
  util::Xoshiro256 rng(11);
  graph::EdgeId e;
  int dir;
  for (int i = 0; i < 20; ++i) {
    (void)net.deliver_random(rng, e, dir);
    expect_conserved(net);
  }
  EXPECT_FALSE(net.has_pending());
  EXPECT_EQ(net.total_delivered(), 20u);
  expect_conserved(net);
}

TEST(NetworkFaults, MixedFaultsConserveExactly) {
  FaultModel model;
  model.drop = 0.2;
  model.duplicate = 0.2;
  model.reorder = 0.3;
  model.delay = 0.2;
  model.corrupt = 0.1;
  const auto g = graph::make_ring(5);
  Network net(g, model, 6);
  util::Xoshiro256 rng(6);
  graph::EdgeId e;
  int dir;
  for (int i = 0; i < 500; ++i) {
    net.send(static_cast<graph::EdgeId>(i % 5), i % 2, {});
    expect_conserved(net);  // the identity holds at every point, not just
                            // at quiescence
    if (net.has_pending() && i % 3 == 0) {
      (void)net.deliver_random(rng, e, dir);
      expect_conserved(net);
    }
  }
  net.clear();  // cleared messages count as dropped
  EXPECT_EQ(net.pending(), 0u);
  expect_conserved(net);
}

TEST(NetworkFaults, SetFaultModelSwapsMidRun) {
  FaultModel lossy;
  lossy.drop = 1.0;
  const auto g = graph::make_path(2);
  Network net(g, lossy, 7);
  net.send(0, 0, {});
  EXPECT_EQ(net.pending(), 0u);
  net.set_fault_model({});  // quiescent window: reliable again
  net.send(0, 0, {});
  EXPECT_EQ(net.pending(), 1u);
  net.set_fault_model(lossy);
  net.send(0, 0, {});
  EXPECT_EQ(net.pending(), 1u);
  expect_conserved(net);
}

TEST(NetworkFaults, DeterministicForSeed) {
  FaultModel model;
  model.drop = 0.3;
  model.duplicate = 0.3;
  model.reorder = 0.5;
  model.corrupt = 0.2;
  const auto g = graph::make_ring(4);
  Network a(g, model, 42);
  Network b(g, model, 42);
  for (int i = 0; i < 300; ++i) {
    Message m;
    m.counter = static_cast<std::uint8_t>(i % 4);
    a.send(static_cast<graph::EdgeId>(i % 4), i % 2, m);
    b.send(static_cast<graph::EdgeId>(i % 4), i % 2, m);
  }
  EXPECT_EQ(a.pending(), b.pending());
  EXPECT_EQ(a.total_sent(), b.total_sent());
  EXPECT_EQ(a.total_dropped(), b.total_dropped());
  EXPECT_EQ(a.total_duplicated(), b.total_duplicated());
  EXPECT_EQ(a.total_corrupted(), b.total_corrupted());
  util::Xoshiro256 ra(9);
  util::Xoshiro256 rb(9);
  graph::EdgeId ea, eb;
  int da, db;
  while (a.has_pending()) {
    const Message ma = a.deliver_random(ra, ea, da);
    const Message mb = b.deliver_random(rb, eb, db);
    EXPECT_EQ(ea, eb);
    EXPECT_EQ(da, db);
    EXPECT_EQ(ma.counter, mb.counter);
  }
  EXPECT_FALSE(b.has_pending());
}

}  // namespace
}  // namespace diners::msgpass
