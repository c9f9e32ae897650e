// Tests for mid-run link fault injection in the event core: the
// kLinkDown/kLinkUp events, reroute-then-strand at switches and gated host
// NICs, down-time accounting across run(until) resumes, scheduling
// validation, probe hook counts, and the drain conversion that keeps
// faulted runs from hanging or throwing.
#include <gtest/gtest.h>

#include <vector>

#include "routing/relabel.hpp"
#include "sim/network.hpp"
#include "sim/probe.hpp"
#include "xgft/params.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace sim {
namespace {

using xgft::Topology;

/// Counts every fault-related hook invocation.
class FaultProbe : public Probe {
 public:
  void onLinkDown(xgft::LinkId, TimeNs) override { ++downs; }
  void onLinkUp(xgft::LinkId, TimeNs) override { ++ups; }
  void onSegmentStranded(std::uint32_t, std::uint32_t, TimeNs) override {
    ++stranded;
  }
  void onSegmentRerouted(std::uint32_t, std::uint32_t, std::uint32_t,
                         TimeNs) override {
    ++rerouted;
  }
  std::uint64_t downs = 0;
  std::uint64_t ups = 0;
  std::uint64_t stranded = 0;
  std::uint64_t rerouted = 0;
};

/// Makespan of the healthy single-message run, for picking mid-flight
/// fault instants.
TimeNs healthyMakespan(const Topology& topo, const routing::Router& router,
                       xgft::NodeIndex s, xgft::NodeIndex d, Bytes bytes) {
  Network net(topo, SimConfig{});
  const MsgId m = net.addMessage(s, d, bytes, router.route(s, d));
  net.release(m, 0);
  net.run();
  return net.stats().lastDeliveryNs;
}

TEST(FaultInjection, GatedHostLinkResumesOnRestore) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::LinkId hostLink = topo.upLink(0, 0, 0);

  Network net(topo, SimConfig{});
  net.scheduleLinkDown(0, hostLink);
  net.scheduleLinkUp(50'000, hostLink);
  const MsgId m = net.addMessage(0, 1, 4096, router->route(0, 1));
  net.release(m, 0);
  net.run();

  // The message waited out the outage and then delivered normally.
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_EQ(net.stats().segmentsStranded, 0u);
  EXPECT_GE(net.deliveryTime(m), 50'000u);
  EXPECT_EQ(net.stats().linkDownNs, 50'000u);
  EXPECT_FALSE(net.linkIsDown(hostLink));
}

TEST(FaultInjection, GatedHostLinkWithoutRestoreConvertsToDropsOnDrain) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  net.scheduleLinkDown(0, topo.upLink(0, 0, 0));
  const MsgId m = net.addMessage(0, 1, 4096, router->route(0, 1));
  net.release(m, 0);
  // Faulted runs report instead of throwing: the waiting message converts
  // to a drop when the queue drains with the link still down.
  EXPECT_NO_THROW(net.run());
  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  EXPECT_EQ(net.stats().messagesDropped, 1u);
  EXPECT_TRUE(net.linkIsDown(topo.upLink(0, 0, 0)));
}

TEST(FaultInjection, ReroutePolicyDeliversViaTheSiblingUpPort) {
  // w2 = 2: the scheme's chosen up-link dies, the sibling survives, and
  // every ascending segment escapes through it (minimally adaptive).
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::Route route = router->route(0, 4);
  const auto channels = xgft::channelsOf(topo, 0, 4, route);
  ASSERT_EQ(channels.size(), 4u);
  const xgft::LinkId deadUplink = channels[1].link;  // The L1 ascent.

  Network net(topo, SimConfig{});
  FaultProbe probe;
  net.setProbe(&probe);
  net.scheduleLinkDown(0, deadUplink);
  const MsgId m = net.addMessage(0, 4, 32 * 1024, route);
  net.release(m, 0);
  net.run();

  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_EQ(net.stats().segmentsStranded, 0u);
  EXPECT_GE(net.stats().segmentsRerouted, 1u);
  EXPECT_EQ(probe.rerouted, net.stats().segmentsRerouted);
  EXPECT_GT(net.deliveryTime(m), 0u);
}

TEST(FaultInjection, ReroutePolicyStrandsWhenNoUpPortSurvives) {
  // w2 = 1: reroute has no live alternative, so the ascending segments
  // strand and the message is dropped.
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const Bytes bytes = 64 * 1024;
  const TimeNs mid = healthyMakespan(topo, *router, 0, 4, bytes) / 2;

  Network net(topo, SimConfig{});
  FaultProbe probe;
  net.setProbe(&probe);
  net.scheduleLinkDown(mid, topo.upLink(1, 0, 0));
  const MsgId m = net.addMessage(0, 4, bytes, router->route(0, 4));
  net.release(m, 0);
  EXPECT_NO_THROW(net.run());
  EXPECT_EQ(net.stats().messagesDelivered, 0u);
  EXPECT_EQ(net.stats().messagesDropped, 1u);
  EXPECT_GE(net.stats().segmentsStranded, 1u);
  EXPECT_EQ(net.stats().segmentsRerouted, 0u);
  EXPECT_EQ(probe.stranded, net.stats().segmentsStranded);
  EXPECT_EQ(probe.downs, 1u);
  (void)m;
}

TEST(FaultInjection, DownTimeAccruesAcrossPartialRunBoundaries) {
  // The satellite edge case: a timed plan whose restore fires only after
  // several run(until) resumes.  linkDownNs must be meaningful (and
  // monotone) at every boundary, not only at the end.
  const Topology topo(xgft::xgft2(4, 4, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::LinkId hostLink = topo.upLink(0, 0, 0);

  Network net(topo, SimConfig{});
  net.scheduleLinkDown(10'000, hostLink);
  net.scheduleLinkUp(200'000, hostLink);
  const MsgId m = net.addMessage(0, 1, 4096, router->route(0, 1));
  net.release(m, 20'000);  // Released mid-outage; waits for the restore.

  // The clock sits at the last processed event, so down-time folds up to
  // there at each boundary (monotone, never forgotten between resumes).
  net.run(50'000);  // Processes down@10k and the 20k release.
  EXPECT_TRUE(net.linkIsDown(hostLink));
  EXPECT_EQ(net.stats().linkDownNs, 10'000u);
  net.run(120'000);  // No events in (20k, 120k]: still down, no double count.
  EXPECT_TRUE(net.linkIsDown(hostLink));
  EXPECT_EQ(net.stats().linkDownNs, 10'000u);
  net.run();
  EXPECT_FALSE(net.linkIsDown(hostLink));
  EXPECT_EQ(net.stats().linkDownNs, 190'000u);
  EXPECT_EQ(net.stats().messagesDelivered, 1u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_GE(net.deliveryTime(m), 200'000u);
}

TEST(FaultInjection, TransitionsAreIdempotentAndProbeSeesEachOnce) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  Network net(topo, SimConfig{});
  FaultProbe probe;
  net.setProbe(&probe);
  const xgft::LinkId link = topo.upLink(1, 0, 0);
  net.scheduleLinkDown(0, link);
  net.scheduleLinkDown(0, link);  // Duplicate: no-op at processing time.
  net.scheduleLinkUp(100, link);
  net.scheduleLinkUp(100, link);
  net.run();
  EXPECT_EQ(probe.downs, 1u);
  EXPECT_EQ(probe.ups, 1u);
  EXPECT_EQ(net.stats().linkDownNs, 100u);  // Counted once, not twice.
}

TEST(FaultInjection, SchedulingValidatesLinkAndTime) {
  const Topology topo(xgft::xgft2(4, 4, 1));
  Network net(topo, SimConfig{});
  EXPECT_THROW(net.scheduleLinkDown(0, topo.numLinks()),
               std::invalid_argument);
  EXPECT_THROW(net.scheduleLinkUp(0, topo.numLinks() + 5),
               std::invalid_argument);
  // Once the clock has advanced past t (by processing an event), a
  // transition in the past is rejected.
  net.scheduleLinkDown(1'000, 0);
  net.run();
  EXPECT_THROW(net.scheduleLinkUp(500, 0), std::invalid_argument);
}

TEST(FaultInjection, HealthyRunsKeepFaultCountersZero) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  Network net(topo, SimConfig{});
  for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
    const xgft::NodeIndex d = (s + 5) % topo.numHosts();
    net.release(net.addMessage(s, d, 8192, router->route(s, d)), 0);
  }
  net.run();
  EXPECT_EQ(net.stats().segmentsRerouted, 0u);
  EXPECT_EQ(net.stats().segmentsStranded, 0u);
  EXPECT_EQ(net.stats().messagesDropped, 0u);
  EXPECT_EQ(net.stats().linkDownNs, 0u);
}

}  // namespace
}  // namespace sim
