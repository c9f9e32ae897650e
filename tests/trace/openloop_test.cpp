// Tests for the windowed open-loop runner: accepted throughput tracking
// below saturation, the saturation plateau, warmup/drain exclusion and
// run-to-run determinism of the full measurement pipeline.
#include "trace/openloop.hpp"

#include <gtest/gtest.h>

#include "patterns/source.hpp"
#include "routing/relabel.hpp"
#include "xgft/topology.hpp"

namespace trace {
namespace {

using xgft::Topology;

patterns::OpenLoopSource makeSource(const Topology& topo, double load,
                                    sim::TimeNs stopNs,
                                    std::uint64_t seed = 1) {
  patterns::OpenLoopConfig cfg;
  cfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
  cfg.load = load;
  cfg.messageBytes = 1024;
  cfg.stopNs = stopNs;
  cfg.seed = seed;
  return patterns::OpenLoopSource(cfg);
}

OpenLoopOptions fastWindows() {
  OpenLoopOptions opt;
  opt.warmupNs = 200'000;
  opt.measureNs = 1'000'000;
  return opt;
}

TEST(OpenLoop, AcceptedTracksOfferedBelowSaturation) {
  const Topology topo(xgft::xgft2(4, 4, 4));  // Full bisection.
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  for (const double load : {0.1, 0.3}) {
    patterns::OpenLoopSource src =
        makeSource(topo, load, opt.warmupNs + opt.measureNs);
    const OpenLoopResult r = runOpenLoop(topo, *router, src, opt);
    // 16 hosts over a 1 ms window is a small sample; the Poisson count
    // fluctuation alone is several percent.
    EXPECT_NEAR(r.acceptedLoad, load, 0.15 * load) << "load " << load;
    EXPECT_GT(r.latency.samples, 100u);
    EXPECT_GE(r.latency.p99Ns, r.latency.p50Ns);
    EXPECT_GE(r.latency.p50Ns, r.latency.minNs);
    EXPECT_GE(r.latency.maxNs, r.latency.p99Ns);
  }
}

TEST(OpenLoop, OverloadSaturatesAndInflatesTail) {
  // Offered 1.5x the link rate cannot be accepted; the network must
  // saturate below 1.0 and the p99 of an overloaded run must dwarf the
  // uncontended one.
  const Topology topo(xgft::xgft2(4, 4, 2));  // Slimmed: saturates early.
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  patterns::OpenLoopSource light =
      makeSource(topo, 0.1, opt.warmupNs + opt.measureNs);
  patterns::OpenLoopSource heavy =
      makeSource(topo, 1.5, opt.warmupNs + opt.measureNs);
  const OpenLoopResult lo = runOpenLoop(topo, *router, light, opt);
  const OpenLoopResult hi = runOpenLoop(topo, *router, heavy, opt);
  EXPECT_LT(hi.acceptedLoad, 1.0);
  EXPECT_GT(hi.acceptedLoad, 0.2);
  EXPECT_GT(hi.latency.p99Ns, 5 * lo.latency.p99Ns);
  // Open loop drains past the horizon: the backlog completes after the
  // sources stop.
  EXPECT_GT(hi.lastDeliveryNs, opt.warmupNs + opt.measureNs);
  // Every injected message is eventually delivered (drain is complete).
  EXPECT_EQ(hi.stats.messagesDelivered,
            hi.windows[0].messages + hi.windows[1].messages +
                hi.windows[2].messages);
}

TEST(OpenLoop, RepeatRunsAreBitIdentical) {
  const Topology topo(xgft::xgft2(4, 4, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  auto once = [&] {
    patterns::OpenLoopSource src =
        makeSource(topo, 0.6, opt.warmupNs + opt.measureNs);
    return runOpenLoop(topo, *router, src, opt);
  };
  const OpenLoopResult a = once();
  const OpenLoopResult b = once();
  EXPECT_EQ(a.stats.eventsProcessed, b.stats.eventsProcessed);
  EXPECT_EQ(a.lastDeliveryNs, b.lastDeliveryNs);
  EXPECT_EQ(a.latency.samples, b.latency.samples);
  EXPECT_EQ(a.latency.p50Ns, b.latency.p50Ns);
  EXPECT_EQ(a.latency.p99Ns, b.latency.p99Ns);
  EXPECT_EQ(a.acceptedLoad, b.acceptedLoad);
}

TEST(OpenLoop, WindowsPartitionDeliveries) {
  const Topology topo(xgft::xgft2(4, 4, 4));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const OpenLoopOptions opt = fastWindows();
  patterns::OpenLoopSource src =
      makeSource(topo, 0.4, opt.warmupNs + opt.measureNs);
  const OpenLoopResult r = runOpenLoop(topo, *router, src, opt);
  ASSERT_EQ(r.windows.size(), 3u);
  EXPECT_EQ(r.windows[0].beginNs, 0u);
  EXPECT_EQ(r.windows[0].endNs, opt.warmupNs);
  EXPECT_EQ(r.windows[1].beginNs, opt.warmupNs);
  EXPECT_EQ(r.windows[1].endNs, opt.warmupNs + opt.measureNs);
  // Warmup and measurement both saw traffic; the drain tail is short but
  // non-empty at this load (in-flight messages at the horizon).
  EXPECT_GT(r.windows[0].messages, 0u);
  EXPECT_GT(r.windows[1].messages, 0u);
  // Boundary samples: events accumulate across the partial runs.
  EXPECT_GT(r.windows[0].eventsAtEnd, 0u);
  EXPECT_GT(r.windows[1].eventsAtEnd, r.windows[0].eventsAtEnd);
  EXPECT_EQ(r.windows[2].eventsAtEnd, r.stats.eventsProcessed);
  // The measured offered load tracks the configured nominal.
  EXPECT_NEAR(r.offeredLoad, 0.4, 0.06);
  // Latency samples come only from measurement-window injections, so they
  // are bounded by (and close to) the measurement window's deliveries.
  EXPECT_LE(r.latency.samples,
            r.windows[1].messages + r.windows[2].messages);
  EXPECT_GT(r.latency.samples, r.windows[1].messages / 2);
}

TEST(OpenLoop, SpraySourcesAlsoStream) {
  // Per-segment modes run through the same process: spraying an open-loop
  // stream must work and deliver everything.
  const Topology topo(xgft::xgft2(4, 4, 4));
  const routing::RouterPtr router = routing::makeDModK(topo);
  OpenLoopOptions opt = fastWindows();
  opt.spray.enabled = true;
  opt.spray.seed = 3;
  patterns::OpenLoopSource src =
      makeSource(topo, 0.3, opt.warmupNs + opt.measureNs);
  const OpenLoopResult r = runOpenLoop(topo, *router, src, opt);
  EXPECT_NEAR(r.acceptedLoad, 0.3, 0.05);
  EXPECT_GT(r.latency.samples, 0u);
}

TEST(OpenLoop, RejectsOversizedSources) {
  const Topology topo(xgft::xgft2(2, 2, 1));  // 4 hosts.
  const routing::RouterPtr router = routing::makeDModK(topo);
  patterns::OpenLoopConfig cfg;
  cfg.numRanks = 16;
  cfg.stopNs = 1'000'000;
  patterns::OpenLoopSource src(cfg);
  EXPECT_THROW((void)runOpenLoop(topo, *router, src, {}),
               std::invalid_argument);
}

TEST(OpenLoop, RejectsMoreThanOneSimThread) {
  // The event core is serial; a shard budget must fail loudly, not be
  // silently ignored.
  const Topology topo(xgft::xgft2(2, 2, 1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  patterns::OpenLoopSource src = makeSource(topo, 0.3, 100'000);
  OpenLoopOptions opt = fastWindows();
  opt.simThreads = 2;
  EXPECT_THROW((void)runOpenLoop(topo, *router, src, opt),
               std::invalid_argument);
}

}  // namespace
}  // namespace trace
