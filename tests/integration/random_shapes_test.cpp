// Randomized cross-module property sweep: arbitrary XGFT shapes, every
// routing scheme, all structural invariants at once.  This is the
// catch-all net under the per-module suites — if a future change breaks an
// interaction between the label algebra, a router and the simulator on
// some odd tree shape, it surfaces here.
#include <gtest/gtest.h>

#include "../routing/destination_consistency.hpp"
#include "analysis/contention.hpp"
#include "analysis/dependency.hpp"
#include "patterns/permutation.hpp"
#include "routing/colored.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"
#include "xgft/rng.hpp"
#include "xgft/route.hpp"

namespace {

using xgft::Topology;

/// A random small XGFT: height 2-3, digits 2-5, w_i in [1, m_i + 1].
xgft::Params randomShape(std::uint64_t seed) {
  xgft::Rng rng(seed);
  const std::uint32_t h = 2 + static_cast<std::uint32_t>(rng.below(2));
  std::vector<std::uint32_t> m(h);
  std::vector<std::uint32_t> w(h);
  for (std::uint32_t i = 0; i < h; ++i) {
    m[i] = 2 + static_cast<std::uint32_t>(rng.below(4));
    // Allow w > m occasionally (over-provisioned level) and w = 1 (tree).
    w[i] = 1 + static_cast<std::uint32_t>(rng.below(m[i] + 1));
  }
  w[0] = 1;  // Hosts single-homed, as in all the paper's topologies.
  return xgft::Params(std::move(m), std::move(w));
}

class RandomShapes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomShapes, AllInvariantsHold) {
  const xgft::Params params = randomShape(GetParam());
  const Topology topo(params);
  const auto n = static_cast<patterns::Rank>(topo.numHosts());

  // Structural: Eq. (1) vs per-level sums, label round trips.
  xgft::Count switches = 0;
  for (std::uint32_t l = 1; l <= topo.height(); ++l) {
    switches += topo.nodesAtLevel(l);
  }
  EXPECT_EQ(switches, params.numInnerSwitches());
  for (xgft::NodeIndex host = 0; host < topo.numHosts(); host += 3) {
    EXPECT_EQ(indexOf(params, labelOf(params, 0, host)), host);
  }

  // Every scheme: valid minimal routes, deadlock freedom.
  std::vector<routing::RouterPtr> routers;
  routers.push_back(routing::makeSModK(topo));
  routers.push_back(routing::makeDModK(topo));
  routers.push_back(routing::makeRandom(topo, GetParam()));
  routers.push_back(routing::makeRNcaUp(topo, GetParam()));
  routers.push_back(routing::makeRNcaDown(topo, GetParam()));
  const patterns::Pattern perm =
      patterns::randomPermutation(n, GetParam()).toPattern(2048);
  routers.push_back(routing::makeColored(topo, perm));
  for (const routing::RouterPtr& router : routers) {
    for (xgft::NodeIndex s = 0; s < topo.numHosts(); s += 2) {
      for (xgft::NodeIndex d = 0; d < topo.numHosts(); d += 3) {
        std::string error;
        ASSERT_TRUE(
            validateRoute(topo, s, d, router->route(s, d), &error))
            << params.toString() << " " << router->name() << ": " << error;
      }
    }
    EXPECT_TRUE(analysis::routesAreDeadlockFree(topo, *router, &perm))
        << params.toString() << " " << router->name();
  }

  // Destination-guided schemes stay destination-consistent on every shape.
  EXPECT_TRUE(testutil::isDestinationBased(topo, *routing::makeDModK(topo)))
      << params.toString();

  // The census accounts for every ordered pair exactly once per level.
  std::uint64_t pairs = 0;
  for (std::uint32_t l = 1; l <= topo.height(); ++l) {
    const auto census =
        analysis::ncaRouteCensus(topo, *routers[0], l);
    for (const auto c : census) pairs += c;
  }
  EXPECT_EQ(pairs, topo.numHosts() * (topo.numHosts() - 1));

  // End to end: the permutation replays to completion and no scheme beats
  // the crossbar.
  patterns::PhasedPattern app;
  app.numRanks = n;
  app.phases.push_back(perm);
  const double slowdown =
      trace::slowdownVsCrossbar(topo, *routers[1], app);
  EXPECT_GE(slowdown, 0.999) << params.toString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapes,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{13}));

}  // namespace
