// Which schemes are destination-based (installable as per-switch
// destination-indexed forwarding tables) — checked on the router directly.
#include "destination_consistency.hpp"

#include <gtest/gtest.h>

#include "patterns/applications.hpp"
#include "patterns/pattern.hpp"
#include "routing/colored.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"

namespace routing {
namespace {

using testutil::isDestinationBased;
using xgft::Topology;

TEST(DestinationConsistency, DModKIsDestinationBased) {
  const Topology topo(xgft::xgft2(8, 8, 5));
  EXPECT_TRUE(isDestinationBased(topo, *makeDModK(topo)));
  const Topology tall(xgft::Params({4, 3, 2}, {1, 2, 3}));
  EXPECT_TRUE(isDestinationBased(tall, *makeDModK(tall)));
}

TEST(DestinationConsistency, RNcaDownIsDestinationBased) {
  const Topology topo(xgft::xgft2(8, 8, 5));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_TRUE(isDestinationBased(topo, *makeRNcaDown(topo, seed)))
        << "seed " << seed;
  }
}

TEST(DestinationConsistency, SourceGuidedSchemesAreNot) {
  // Each picks the ascent from the source (or per pair), so two sources
  // meeting at a shared ascent switch disagree on the port towards d.
  const Topology topo(xgft::xgft2(8, 8, 5));
  EXPECT_FALSE(isDestinationBased(topo, *makeSModK(topo)));
  EXPECT_FALSE(isDestinationBased(topo, *makeRNcaUp(topo, 1)));
  EXPECT_FALSE(isDestinationBased(topo, *makeRandom(topo, 1)));
}

TEST(DestinationConsistency, ColoredDependsOnThePattern) {
  // Pairs absent from the pattern fall back to D-mod-k, so an empty
  // pattern is destination-based; CG's optimized pairs leave a
  // destination's D-mod-k NCA and split it across roots.
  const Topology topo(xgft::karyNTree(8, 2));
  EXPECT_TRUE(
      isDestinationBased(topo, ColoredRouter(topo, patterns::Pattern(64))));
  EXPECT_FALSE(isDestinationBased(
      topo, ColoredRouter(topo, patterns::cgPhases(32, 8, 1024))));
}

}  // namespace
}  // namespace routing
