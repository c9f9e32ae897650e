// Tests for the Router out-parameter contract: route(s, d, out) overwrites
// a reused buffer fully, whatever stale route it held, and agrees with the
// by-value route(s, d) for every scheme and every ordered pair.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "patterns/permutation.hpp"
#include "routing/colored.hpp"
#include "routing/random_router.hpp"
#include "routing/relabel.hpp"
#include "xgft/params.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace routing {
namespace {

using xgft::NodeIndex;
using xgft::Topology;

std::vector<RouterPtr> allSchemes(const Topology& topo) {
  std::vector<RouterPtr> routers;
  routers.push_back(makeSModK(topo));
  routers.push_back(makeDModK(topo));
  routers.push_back(makeRNcaUp(topo, 3));
  routers.push_back(makeRNcaDown(topo, 3));
  routers.push_back(makeRandom(topo, 3));
  const auto hosts = static_cast<std::uint32_t>(topo.numHosts());
  routers.push_back(makeColored(
      topo, patterns::randomPermutation(hosts, 5).toPattern(1000)));
  return routers;
}

TEST(RouteBuffer, ReusedBufferMatchesByValueForEveryScheme) {
  for (const xgft::Params& p :
       {xgft::Params({2, 3, 2}, {2, 2, 3}), xgft::xgft2(4, 4, 2),
        xgft::karyNTree(2, 3)}) {
    SCOPED_TRACE(p.toString());
    const Topology topo(p);
    for (const RouterPtr& router : allSchemes(topo)) {
      SCOPED_TRACE(router->name());
      xgft::Route reused;  // Carries each pair's route into the next.
      for (NodeIndex s = 0; s < topo.numHosts(); ++s) {
        for (NodeIndex d = 0; d < topo.numHosts(); ++d) {
          const xgft::Route byValue = router->route(s, d);
          xgft::Route stale;
          stale.up.assign(topo.height() + 3, 77);  // Longer stale route.
          router->route(s, d, stale);
          ASSERT_EQ(stale, byValue) << s << " -> " << d;
          router->route(s, d, reused);
          ASSERT_EQ(reused, byValue) << s << " -> " << d;
          std::string error;
          ASSERT_TRUE(xgft::validateRoute(topo, s, d, reused, &error))
              << error;
        }
      }
    }
  }
}

}  // namespace
}  // namespace routing
