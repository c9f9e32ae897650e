#include "routing/random_router.hpp"

#include "xgft/rng.hpp"

namespace routing {

void RandomRouter::route(NodeIndex s, NodeIndex d, Route& out) const {
  const xgft::Count choices = topo_->numNcas(s, d);
  const xgft::Count pick = xgft::hashMix(seed_, s, d) % choices;
  xgft::routeViaNca(*topo_, s, d, pick, out);
}

RouterPtr makeRandom(const Topology& topo, std::uint64_t seed) {
  return std::make_unique<RandomRouter>(topo, seed);
}

}  // namespace routing
