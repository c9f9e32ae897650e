// destination_consistency.hpp — Test helper: is a scheme destination-based?
//
// Real fat-tree deployments (InfiniBand subnet manager, Myrinet mapper)
// install destination-indexed forwarding: each switch holds one output port
// per destination (a linear forwarding table).  A scheme fits that model
// iff it is destination-consistent: every route towards d leaves a given
// switch through the same port, whatever its source.  D-mod-k and r-NCA-d
// are by construction; source-guided schemes (S-mod-k, r-NCA-u, Random)
// need source routing instead (Sec. VII).
#pragma once

#include <cstdint>
#include <vector>

#include "routing/router.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace testutil {

/// True iff every switch on any route towards each destination forwards it
/// through one output port, tracing every ordered host pair of @p router.
inline bool isDestinationBased(const xgft::Topology& topo,
                               const routing::Router& router) {
  constexpr std::uint32_t kUnset = 0xffffffffu;
  std::vector<std::uint32_t> port(topo.numNodes());
  xgft::Route route;
  for (xgft::NodeIndex d = 0; d < topo.numHosts(); ++d) {
    port.assign(port.size(), kUnset);
    for (xgft::NodeIndex s = 0; s < topo.numHosts(); ++s) {
      if (s == d) continue;
      router.route(s, d, route);
      for (const xgft::Hop& hop : xgft::hopsOf(topo, s, d, route)) {
        if (hop.level == 0) continue;  // A host NIC, not a switch.
        std::uint32_t& slot = port[topo.globalId(hop.level, hop.node)];
        if (slot == kUnset) slot = hop.outPort;
        if (slot != hop.outPort) return false;
      }
    }
  }
  return true;
}

}  // namespace testutil
