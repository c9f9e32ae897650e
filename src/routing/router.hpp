// router.hpp — The routing-scheme interface.
//
// A Router answers "which minimal up/down route does the pair (s, d) take?".
// Oblivious schemes (Random, S-mod-k, D-mod-k, r-NCA-u, r-NCA-d) answer
// without looking at the communication pattern; the pattern-aware Colored
// baseline is constructed *from* a pattern and only answers for pairs that
// appear in it (it falls back to D-mod-k for strangers, mirroring how a
// pattern-aware scheme would leave default routes in place).
//
// Routes are computed on demand and are required to be deterministic:
// calling route(s, d) twice returns the same route.  Randomized schemes
// derive their choices from an explicit seed.
//
// A scheme implements exactly one virtual, route(s, d, out), which writes
// into a caller-owned Route.  Table compilation calls it once per ordered
// pair, so reusing one buffer per worker keeps the per-pair cost free of
// heap traffic; the by-value route(s, d) is a convenience wrapper over the
// same code path.
#pragma once

#include <memory>
#include <string>

#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace routing {

using xgft::NodeIndex;
using xgft::Route;
using xgft::Topology;

/// Abstract routing scheme over a fixed topology.
class Router {
 public:
  explicit Router(const Topology& topo) : topo_(&topo) {}
  virtual ~Router() = default;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Writes the minimal up/down route for the ordered pair (s, d) into
  /// @p out.  Contract for implementations:
  ///  * overwrites @p out fully — whatever it held before (a longer or
  ///    shorter stale route) has no effect on the result, only on which
  ///    capacity gets reused;
  ///  * deterministic — the same (s, d) always yields the same route, and
  ///    s == d yields the empty route;
  ///  * safe to call concurrently from several threads on one router, each
  ///    with its own @p out (routers are immutable after construction).
  virtual void route(NodeIndex s, NodeIndex d, Route& out) const = 0;

  /// The route for (s, d) by value: route(s, d, out) into a fresh Route.
  [[nodiscard]] Route route(NodeIndex s, NodeIndex d) const {
    Route r;
    route(s, d, r);
    return r;
  }

  /// Short identifier used in reports ("s-mod-k", "r-NCA-u", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// True when the scheme ignores the communication pattern (Sec. I).
  [[nodiscard]] virtual bool isOblivious() const { return true; }

  [[nodiscard]] const Topology& topology() const { return *topo_; }

 protected:
  const Topology* topo_;
};

using RouterPtr = std::unique_ptr<Router>;

}  // namespace routing
