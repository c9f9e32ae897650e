#include "fault/degraded.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"

namespace fault {

namespace {

/// Unreachable pairs reported by the compile workers.  Guarded: workers
/// for different source rows may discover unreachable pairs concurrently.
struct UnreachableSink {
  core::Mutex mu;
  std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>> pairs
      XGFT_GUARDED_BY(mu);

  void add(xgft::NodeIndex s, xgft::NodeIndex d) {
    core::LockGuard lock(mu);
    pairs.emplace_back(s, d);
  }
  [[nodiscard]] std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>>
  takeSorted() {
    core::LockGuard lock(mu);
    std::sort(pairs.begin(), pairs.end());
    return std::move(pairs);
  }
};

}  // namespace

DegradedTopology::DegradedTopology(const xgft::Topology& topo,
                                   std::span<const xgft::LinkId> failedLinks)
    : topo_(&topo), failed_(topo.numLinks(), 0) {
  for (const xgft::LinkId link : failedLinks) {
    if (link >= topo.numLinks()) {
      throw std::invalid_argument(
          "DegradedTopology: link " + std::to_string(link) +
          " out of range (topology has " + std::to_string(topo.numLinks()) +
          " links)");
    }
    if (failed_[link] == 0) {
      failed_[link] = 1;
      ++numFailed_;
    }
  }
}

bool DegradedTopology::routeBlocked(xgft::NodeIndex s, xgft::NodeIndex d,
                                    const xgft::Route& r) const {
  if (numFailed_ == 0) return false;
  // The links xgft::channelsOf would list, walked in place.  The walk never
  // stops early, so a malformed route throws exactly where channelsOf
  // would.
  const xgft::Topology& topo = *topo_;
  const std::uint32_t L = r.ncaLevel();
  bool blocked = false;
  xgft::NodeIndex node = s;
  for (std::uint32_t i = 0; i < L; ++i) {
    blocked |= failed_[topo.upLink(i, node, r.up[i])] != 0;
    node = topo.parentIndex(i, node, r.up[i]);
  }
  for (std::uint32_t j = L; j >= 1; --j) {
    const std::uint32_t port = topo.digit(0, d, j);
    blocked |= failed_[topo.downLink(j, node, port)] != 0;
    node = topo.childIndex(j, node, port);
  }
  return blocked;
}

DegradedRoutes compileDegraded(std::shared_ptr<const routing::Router> router,
                               const DegradedTopology& degraded,
                               UnreachablePolicy policy,
                               std::uint32_t threads) {
  if (!router) {
    throw std::invalid_argument("compileDegraded: null router");
  }
  const xgft::Topology& topo = router->topology();
  if (&topo != &degraded.base()) {
    throw std::invalid_argument(
        "compileDegraded: router and degraded view disagree on the topology");
  }

  DegradedRoutes out;
  UnreachableSink unreachable;
  const routing::Router& r = *router;

  // Per-pair rule: keep the scheme's own route when it survives, otherwise
  // take the first clean minimal alternative in NCA-enumeration order
  // (deterministic, scheme-independent, and identical for any thread
  // count).  No alternative -> unreachable.
  const auto routeFor = [&](xgft::NodeIndex s, xgft::NodeIndex d,
                            xgft::Route& route) {
    r.route(s, d, route);
    if (!degraded.routeBlocked(s, d, route)) return true;
    const xgft::Count ncas = topo.numNcas(s, d);
    for (xgft::Count c = 0; c < ncas; ++c) {
      xgft::routeViaNca(topo, s, d, c, route);
      if (!degraded.routeBlocked(s, d, route)) return true;
    }
    if (policy == UnreachablePolicy::kThrow) {
      throw std::invalid_argument(
          "compileDegraded(" + r.name() + "): pair " + std::to_string(s) +
          " -> " + std::to_string(d) +
          " is unreachable on the degraded topology (" +
          std::to_string(degraded.numFailed()) + " links failed)");
    }
    unreachable.add(s, d);
    return false;
  };

  out.table =
      core::CompiledRoutes::compileWith(std::move(router), routeFor, threads);
  out.unreachable = unreachable.takeSorted();
  return out;
}

const core::SchemeInfo& requireDegradable(const std::string& routing) {
  const core::SchemeInfo& info = core::schemeRegistry().at(routing);
  if (info.mode != core::RouteMode::kTable) {
    std::string degradable;
    const auto names = core::schemeRegistry().names();
    for (const std::string& name : *names) {
      if (core::schemeRegistry().at(name).mode == core::RouteMode::kTable) {
        if (!degradable.empty()) degradable += ", ";
        degradable += name;
      }
    }
    throw std::invalid_argument(
        "routing scheme '" + routing +
        "' cannot run on a degraded topology: per-segment port selection "
        "(adaptive/spray) honours faults via the fault policy, not table "
        "recompilation (degradable: " +
        degradable + ")");
  }
  return info;
}

}  // namespace fault
