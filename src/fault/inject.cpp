#include "fault/inject.hpp"

#include <map>
#include <utility>
#include <vector>

namespace fault {

namespace {

/// Owns every table compiled for the plan, keyed by failed-link set so
/// repeated sets (a link failing, restoring, failing again) share one
/// compile.  The resolver holds raw pointers into the values, which is why
/// the caller keeps the handle alive for the whole run.
struct InstalledState {
  std::map<std::vector<xgft::LinkId>,
           std::shared_ptr<const core::CompiledRoutes>>
      tables;
};

}  // namespace

std::shared_ptr<void> installFaultPlan(
    sim::Network& net, const FaultPlan& plan,
    std::shared_ptr<const routing::Router> router,
    trace::RouteSetResolver* resolver, const InstallOptions& opt) {
  auto state = std::make_shared<InstalledState>();
  if (plan.empty()) return state;

  plan.scheduleOn(net);
  if (resolver == nullptr) return state;

  const auto tableFor =
      [state, router, &net,
       opt](std::vector<xgft::LinkId> failed) -> const core::CompiledRoutes* {
    auto it = state->tables.find(failed);
    if (it == state->tables.end()) {
      const DegradedTopology view(net.topology(), failed);
      it = state->tables
               .emplace(std::move(failed),
                        compileDegraded(router, view, opt.unreachable,
                                        opt.compileThreads)
                            .table)
               .first;
    }
    return it->second.get();
  };

  if (opt.applyStatic) {
    const std::vector<xgft::LinkId> atStart = plan.failedAt(0);
    if (!atStart.empty()) resolver->setCompiled(tableFor(atStart));
  }
  // Scheduled after scheduleOn's link events, so at an equal instant the
  // swap runs once the links have actually transitioned.  The failed set
  // at each transition is precomputed (it is a pure function of the plan),
  // so the callbacks do not reference the caller's plan object.
  for (const sim::TimeNs t : plan.transitionTimes()) {
    net.scheduleCallback(t, [resolver, tableFor,
                             failed = plan.failedAt(t)] {
      resolver->setCompiled(tableFor(failed));
    });
  }
  return state;
}

}  // namespace fault
