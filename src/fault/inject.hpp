// inject.hpp — Wiring a FaultPlan into a live simulation.
//
// installFaultPlan() is the one call sites use to make a network honour a
// failure plan:
//
//  1. every LinkFault is scheduled on the calendar queue
//     (kLinkDown/kLinkUp events, FaultPlan::scheduleOn); segments already
//     committed to a dead port are rerouted or stranded by the event core
//     (sim::FaultPolicy);
//  2. when a resolver is supplied, each transition instant additionally
//     gets a callback that recompiles the scheme's forwarding tables
//     against the then-failed link set (compileDegraded) and swaps them
//     into the resolver — messages injected after the transition route
//     around the failures, while in-flight route sets are immutable
//     snapshots and keep their old paths (that is what the event core's
//     reroute is for).
//
// Table swaps happen after the same-instant link events (insertion order
// at equal timestamps), so a recompile always sees the network state it
// describes.  Identical failed-link sets share one compiled table.
//
// The returned handle owns the recompiled tables; keep it alive until the
// run completes (the resolver holds raw pointers into it).
#pragma once

#include <cstdint>
#include <memory>

#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "routing/router.hpp"
#include "sim/network.hpp"
#include "trace/route_resolver.hpp"

namespace fault {

struct InstallOptions {
  /// Vestigial: reroute-then-strand is the event core's only behaviour.
  /// Kept because the benchmark driver still sets it; drop it with
  /// sim::FaultPolicy at the next benchmark change.
  sim::FaultPolicy policy = sim::FaultPolicy::kReroute;

  /// What a recompile does with partitioned pairs.  kThrow aborts the run
  /// from inside the recompile callback (the error surfaces out of
  /// Network::run); kDrop marks them unroutable so injection refuses and
  /// counts them.
  UnreachablePolicy unreachable = UnreachablePolicy::kDrop;

  /// Worker threads per degraded-table compile (0 = hardware concurrency).
  std::uint32_t compileThreads = 1;

  /// Skip the t = 0 table swap (transitions > 0 still recompile).  Engines
  /// that memoize the static degraded table across jobs pass it to the run
  /// directly and set this false.
  bool applyStatic = true;
};

/// Installs @p plan on @p net as described above.  @p resolver may be null:
/// link events still fire and in-flight traffic still reroutes, but no table
/// recompilation happens (per-segment schemes, or closed-loop runs that
/// pre-compiled a static degraded table).  When @p resolver is non-null it
/// must not be in a per-segment mode (spray, adaptive), and @p router must
/// be the scheme it resolves for; a virtual-mode resolver switches to
/// compiled mode at the first recompile.  Returns the keep-alive handle owning every recompiled table.
std::shared_ptr<void> installFaultPlan(
    sim::Network& net, const FaultPlan& plan,
    std::shared_ptr<const routing::Router> router,
    trace::RouteSetResolver* resolver, const InstallOptions& opt = {});

}  // namespace fault
