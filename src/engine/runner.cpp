#include "engine/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "analysis/contention.hpp"
#include "core/scenario.hpp"
#include "fault/inject.hpp"
#include "patterns/source.hpp"
#include "trace/harness.hpp"
#include "trace/mapping.hpp"
#include "trace/openloop.hpp"
#include "trace/replayer.hpp"
#include "trace/trace.hpp"

namespace engine {

namespace {

/// Serializes the simulator parameters that affect measured times, for use
/// in reference-cache keys (campaigns normally share one SimConfig, but the
/// cache must stay correct if a caller varies it).
std::string configKey(const sim::SimConfig& cfg) {
  std::ostringstream os;
  os << formatShortest(cfg.linkGbps) << '/' << cfg.segmentBytes << '/'
     << cfg.headerBytes
     << '/' << cfg.switchLatencyNs << '/' << cfg.linkLatencyNs << '/'
     << cfg.inputBufferSegments << '/' << cfg.outputBufferSegments;
  return os.str();
}

/// Cache key identifying a built router (and therefore its compiled
/// forwarding table): topology, the scheme the job actually builds
/// (core::routerBuildScheme — per-segment schemes share the d-mod-k
/// placeholder), and — only where they matter — seed, workload and scale.
std::string routerKey(const ExperimentSpec& spec, const xgft::Topology& topo) {
  std::string name;
  const core::SchemeInfo& scheme = core::routerBuildScheme(spec.routing, &name);
  std::ostringstream key;
  key << topo.params().toString() << '|' << name;
  if (scheme.seeded) key << "|seed=" << spec.seed;
  if (scheme.patternAware) {
    // Pattern-aware tables depend on the workload (and on the seed via
    // tie-breaking / sampling in the optimizer).
    key << "|app=" << spec.pattern << '|'
        << formatShortest(spec.msgScale) << "|seed=" << spec.seed;
  }
  return key.str();
}

/// The spray/adaptive configuration the scheme's route mode implies.
trace::SprayConfig sprayConfigFor(const core::SchemeInfo& scheme,
                                  const ExperimentSpec& spec) {
  trace::SprayConfig sprayCfg;
  if (scheme.mode == core::RouteMode::kAdaptive) {
    sprayCfg.adaptive = true;
  } else if (scheme.mode == core::RouteMode::kSpray) {
    sprayCfg.enabled = true;
    sprayCfg.seed = deriveSeed(spec.seed, "spray");
  }
  return sprayCfg;
}

}  // namespace

template <typename T>
template <typename Build>
T CampaignCache::Memo<T>::get(const std::string& key, Build&& build) {
  std::shared_future<T> future;
  std::shared_ptr<std::promise<T>> promise;
  {
    core::LockGuard lock(mu);
    auto it = entries.find(key);
    if (it != entries.end()) {
      ++hits;
      future = it->second;
    } else {
      ++misses;
      promise = std::make_shared<std::promise<T>>();
      future = promise->get_future().share();
      entries.emplace(key, future);
    }
  }
  if (promise) {
    try {
      promise->set_value(build());
    } catch (...) {
      // Memoized like a value: every requester of the key, concurrent or
      // later, rethrows this error and counts a hit, so the hit/miss counts
      // do not depend on thread timing.
      promise->set_exception(std::current_exception());
    }
  }
  return future.get();
}

template <typename T>
std::pair<std::uint64_t, std::uint64_t> CampaignCache::Memo<T>::counts()
    const {
  core::LockGuard lock(mu);
  return {hits, misses};
}

std::shared_ptr<const xgft::Topology> CampaignCache::topology(
    const xgft::Params& params) {
  return topologies_.get(params.toString(), [&] {
    return std::make_shared<const xgft::Topology>(params);
  });
}

std::shared_ptr<const routing::Router> CampaignCache::router(
    const ExperimentSpec& spec,
    const std::shared_ptr<const xgft::Topology>& topo,
    const patterns::PhasedPattern& app) {
  return routers_.get(
      routerKey(spec, *topo),
      [&]() -> std::shared_ptr<const routing::Router> {
        // The registry factory is the single construction path (the same
        // one Scenario::makeRouter uses).
        routing::RouterPtr built = spec.scenario().makeRouter(*topo, app);
        // Tie the topology's lifetime to the router handed out: routers
        // hold a bare reference to their topology.
        const routing::Router* raw = built.release();
        return std::shared_ptr<const routing::Router>(
            raw, [topo](const routing::Router* r) { delete r; });
      });
}

std::shared_ptr<const core::CompiledRoutes> CampaignCache::compiledRoutes(
    const ExperimentSpec& spec,
    const std::shared_ptr<const routing::Router>& router,
    std::uint32_t threads) {
  return tables_.get(
      routerKey(spec, router->topology()),
      [&]() -> std::shared_ptr<const core::CompiledRoutes> {
        // The over-budget memo's rule with the dense table size as the
        // budget: a scheme that compresses to no less than a dense table
        // (per-pair randomness) routes virtually instead.
        if (core::CompiledRoutes::estimateCompressedBytes(*router) >
            core::CompiledRoutes::tableBytes(router->topology())) {
          return nullptr;
        }
        std::shared_ptr<const core::CompiledRoutes> table =
            core::CompiledRoutes::compile(router);
        table->compileAll(threads);
        return table;
      });
}

std::shared_ptr<const core::CompiledRoutes> CampaignCache::compressedRoutes(
    const ExperimentSpec& spec,
    const std::shared_ptr<const routing::Router>& router,
    std::uint64_t maxBytes) {
  return compressed_.get(
      routerKey(spec, router->topology()),
      [&]() -> std::shared_ptr<const core::CompiledRoutes> {
        // Deterministic sampled estimate first: a scheme that does not
        // compress (per-pair randomness) would blow the budget chunk by
        // chunk at simulation time, so refuse up front — the memoized
        // nullptr keeps such jobs on the virtual-routing path.
        if (core::CompiledRoutes::estimateCompressedBytes(*router) >
            maxBytes) {
          return nullptr;
        }
        return core::CompiledRoutes::compile(router);
      });
}

std::shared_ptr<const core::CompiledRoutes> CampaignCache::degradedRoutes(
    const ExperimentSpec& spec,
    const std::shared_ptr<const routing::Router>& router,
    const fault::FaultPlan& plan, fault::UnreachablePolicy policy,
    std::uint32_t threads) {
  std::ostringstream key;
  key << routerKey(spec, router->topology()) << "|faults=" << plan.spec
      << "|unreachable="
      << (policy == fault::UnreachablePolicy::kThrow ? "throw" : "drop");
  if (fault::planRegistry().at(core::splitSpec(plan.spec).name).seeded) {
    key << "|fseed=" << deriveSeed(spec.seed, "fault");
  }
  return degraded_.get(key.str(), [&] {
    const std::vector<xgft::LinkId> failed = plan.failedAt(0);
    const fault::DegradedTopology view(router->topology(), failed);
    return fault::compileDegraded(router, view, policy, threads).table;
  });
}

sim::TimeNs CampaignCache::crossbarMakespan(const ExperimentSpec& spec,
                                            const patterns::PhasedPattern& app,
                                            const sim::SimConfig& cfg) {
  std::ostringstream key;
  key << spec.pattern << '|' << formatShortest(spec.msgScale) << '|'
      << configKey(cfg);
  if (core::patternRegistry().at(core::splitSpec(spec.pattern).name).seeded) {
    key << "|pseed=" << deriveSeed(spec.seed, "pattern");
  }
  return references_.get(key.str(), [&] {
    return trace::runCrossbarReference(app, cfg).makespanNs;
  });
}

CacheStats CampaignCache::stats() const {
  CacheStats s;
  std::tie(s.topologyHits, s.topologyMisses) = topologies_.counts();
  std::tie(s.routerHits, s.routerMisses) = routers_.counts();
  std::tie(s.tableHits, s.tableMisses) = tables_.counts();
  std::tie(s.referenceHits, s.referenceMisses) = references_.counts();
  std::tie(s.degradedHits, s.degradedMisses) = degraded_.counts();
  std::tie(s.compressedHits, s.compressedMisses) = compressed_.counts();
  return s;
}

ForwardingStats CampaignCache::forwardingStats() const {
  ForwardingStats f;
  core::LockGuard lock(compressed_.mu);
  // std::map: ordered iteration, deterministic sums.  Called after the pool
  // joined, so every future is ready.
  for (const auto& [key, future] : compressed_.entries) {
    std::shared_ptr<const core::CompiledRoutes> table;
    try {
      table = future.get();
    } catch (...) {
      continue;  // A failed build: no table to count.
    }
    if (!table) continue;  // Estimate exceeded the budget (virtual fallback).
    f.tableBytesFlat += core::CompiledRoutes::tableBytes(table->topology());
    f.tableBytesCompressed += table->forwardingBytes();
  }
  return f;
}

namespace {

/// The recorder for a job, or null when its effective level is off.  The
/// event log is only kept at kTrace — summary campaigns stay lean.
std::shared_ptr<obs::Recorder> makeRecorder(const ExperimentSpec& spec,
                                            const RunnerOptions& opt) {
  const TelemetryLevel level = std::max(spec.telemetry, opt.telemetry);
  if (level == TelemetryLevel::kOff) return nullptr;
  obs::RecorderConfig cfg = opt.recorder;
  cfg.recordEvents = level == TelemetryLevel::kTrace;
  return std::make_shared<obs::Recorder>(cfg);
}

/// The healthy forwarding table a table-mode job routes through, or null for
/// virtual routing.  Within the budget the memoized table is fully built;
/// above it the over-budget table is lazy (an open-loop sweep compiles only
/// the destination chunks its source touches) unless @p eager asks for every
/// chunk now (closed-loop replay touches essentially every pair of its
/// workload, so it builds them in parallel rather than one lazy miss at a
/// time on the simulation path).
std::shared_ptr<const core::CompiledRoutes> healthyTable(
    const ExperimentSpec& spec, CampaignCache& cache,
    const std::shared_ptr<const routing::Router>& router,
    const RunnerOptions& opt, bool eager) {
  const std::uint32_t threads = std::max(1u, opt.compileThreads);
  if (core::CompiledRoutes::tableBytes(router->topology()) <=
      opt.maxCompiledTableBytes) {
    return cache.compiledRoutes(spec, router, threads);
  }
  std::shared_ptr<const core::CompiledRoutes> table =
      cache.compressedRoutes(spec, router, opt.maxCompiledTableBytes);
  if (table && eager) table->compileAll(threads);
  return table;
}

/// The job's fault plan, checked against everything that can refuse it
/// before any router or table is built.  Fault plans route through
/// recompiled tables, so they need a topology within the table budget;
/// closed-loop phase replay takes static plans only.
fault::FaultPlan validatedFaultPlan(const ExperimentSpec& spec,
                                    const xgft::Topology& topo,
                                    const RunnerOptions& opt, bool openLoop) {
  fault::FaultPlan plan;
  if (spec.faults.empty()) return plan;
  (void)fault::requireDegradable(spec.routing);
  plan = fault::makeFaultPlan(spec.faults, topo,
                              deriveSeed(spec.seed, "fault"));
  if (!openLoop && plan.hasTimed()) {
    throw std::invalid_argument(
        "timed fault plans need an open-loop job (source=): closed-loop "
        "phase replay cannot drop messages without stalling its barrier");
  }
  if (core::CompiledRoutes::tableBytes(topo) > opt.maxCompiledTableBytes) {
    throw std::invalid_argument(
        "fault plans need compiled forwarding tables, but this topology's "
        "table exceeds maxCompiledTableBytes");
  }
  return plan;
}

}  // namespace

JobResult runJob(const ExperimentSpec& spec, std::uint32_t jobIndex,
                 CampaignCache& cache, const RunnerOptions& opt) {
  const auto jobStart = std::chrono::steady_clock::now();
  JobResult result;
  result.jobIndex = jobIndex;
  result.spec = spec;
  try {
    // 1. Validate.  Every check that can refuse the job runs before the
    // first router, table or degraded-table memo call.  A closed-loop job
    // replays a phased pattern; an open-loop (source=) job streams a source
    // and keeps `app` empty — oblivious routers never look at it, so its
    // cached router is shared with closed-loop jobs under the same key.
    const bool openLoop = !spec.source.empty();
    const core::SchemeInfo& scheme = core::schemeRegistry().at(spec.routing);
    if (openLoop && scheme.patternAware) {
      throw std::invalid_argument(
          "scheme '" + spec.routing +
          "' is pattern-aware and needs a closed-loop pattern= workload");
    }
    const patterns::PhasedPattern app =
        openLoop ? patterns::PhasedPattern{} : makeWorkload(spec);
    const std::shared_ptr<const xgft::Topology> topo = cache.topology(spec.topo);
    if (app.numRanks > topo->numHosts()) {
      throw std::invalid_argument("workload has " +
                                  std::to_string(app.numRanks) +
                                  " ranks but the topology only " +
                                  std::to_string(topo->numHosts()) + " hosts");
    }
    const fault::FaultPlan plan =
        validatedFaultPlan(spec, *topo, opt, openLoop);

    // 2. Build.  Per-segment algorithms never consult the router; the cache
    // hands them the inert d-mod-k placeholder the run interfaces want.
    // Static schemes route through the compiled forwarding table (shared
    // across every job with the same router key) unless no table pays —
    // then the virtual path serves, which costs one route() per distinct
    // (src, dst) pair rather than per message (trace::RouteSetResolver).
    // Fault plans route through compiled tables, so a faulted open-loop job
    // builds the healthy table even when the campaign opted out of it.
    const std::shared_ptr<const routing::Router> router =
        cache.router(spec, topo, app);
    const std::uint32_t compileThreads = std::max(1u, opt.compileThreads);
    std::shared_ptr<const core::CompiledRoutes> table;
    if (scheme.mode == core::RouteMode::kTable &&
        (opt.compileRoutes || (openLoop && !plan.empty()))) {
      table = healthyTable(spec, cache, router, opt, /*eager=*/!openLoop);
    }
    // The t = 0 degraded table replaces the healthy one for static
    // failures; timed-only plans start healthy and swap tables at their
    // transitions.  Closed-loop jobs compile it under kThrow: a partitioned
    // pair would stall the phase barrier forever, so it fails loudly here.
    if (!plan.failedAt(0).empty()) {
      table = cache.degradedRoutes(spec, router, plan,
                                   openLoop ? fault::UnreachablePolicy::kDrop
                                            : fault::UnreachablePolicy::kThrow,
                                   compileThreads);
    }

    // 3. Run.  One fault install for both loops: the link events and —
    // given a resolver — the recompiles at each timed transition.  A
    // closed-loop plan is static and its degraded table routes every pair
    // around the failures, so no segment meets a dead port; the events
    // still fire so linkDownNs accounts.
    std::shared_ptr<void> faultState;  // Owns recompiled tables; outlives
                                       // the run (the resolver points in).
    const auto installFaults = [&](sim::Network& net,
                                   trace::RouteSetResolver* resolver) {
      fault::InstallOptions io;
      io.unreachable = fault::UnreachablePolicy::kDrop;
      io.compileThreads = compileThreads;
      io.applyStatic = false;  // The t = 0 table is already `table`.
      faultState = fault::installFaultPlan(net, plan, router, resolver, io);
    };
    const trace::SprayConfig sprayCfg = sprayConfigFor(scheme, spec);
    const std::shared_ptr<obs::Recorder> recorder = makeRecorder(spec, opt);
    result.telemetry = recorder;
    if (openLoop) {
      const sim::TimeNs stopNs = opt.openLoopWarmupNs + opt.openLoopMeasureNs;
      const std::unique_ptr<patterns::TrafficSource> source =
          spec.scenario(opt.sim).makeSource(
              static_cast<patterns::Rank>(topo->numHosts()), 0, stopNs);
      trace::OpenLoopOptions ol;
      ol.warmupNs = opt.openLoopWarmupNs;
      ol.measureNs = opt.openLoopMeasureNs;
      ol.spray = sprayCfg;
      ol.compiled = table.get();
      ol.probe = recorder.get();
      if (!plan.empty()) {
        ol.prepare = [&](sim::Network& net, trace::RouteSetResolver& res) {
          installFaults(net, &res);
        };
      }
      const trace::OpenLoopResult r =
          trace::runOpenLoop(*topo, *router, *source, ol, opt.sim);
      result.makespanNs = r.lastDeliveryNs;
      result.net = r.stats;
      result.routeArenaEntries = r.routeArenaEntries;
      result.utilMax = r.utilMax;
      result.utilMean = r.utilMean;
      result.openLoop = true;
      // Measured, not the configured nominal: gap rounding and the bursty
      // line-rate clamp make the truly offered rate deviate from spec.load
      // (which the CSV reports separately in the `load` column).
      result.offeredLoad = r.offeredLoad;
      result.acceptedLoad = r.acceptedLoad;
      result.latencySamples = r.latency.samples;
      result.latencyMinNs = r.latency.minNs;
      result.latencyMeanNs = r.latency.meanNs;
      result.latencyP50Ns = r.latency.p50Ns;
      result.latencyP99Ns = r.latency.p99Ns;
      result.latencyMaxNs = r.latency.maxNs;
    } else {
      sim::Network net(*topo, opt.sim);
      if (!plan.empty()) installFaults(net, nullptr);
      if (recorder) net.setProbe(recorder.get());
      const trace::Trace t = trace::traceFromPhases(app);
      const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
      trace::Replayer replayer(net, t, mapping, *router, sprayCfg,
                               table.get());
      result.makespanNs = replayer.run();
      result.net = net.stats();
      result.routeArenaEntries = net.routes().arenaEntries();
      const sim::WireUtilization util =
          sim::wireUtilization(net, result.makespanNs);
      result.utilMax = util.max;
      result.utilMean = util.mean;

      const sim::TimeNs reference = cache.crossbarMakespan(spec, app, opt.sim);
      result.slowdown = reference == 0
                            ? 1.0
                            : static_cast<double>(result.makespanNs) /
                                  static_cast<double>(reference);

      // Contention/census columns describe the healthy router's routes,
      // which a faulted job does not use — leave them at their defaults.
      if (opt.collectContention && scheme.mode == core::RouteMode::kTable &&
          spec.faults.empty()) {
        const patterns::Pattern flat = app.flattened();
        const analysis::LoadSummary loads =
            analysis::computeLoads(*topo, flat, *router);
        result.maxFlowsPerChannel = loads.maxFlowsPerChannel;
        result.maxDemand = loads.maxDemand;
        const std::vector<std::uint64_t> census =
            analysis::ncaRouteCensusForPattern(*topo, flat, *router,
                                               topo->height());
        if (!census.empty()) {
          result.ncaRoutesMin =
              *std::min_element(census.begin(), census.end());
          result.ncaRoutesMax =
              *std::max_element(census.begin(), census.end());
        }
      }
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown error";
  }
  result.wallNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - jobStart)
          .count());
  return result;
}

Runner::Runner(RunnerOptions opt) : opt_(std::move(opt)) {}

CampaignResults Runner::run(const std::vector<ExperimentSpec>& specs) {
  if (opt_.simThreads > 1) {
    throw std::invalid_argument(
        "Runner: simThreads " + std::to_string(opt_.simThreads) +
        " > 1, but the event core is serial (use threads for parallelism)");
  }
  const auto start = std::chrono::steady_clock::now();
  CampaignResults results;
  results.jobs.resize(specs.size());

  std::uint32_t poolWidth = opt_.threads;
  if (poolWidth == 0) {
    poolWidth = std::max(1u, std::thread::hardware_concurrency());
  }
  const std::uint32_t threads = static_cast<std::uint32_t>(
      std::min<std::size_t>(poolWidth,
                            std::max<std::size_t>(std::size_t{1},
                                                  specs.size())));

  // Table compilations get the pool's idle share: with fewer jobs than
  // workers (threads < poolWidth) the spare threads speed up each compile,
  // with a saturated pool each worker compiles serially (no N^2 thread
  // blow-up).
  RunnerOptions jobOpt = opt_;
  jobOpt.compileThreads = std::max(1u, poolWidth / threads);

  // One shared next-job counter: each worker claims the lowest unclaimed
  // index until none is left.  Results land in their job's slot, so the
  // order jobs finish in never shows in the output.
  std::atomic<std::size_t> next{0};
  core::Mutex doneMu;  // Serializes onJobDone.
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < specs.size();
         i = next.fetch_add(1)) {
      JobResult job =
          runJob(specs[i], static_cast<std::uint32_t>(i), cache_, jobOpt);
      if (opt_.onJobDone) {
        core::LockGuard lock(doneMu);
        opt_.onJobDone(job);
      }
      results.jobs[i] = std::move(job);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::uint32_t w = 1; w < threads; ++w) pool.emplace_back(work);
  work();  // The calling thread is the pool's first worker.
  for (std::thread& t : pool) t.join();

  results.sortByIndex();
  results.threadsUsed = threads;
  results.cache = cache_.stats();
  results.forwarding = cache_.forwardingStats();
  results.wallTimeNs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return results;
}

}  // namespace engine
