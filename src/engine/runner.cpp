#include "engine/runner.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <thread>

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
      promise->set_exception(std::current_exception());
      // Don't poison the key: current waiters see this failure, but a later
      // request retries the build (the failure may have been transient).
      core::LockGuard lock(mu);
      entries.erase(key);
    }
  }
  return future.get();  // Rethrows the builder's exception for every waiter.
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
  return tables_.get(routerKey(spec, router->topology()), [&] {
    return core::CompiledRoutes::compile(router, threads);
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
        return core::CompiledRoutes::compile(router, /*threads=*/1,
                                             core::TableLayout::kCompressed);
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
  {
    core::LockGuard lock(topologies_.mu);
    s.topologyHits = topologies_.hits;
    s.topologyMisses = topologies_.misses;
  }
  {
    core::LockGuard lock(routers_.mu);
    s.routerHits = routers_.hits;
    s.routerMisses = routers_.misses;
  }
  {
    core::LockGuard lock(tables_.mu);
    s.tableHits = tables_.hits;
    s.tableMisses = tables_.misses;
  }
  {
    core::LockGuard lock(references_.mu);
    s.referenceHits = references_.hits;
    s.referenceMisses = references_.misses;
  }
  {
    core::LockGuard lock(degraded_.mu);
    s.degradedHits = degraded_.hits;
    s.degradedMisses = degraded_.misses;
  }
  {
    core::LockGuard lock(compressed_.mu);
    s.compressedHits = compressed_.hits;
    s.compressedMisses = compressed_.misses;
  }
  return s;
}

ForwardingStats CampaignCache::forwardingStats() const {
  ForwardingStats f;
  core::LockGuard lock(compressed_.mu);
  // std::map: ordered iteration, deterministic sums.  Called after the pool
  // joined, so every future is ready (failed builds erased their entries).
  for (const auto& [key, future] : compressed_.entries) {
    const std::shared_ptr<const core::CompiledRoutes> table = future.get();
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

/// The open-loop (source=) job path: no trace, no crossbar reference — the
/// streaming source runs through trace::runOpenLoop and the measurement
/// window's operating point fills the load–latency columns.
void runOpenLoopJob(const ExperimentSpec& spec, CampaignCache& cache,
                    const RunnerOptions& opt, JobResult& result) {
  const core::SchemeInfo& scheme = core::schemeRegistry().at(spec.routing);
  if (scheme.patternAware) {
    throw std::invalid_argument(
        "scheme '" + spec.routing +
        "' is pattern-aware and needs a closed-loop pattern= workload");
  }
  const std::shared_ptr<const xgft::Topology> topo =
      cache.topology(spec.topo);
  const trace::SprayConfig sprayCfg = sprayConfigFor(scheme, spec);
  // Oblivious routers never look at the workload, so the cached router is
  // shared with closed-loop jobs under the same key.
  const patterns::PhasedPattern noApp;
  const std::shared_ptr<const routing::Router> router =
      cache.router(spec, topo, noApp);

  // Fault plans route through recompiled tables, so a faulted job needs the
  // compiled path even when the campaign opted out of it.
  fault::FaultPlan plan;
  if (!spec.faults.empty()) {
    (void)fault::requireDegradable(spec.routing);
    plan = fault::makeFaultPlan(spec.faults, *topo,
                                deriveSeed(spec.seed, "fault"));
    if (core::CompiledRoutes::tableBytes(*topo) > opt.maxCompiledTableBytes) {
      throw std::invalid_argument(
          "fault plans need compiled forwarding tables, but this topology's "
          "table exceeds maxCompiledTableBytes");
    }
  }

  std::shared_ptr<const core::CompiledRoutes> compiled;
  if (scheme.mode == core::RouteMode::kTable &&
      (opt.compileRoutes || !plan.empty())) {
    if (core::CompiledRoutes::tableBytes(*topo) <= opt.maxCompiledTableBytes) {
      compiled = cache.compiledRoutes(spec, router,
                                      std::max(1u, opt.compileThreads));
    } else if (plan.empty()) {
      // Flat table over budget: try the interval-compressed layout, left
      // lazy on purpose — an open-loop sweep compiles only the destination
      // chunks its source actually touches.  nullptr (scheme does not
      // compress either) keeps the virtual-routing fallback.
      compiled = cache.compressedRoutes(spec, router,
                                        opt.maxCompiledTableBytes);
    }
  }
  // The t = 0 degraded table replaces the healthy one for static failures;
  // timed-only plans start healthy and swap tables at their transitions.
  std::shared_ptr<const core::CompiledRoutes> degradedTable;
  if (!plan.empty() && !plan.failedAt(0).empty()) {
    degradedTable =
        cache.degradedRoutes(spec, router, plan,
                             fault::UnreachablePolicy::kDrop,
                             std::max(1u, opt.compileThreads));
  }

  const sim::TimeNs stopNs = opt.openLoopWarmupNs + opt.openLoopMeasureNs;
  const std::unique_ptr<patterns::TrafficSource> source =
      spec.scenario(opt.sim).makeSource(
          static_cast<patterns::Rank>(topo->numHosts()), 0, stopNs);

  trace::OpenLoopOptions ol;
  ol.warmupNs = opt.openLoopWarmupNs;
  ol.measureNs = opt.openLoopMeasureNs;
  ol.spray = sprayCfg;
  ol.compiled = degradedTable ? degradedTable.get() : compiled.get();
  const std::shared_ptr<obs::Recorder> recorder = makeRecorder(spec, opt);
  ol.probe = recorder.get();
  // Owns every table recompiled at the plan's transition instants; must
  // outlive the run (the resolver holds raw pointers into it).
  std::shared_ptr<void> faultState;
  if (!plan.empty()) {
    ol.prepare = [&](sim::Network& net, trace::RouteSetResolver& resolver) {
      fault::InstallOptions io;
      io.policy = sim::FaultPolicy::kReroute;
      io.unreachable = fault::UnreachablePolicy::kDrop;
      io.compileThreads = std::max(1u, opt.compileThreads);
      io.applyStatic = false;  // The t = 0 table is already ol.compiled.
      faultState = fault::installFaultPlan(net, plan, router, &resolver, io);
    };
  }
  const trace::OpenLoopResult r =
      trace::runOpenLoop(*topo, *router, *source, ol, opt.sim);
  result.telemetry = recorder;

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
}

}  // namespace

JobResult runJob(const ExperimentSpec& spec, std::uint32_t jobIndex,
                 CampaignCache& cache, const RunnerOptions& opt) {
  const auto jobStart = std::chrono::steady_clock::now();
  JobResult result;
  result.jobIndex = jobIndex;
  result.spec = spec;
  try {
    if (!spec.source.empty()) {
      runOpenLoopJob(spec, cache, opt, result);
      result.ok = true;
      result.wallNs = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - jobStart)
              .count());
      return result;
    }
    const patterns::PhasedPattern app = makeWorkload(spec);
    const std::shared_ptr<const xgft::Topology> topo = cache.topology(spec.topo);
    if (app.numRanks > topo->numHosts()) {
      throw std::invalid_argument("workload has " +
                                  std::to_string(app.numRanks) +
                                  " ranks but the topology only " +
                                  std::to_string(topo->numHosts()) + " hosts");
    }

    const core::SchemeInfo& scheme = core::schemeRegistry().at(spec.routing);
    const trace::SprayConfig sprayCfg = sprayConfigFor(scheme, spec);
    // Per-segment algorithms never consult the router; the cache hands them
    // the inert d-mod-k placeholder the Replayer interface wants.
    const std::shared_ptr<const routing::Router> router =
        cache.router(spec, topo, app);

    // Static schemes route through the compiled forwarding table (shared
    // across every job with the same router key) unless the topology's
    // table would blow the memory budget — then the virtual path serves,
    // which since the interned-route rework costs one route() per distinct
    // (src, dst) pair rather than per message (Replayer::routeSetFor), so
    // the fallback is off every workload's per-message hot path.
    std::shared_ptr<const core::CompiledRoutes> compiled;
    if (scheme.mode == core::RouteMode::kTable && opt.compileRoutes) {
      if (core::CompiledRoutes::tableBytes(*topo) <=
          opt.maxCompiledTableBytes) {
        compiled = cache.compiledRoutes(spec, router,
                                        std::max(1u, opt.compileThreads));
      } else {
        compiled = cache.compressedRoutes(spec, router,
                                          opt.maxCompiledTableBytes);
        // Closed-loop replay touches essentially every pair of the
        // workload; build the remaining chunks eagerly (and in parallel)
        // rather than one lazy miss at a time on the simulation path.
        if (compiled) compiled->compileAll(std::max(1u, opt.compileThreads));
      }
    }

    // Closed-loop fault path: static plans only.  The degraded table is
    // compiled under kThrow (a partitioned pair would stall the phase
    // barrier forever, so it must fail loudly at compile time), and the
    // dead links still get their calendar events so linkDownNs accounts —
    // no traffic touches them, every recompiled route avoids the failures.
    fault::FaultPlan plan;
    std::shared_ptr<const core::CompiledRoutes> degradedTable;
    if (!spec.faults.empty()) {
      (void)fault::requireDegradable(spec.routing);
      plan = fault::makeFaultPlan(spec.faults, *topo,
                                  deriveSeed(spec.seed, "fault"));
      if (plan.hasTimed()) {
        throw std::invalid_argument(
            "timed fault plans need an open-loop job (source=): closed-loop "
            "phase replay cannot drop messages without stalling its barrier");
      }
      if (core::CompiledRoutes::tableBytes(*topo) >
          opt.maxCompiledTableBytes) {
        throw std::invalid_argument(
            "fault plans need compiled forwarding tables, but this "
            "topology's table exceeds maxCompiledTableBytes");
      }
      if (!plan.empty()) {
        degradedTable =
            cache.degradedRoutes(spec, router,
                                 plan, fault::UnreachablePolicy::kThrow,
                                 std::max(1u, opt.compileThreads));
      }
    }

    sim::Network net(*topo, opt.sim);
    if (!plan.empty()) plan.scheduleOn(net);
    const std::shared_ptr<obs::Recorder> recorder = makeRecorder(spec, opt);
    if (recorder) net.setProbe(recorder.get());
    result.telemetry = recorder;
    const trace::Trace t = trace::traceFromPhases(app);
    const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
    trace::Replayer replayer(
        net, t, mapping, *router, sprayCfg,
        degradedTable ? degradedTable.get() : compiled.get());
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

    // Contention/census columns describe the healthy router's routes, which
    // a faulted job does not use — leave them at their defaults there.
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
        result.ncaRoutesMin = *std::min_element(census.begin(), census.end());
        result.ncaRoutesMax = *std::max_element(census.begin(), census.end());
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

  core::Mutex doneMu;  // Serializes onJobDone.
  const auto finishJob = [&](std::uint32_t index) {
    JobResult job = runJob(specs[index], index, cache_, jobOpt);
    if (opt_.onJobDone) {
      core::LockGuard lock(doneMu);
      opt_.onJobDone(job);
      results.jobs[index] = std::move(job);
    } else {
      results.jobs[index] = std::move(job);
    }
  };

  if (threads <= 1) {
    for (std::uint32_t i = 0; i < specs.size(); ++i) finishJob(i);
  } else {
    // Work-stealing: jobs are dealt block-cyclically to per-worker deques;
    // a worker drains its own deque from the front and steals from the back
    // of the most loaded peer when empty.  Jobs never enqueue new jobs, so
    // once every deque is empty a worker can retire.
    struct WorkerQueue {
      core::Mutex mu;
      std::deque<std::uint32_t> q XGFT_GUARDED_BY(mu);
    };
    std::vector<WorkerQueue> queues(threads);
    for (std::uint32_t i = 0; i < specs.size(); ++i) {
      // Single-threaded dealing phase, but the guard keeps the analysis
      // exact (and it is uncontended, so it costs nothing).
      WorkerQueue& mine = queues[i % threads];
      core::LockGuard lock(mine.mu);
      mine.q.push_back(i);
    }

    const auto popOwn = [&](std::uint32_t w, std::uint32_t& out) {
      WorkerQueue& own = queues[w];
      core::LockGuard lock(own.mu);
      if (own.q.empty()) return false;
      out = own.q.front();
      own.q.pop_front();
      return true;
    };
    const auto steal = [&](std::uint32_t thief, std::uint32_t& out) {
      std::uint32_t victim = threads;
      std::size_t best = 0;
      for (std::uint32_t v = 0; v < threads; ++v) {
        if (v == thief) continue;
        WorkerQueue& peer = queues[v];
        core::LockGuard lock(peer.mu);
        if (peer.q.size() > best) {
          best = peer.q.size();
          victim = v;
        }
      }
      if (victim == threads) return false;
      WorkerQueue& loser = queues[victim];
      core::LockGuard lock(loser.mu);
      if (loser.q.empty()) return false;
      out = loser.q.back();
      loser.q.pop_back();
      return true;
    };

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::uint32_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        std::uint32_t job = 0;
        while (popOwn(w, job) || steal(w, job)) finishJob(job);
      });
    }
    for (std::thread& t : pool) t.join();
  }

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
