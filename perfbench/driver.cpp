// driver.cpp — The benchmark's worker process: runs one named campaign
// workload through the public engine API and prints one JSON line.
//
//   perfbench_driver run    --workload W --seed N --threads T --out DIR
//                           [--sim-threads S]
//       engine::Runner at pool width T, as campaign_cli runs it; writes the
//       CSV and the includeHost=false manifest into DIR.  S shard workers
//       per job (campaign_cli --sim-threads); the default 0 keeps the
//       engine's idle-share rule.
//   perfbench_driver setup  --workload W --seed N
//       Set-up-only passes (topology, workload, router, table and degraded
//       compile, sim::Network construction), each on a fresh cache, until
//       1 s has passed (at least one).
//   perfbench_driver traced --workload W --seed N --out DIR
//       One serial pass whose call sequence mirrors engine::runJob, with a
//       span around every layer call it makes, then the route-resolution
//       probe.  Writes the spans, CSV and manifest into DIR.
//   perfbench_driver campaign --workload W --seed N
//       Prints the workload's campaign text.
//   perfbench_driver host
//       Prints the compiler and build type this binary was built with.
//
// Add --quick to shrink every workload (the self-test uses it).  perfbench/
// run.py drives these subcommands, checks their outputs and aggregates the
// metrics; see perfbench/README.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/contention.hpp"
#include "core/compiled_routes.hpp"
#include "core/scenario.hpp"
#include "engine/campaigns.hpp"
#include "engine/manifest.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"
#include "fault/degraded.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "obs/json_util.hpp"
#include "patterns/source.hpp"
#include "sim/network.hpp"
#include "trace/mapping.hpp"
#include "trace/openloop.hpp"
#include "trace/replayer.hpp"
#include "trace/route_resolver.hpp"
#include "trace/trace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---- workloads --------------------------------------------------------------

/// Adds @p shift to every integer in every `seed=` value of @p text (plain
/// integers, `a..b` ranges and `{a,b}` lists).  A zero shift returns the
/// text unchanged, byte for byte.
std::string shiftSeeds(const std::string& text, std::uint64_t shift) {
  if (shift == 0) return text;
  static const std::regex seedValue(R"(seed=([0-9.{},]+))");
  static const std::regex integer(R"([0-9]+)");
  std::string out;
  auto last = text.cbegin();
  for (std::sregex_iterator it(text.begin(), text.end(), seedValue), end;
       it != end; ++it) {
    const std::smatch& m = *it;
    out.append(last, m[1].first);
    const std::string value = m[1].str();
    std::string shifted;
    auto pos = value.cbegin();
    for (std::sregex_iterator n(value.begin(), value.end(), integer), nend;
         n != nend; ++n) {
      shifted.append(pos, (*n)[0].first);
      shifted += std::to_string(std::stoull((*n)[0].str()) + shift);
      pos = (*n)[0].second;
    }
    shifted.append(pos, value.cend());
    out += shifted;
    last = m[1].second;
  }
  out.append(last, text.cend());
  return out;
}

/// One named benchmark workload: campaign text plus the runner options that
/// differ from campaign_cli's defaults (open-loop window lengths only).
struct Workload {
  std::string text;
  sim::TimeNs warmupNs = engine::RunnerOptions{}.openLoopWarmupNs;
  sim::TimeNs measureNs = engine::RunnerOptions{}.openLoopMeasureNs;
};

/// The builtin `faultsweep` line, swept over several seeds so each seed
/// draws its own failed-link set.
std::string faultsweepText(std::uint32_t seeds) {
  std::string text = engine::builtinCampaign("faultsweep", {});
  const std::string one = "seed=1\n";
  const std::size_t at = text.rfind(one);
  if (at == std::string::npos) {
    throw std::runtime_error("builtin faultsweep has no trailing seed=1");
  }
  return text.replace(at, one.size(),
                      "seed=1.." + std::to_string(seeds) + "\n");
}

// Open-loop windows are shortened from the 500 us + 2 ms default so that one
// campaign repeats several times inside a measured run; the job structure
// (hosts, loads, schemes, seeds) is the builtin one.
Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      bool quick) {
  Workload w;
  if (name == "fig2-cg") {
    // CLI defaults: --seeds 10 --msg-scale 0.125.
    w.text = quick ? engine::builtinCampaign("fig2-cg", {1, 0.03125})
                   : engine::builtinCampaign("fig2-cg", {});
  } else if (name == "loadsweep") {
    w.text = engine::builtinCampaign("loadsweep", {quick ? 1u : 10u, 0.125});
    w.warmupNs = quick ? 5'000 : 100'000;
    w.measureNs = quick ? 20'000 : 400'000;
  } else if (name == "bigsweep-4k") {
    w.text =
        "# bigsweep-4k: the 4096-host slice of the bigsweep builtin\n"
        "topo=xgft3:16:16:16:1:8:8 source=poisson:uniform load=0.3 "
        "msg_scale=0.03125 routing=d-mod-k seed=1\n";
    w.warmupNs = quick ? 2'000 : 10'000;
    w.measureNs = quick ? 5'000 : 30'000;
  } else if (name == "faultsweep") {
    w.text = faultsweepText(quick ? 1 : 3);
    w.warmupNs = quick ? 5'000 : 100'000;
    w.measureNs = quick ? 20'000 : 400'000;
  } else {
    throw std::invalid_argument(
        "unknown workload '" + name +
        "' (known: fig2-cg, loadsweep, bigsweep-4k, faultsweep)");
  }
  w.text = shiftSeeds(w.text, seed);
  return w;
}

engine::RunnerOptions runnerOptions(const Workload& w, std::uint32_t threads,
                                    std::uint32_t simThreads = 0) {
  engine::RunnerOptions opt;
  opt.threads = threads;
  opt.simThreads = simThreads;
  opt.openLoopWarmupNs = w.warmupNs;
  opt.openLoopMeasureNs = w.measureNs;
  return opt;
}

// ---- JSON output ------------------------------------------------------------

/// Flat JSON object writer for the one result line each subcommand prints.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    if (!std::isfinite(v)) v = 0.0;
    return raw(key, obs::formatJsonDouble(v));
  }
  JsonObject& u64(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, '"' + obs::jsonEscape(v) + '"');
  }
  JsonObject& raw(const std::string& key, const std::string& rendered) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += '"' + obs::jsonEscape(key) + "\": " + rendered;
    return *this;
  }
  [[nodiscard]] std::string str() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

std::string cacheJson(const engine::CacheStats& c) {
  return JsonObject()
      .u64("topology_hits", c.topologyHits)
      .u64("topology_misses", c.topologyMisses)
      .u64("router_hits", c.routerHits)
      .u64("router_misses", c.routerMisses)
      .u64("table_hits", c.tableHits)
      .u64("table_misses", c.tableMisses)
      .u64("reference_hits", c.referenceHits)
      .u64("reference_misses", c.referenceMisses)
      .u64("degraded_hits", c.degradedHits)
      .u64("degraded_misses", c.degradedMisses)
      .u64("compressed_hits", c.compressedHits)
      .u64("compressed_misses", c.compressedMisses)
      .str();
}

/// Counts every run of a workload must reproduce exactly, plus the output
/// check inputs, appended to @p out.
void campaignSummary(JsonObject& out, const engine::CampaignResults& res) {
  std::uint64_t ok = 0, events = 0, segments = 0, messages = 0, arena = 0,
                rerouted = 0, dropped = 0, jobWallNs = 0;
  std::string firstError;
  for (const engine::JobResult& job : res.jobs) {
    if (job.ok) {
      ++ok;
    } else if (firstError.empty()) {
      firstError = job.spec.toLine() + ": " + job.error;
    }
    events += job.net.eventsProcessed;
    segments += job.net.segmentsDelivered;
    messages += job.net.messagesDelivered;
    arena += job.routeArenaEntries;
    rerouted += job.net.segmentsRerouted;
    dropped += job.net.messagesDropped;
    jobWallNs += job.wallNs;
  }
  out.u64("jobs", res.jobs.size())
      .u64("jobs_ok", ok)
      .str("first_error", firstError)
      .u64("job_wall_ns", jobWallNs)
      .u64("sim_threads_used", res.simThreadsUsed)
      .raw("counts", JsonObject()
                         .u64("events", events)
                         .u64("segments", segments)
                         .u64("messages", messages)
                         .u64("route_arena_entries", arena)
                         .u64("segments_rerouted", rerouted)
                         .u64("messages_dropped", dropped)
                         .str())
      .raw("cache", cacheJson(res.cache));
}

/// Writes the CSV and the host-free manifest into @p dir; returns their
/// total size in bytes.
std::uint64_t writeOutputs(const std::string& dir,
                           const engine::CampaignResults& res) {
  const std::string csv = res.toCsv();
  engine::ManifestOptions mopt;
  mopt.includeHost = false;
  const std::string manifest = engine::manifestToJson(res, mopt);
  for (const auto& [file, bytes] :
       {std::pair{dir + "/campaign.csv", &csv},
        std::pair{dir + "/manifest.json", &manifest}}) {
    std::ofstream os(file, std::ios::binary | std::ios::trunc);
    os << *bytes;
    os.flush();
    if (!os) throw std::runtime_error("cannot write " + file);
  }
  return csv.size() + manifest.size();
}

// ---- spans ------------------------------------------------------------------

/// In-memory span recorder: name, start, end, parent span and job id.  Spans
/// nest strictly (the pass is serial), so a stack gives each one its parent.
class Tracer {
 public:
  static constexpr std::uint32_t kNoJob = 0xffffffffu;

  struct Span {
    const char* name;
    std::int64_t startNs;
    std::int64_t endNs;
    std::int32_t parent;
    std::uint32_t job;
  };

  std::size_t begin(const char* name, std::uint32_t job) {
    const std::int32_t parent =
        stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    spans_.push_back(Span{name, nowNs(), 0, parent, job});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  /// Closes span @p id and every span still open inside it (an exception
  /// unwound past their end calls); a span that is not open is ignored.
  void end(std::size_t id) {
    if (std::find(stack_.begin(), stack_.end(), id) == stack_.end()) return;
    const std::int64_t t = nowNs();
    std::size_t top = 0;
    do {
      top = stack_.back();
      stack_.pop_back();
      spans_[top].endNs = t;
    } while (top != id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed self time, the span's duration minus the time
  /// its direct children cover.
  [[nodiscard]] std::map<std::string, std::int64_t> selfNs() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].endNs - spans_[i].startNs;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].endNs - spans_[i].startNs;
      }
    }
    std::map<std::string, std::int64_t> byName;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      byName[spans_[i].name] += self[i];
    }
    return byName;
  }

  void write(std::ostream& os) const {
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << JsonObject()
                .u64("id", i)
                .str("name", s.name)
                .raw("parent", std::to_string(s.parent))
                .raw("job", s.job == kNoJob ? "null" : std::to_string(s.job))
                .u64("start_ns", static_cast<std::uint64_t>(s.startNs - t0))
                .u64("end_ns", static_cast<std::uint64_t>(s.endNs - t0))
                .str()
         << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint32_t job)
      : tracer_(tracer), id_(tracer.begin(name, job)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Span names of the set-up layers; their summed time is setup_s.  The
/// patterns.stream span (draining a job's messages to learn which lazy
/// chunks it touches) is the benchmark's own work and is left out.
bool isSetupSpan(const std::string& name) {
  return name == "xgft.topology" || name == "patterns.workload" ||
         name == "routing.router" || name == "core.table" ||
         name == "fault.plan" || name == "fault.degraded_compile" ||
         name == "sim.network_build";
}

// ---- the traced pass --------------------------------------------------------

using Pairs = std::vector<std::pair<xgft::NodeIndex, xgft::NodeIndex>>;

/// An open-loop job's (src, dst) message stream, drained from a fresh source
/// with the job's spec and seed: the messages its run injects.
Pairs openLoopPairs(const engine::ExperimentSpec& spec,
                    const xgft::Topology& topo,
                    const engine::RunnerOptions& opt) {
  const std::unique_ptr<patterns::TrafficSource> source =
      spec.scenario(opt.sim).makeSource(
          static_cast<patterns::Rank>(topo.numHosts()), 0,
          opt.openLoopWarmupNs + opt.openLoopMeasureNs);
  Pairs pairs;
  patterns::SourceMessage m;
  sim::TimeNs now = 0;
  while (source->pull(now, m) == patterns::Pull::kMessage) {
    pairs.emplace_back(m.src, m.dst);
    now = m.time;
  }
  return pairs;
}

/// What the resolution probe needs from one job after the pass.
struct JobState {
  std::shared_ptr<const xgft::Topology> topo;
  std::shared_ptr<const routing::Router> router;
  std::shared_ptr<const core::CompiledRoutes> healthyTable;
  std::shared_ptr<const core::CompiledRoutes> table;  ///< Degraded if faulted.
  trace::SprayConfig spray;
  patterns::PhasedPattern app;  ///< Closed-loop jobs only.
};

struct PassResult {
  engine::CampaignResults results;
  Tracer tracer;
  std::vector<JobState> jobs;
  std::uint64_t outputBytes = 0;
  std::int64_t wallNs = 0;
};

// Mirrors engine::sprayConfigFor (runner.cpp).
trace::SprayConfig sprayConfigFor(const core::SchemeInfo& scheme,
                                  const engine::ExperimentSpec& spec) {
  trace::SprayConfig cfg;
  if (scheme.mode == core::RouteMode::kAdaptive) {
    cfg.adaptive = true;
  } else if (scheme.mode == core::RouteMode::kSpray) {
    cfg.enabled = true;
    cfg.seed = engine::deriveSeed(spec.seed, "spray");
  }
  return cfg;
}

/// One job, following engine::runJob's call sequence step by step, except
/// that an open-loop job's lazy table chunks are built in core.table, not in
/// the run.  Every job records the same spans (plus patterns.stream for an
/// open-loop job on a lazy table); a step that does not apply to the job (the
/// fault steps of a healthy job, the crossbar reference and contention
/// columns of an open-loop one) records only the check that skips it.  With
/// @p setupOnly the job stops after the set-up layers: sim::Network is
/// constructed, not run.
void runTracedJob(const engine::ExperimentSpec& spec, std::uint32_t index,
                  engine::CampaignCache& cache,
                  const engine::RunnerOptions& opt, bool setupOnly,
                  Tracer& tr, engine::JobResult& result, JobState& state) {
  const bool openLoop = !spec.source.empty();
  const core::SchemeInfo& scheme = core::schemeRegistry().at(spec.routing);
  const std::uint32_t compileThreads = std::max(1u, opt.compileThreads);

  {
    Scope s(tr, "xgft.topology", index);
    state.topo = cache.topology(spec.topo);
  }
  const xgft::Topology& topo = *state.topo;
  std::unique_ptr<patterns::TrafficSource> source;
  {
    Scope s(tr, "patterns.workload", index);
    if (openLoop) {
      source = spec.scenario(opt.sim).makeSource(
          static_cast<patterns::Rank>(topo.numHosts()), 0,
          opt.openLoopWarmupNs + opt.openLoopMeasureNs);
    } else {
      state.app = engine::makeWorkload(spec);
      if (state.app.numRanks > topo.numHosts()) {
        throw std::invalid_argument("workload has more ranks than hosts");
      }
    }
  }
  {
    Scope s(tr, "routing.router", index);
    if (openLoop && scheme.patternAware) {
      throw std::invalid_argument("pattern-aware scheme on an open-loop job");
    }
    state.spray = sprayConfigFor(scheme, spec);
    state.router = cache.router(spec, state.topo, state.app);
  }
  fault::FaultPlan plan;
  {
    Scope s(tr, "fault.plan", index);
    if (!spec.faults.empty()) {
      (void)fault::requireDegradable(spec.routing);
      plan = fault::makeFaultPlan(spec.faults, topo,
                                  engine::deriveSeed(spec.seed, "fault"));
      if (!openLoop && plan.hasTimed()) {
        throw std::invalid_argument("timed fault plan on a closed-loop job");
      }
      if (core::CompiledRoutes::tableBytes(topo) >
          opt.maxCompiledTableBytes) {
        throw std::invalid_argument("fault plan over the table budget");
      }
    }
  }
  std::shared_ptr<const core::CompiledRoutes> compiled;
  {
    Scope s(tr, "core.table", index);
    if (scheme.mode == core::RouteMode::kTable &&
        (opt.compileRoutes || (openLoop && !plan.empty()))) {
      if (core::CompiledRoutes::tableBytes(topo) <=
          opt.maxCompiledTableBytes) {
        compiled = cache.compiledRoutes(spec, state.router, compileThreads);
      } else if (!openLoop || plan.empty()) {
        // Lazy for open-loop jobs; replays touch every pair, so eager.
        compiled = cache.compressedRoutes(spec, state.router,
                                          opt.maxCompiledTableBytes);
        if (compiled && !openLoop) compiled->compileAll(compileThreads);
        if (compiled && openLoop) {
          // engine::runJob leaves these chunks to build on first touch
          // inside the run.  Here the job's own stream touches them first,
          // with the lookups trace::RouteSetResolver::setFor makes, so the
          // same chunks are built (same forwarding bytes, same outputs) but
          // their cost is charged to this layer and to setup_s, not to
          // sim.run.
          Pairs pairs;
          {
            Scope drain(tr, "patterns.stream", index);
            pairs = openLoopPairs(spec, topo, opt);
          }
          for (const auto& [src, dst] : pairs) {
            (void)compiled->shareRep(src, dst);
            (void)compiled->upPorts(src, dst);
          }
        }
      }
    }
  }
  state.healthyTable = compiled;
  const std::size_t chunksBeforeRun = compiled ? compiled->builtChunks() : 0;
  {
    Scope s(tr, "fault.degraded_compile", index);
    std::shared_ptr<const core::CompiledRoutes> degraded;
    if (!plan.empty() && (!openLoop || !plan.failedAt(0).empty())) {
      degraded = cache.degradedRoutes(
          spec, state.router, plan,
          openLoop ? fault::UnreachablePolicy::kDrop
                   : fault::UnreachablePolicy::kThrow,
          compileThreads);
    }
    state.table = degraded ? degraded : compiled;
  }

  if (setupOnly) {
    Scope s(tr, "sim.network_build", index);
    const sim::Network net(topo, opt.sim);
    return;
  }
  // Closed-loop simulation state.  As in engine::runJob it lives through the
  // job's last step; its teardown is a span of its own.
  std::unique_ptr<sim::Network> net;
  std::optional<trace::Trace> t;  // The replayer keeps references to the
  std::optional<trace::Mapping> mapping;  // trace and the mapping.
  std::unique_ptr<trace::Replayer> replayer;
  if (openLoop) {
    trace::OpenLoopOptions ol;
    ol.warmupNs = opt.openLoopWarmupNs;
    ol.measureNs = opt.openLoopMeasureNs;
    ol.simThreads = 1;
    ol.spray = state.spray;
    ol.compiled = state.table.get();
    std::shared_ptr<void> faultState;  // Must outlive the run.
    // runOpenLoop builds its Network and resolver, then calls prepare: the
    // hook ends the network-construction span and starts the run span.  A
    // healthy job's table has no unroutable pair, so the drop handler that
    // runOpenLoop installs alongside a prepare hook never fires.
    const std::size_t buildSpan = tr.begin("sim.network_build", index);
    std::optional<std::size_t> runSpan;
    ol.prepare = [&](sim::Network& net, trace::RouteSetResolver& resolver) {
      tr.end(buildSpan);
      {
        Scope s(tr, "fault.install", index);
        if (!plan.empty()) {
          fault::InstallOptions io;
          io.policy = sim::FaultPolicy::kReroute;
          io.unreachable = fault::UnreachablePolicy::kDrop;
          io.compileThreads = compileThreads;
          io.applyStatic = false;  // The t = 0 table is already ol.compiled.
          faultState = fault::installFaultPlan(net, plan, state.router,
                                               &resolver, io);
        }
      }
      runSpan = tr.begin("sim.run", index);
    };
    const trace::OpenLoopResult r =
        trace::runOpenLoop(topo, *state.router, *source, ol, opt.sim);
    if (!runSpan) throw std::logic_error("runOpenLoop skipped prepare");
    tr.end(*runSpan);
    if (compiled && compiled->builtChunks() != chunksBeforeRun) {
      throw std::logic_error("the run built table chunks that core.table "
                             "did not");
    }
    result.makespanNs = r.lastDeliveryNs;
    result.net = r.stats;
    result.routeArenaEntries = r.routeArenaEntries;
    result.utilMax = r.utilMax;
    result.utilMean = r.utilMean;
    result.openLoop = true;
    result.offeredLoad = r.offeredLoad;
    result.acceptedLoad = r.acceptedLoad;
    result.latencySamples = r.latency.samples;
    result.latencyMinNs = r.latency.minNs;
    result.latencyMeanNs = r.latency.meanNs;
    result.latencyP50Ns = r.latency.p50Ns;
    result.latencyP99Ns = r.latency.p99Ns;
    result.latencyMaxNs = r.latency.maxNs;
  } else {
    {
      Scope s(tr, "sim.network_build", index);
      net = std::make_unique<sim::Network>(topo, opt.sim);
    }
    {
      Scope s(tr, "fault.install", index);
      if (!plan.empty()) plan.scheduleOn(*net);
    }
    {
      Scope s(tr, "trace.replay_setup", index);
      t = trace::traceFromPhases(state.app);
      mapping = trace::Mapping::sequential(state.app.numRanks);
      replayer = std::make_unique<trace::Replayer>(
          *net, *t, *mapping, *state.router, state.spray, state.table.get());
    }
    {
      Scope s(tr, "sim.run", index);
      result.makespanNs = replayer->run();
      result.net = net->stats();
      result.routeArenaEntries = net->routes().arenaEntries();
      const sim::WireUtilization util =
          sim::wireUtilization(*net, result.makespanNs);
      result.utilMax = util.max;
      result.utilMean = util.mean;
    }
  }
  {
    Scope s(tr, "trace.crossbar", index);
    if (!openLoop) {
      const sim::TimeNs reference =
          cache.crossbarMakespan(spec, state.app, opt.sim);
      result.slowdown = reference == 0
                            ? 1.0
                            : static_cast<double>(result.makespanNs) /
                                  static_cast<double>(reference);
    }
  }
  {
    Scope s(tr, "analysis.contention", index);
    if (!openLoop && opt.collectContention &&
        scheme.mode == core::RouteMode::kTable && spec.faults.empty()) {
      const patterns::Pattern flat = state.app.flattened();
      const analysis::LoadSummary loads =
          analysis::computeLoads(topo, flat, *state.router);
      result.maxFlowsPerChannel = loads.maxFlowsPerChannel;
      result.maxDemand = loads.maxDemand;
      const std::vector<std::uint64_t> census =
          analysis::ncaRouteCensusForPattern(topo, flat, *state.router,
                                             topo.height());
      if (!census.empty()) {
        result.ncaRoutesMin = *std::min_element(census.begin(), census.end());
        result.ncaRoutesMax = *std::max_element(census.begin(), census.end());
      }
    }
  }
  Scope s(tr, "sim.teardown", index);
  replayer.reset();
  mapping.reset();
  t.reset();
  net.reset();
}

/// Runs every spec serially on a fresh cache with the options a one-thread
/// engine::Runner gives its jobs.  With a non-empty @p outDir the pass ends
/// like campaign_cli: the CSV and host-free manifest are written there.
PassResult tracedPass(const std::vector<engine::ExperimentSpec>& specs,
                      engine::RunnerOptions opt, bool setupOnly,
                      const std::string& outDir) {
  opt.threads = 1;
  opt.compileThreads = 1;
  opt.simThreads = 1;
  PassResult pass;
  engine::CampaignCache cache;
  pass.results.jobs.resize(specs.size());
  pass.jobs.resize(specs.size());
  const std::int64_t start = nowNs();
  const std::size_t root = pass.tracer.begin("engine.campaign", Tracer::kNoJob);
  for (std::uint32_t i = 0; i < specs.size(); ++i) {
    engine::JobResult& result = pass.results.jobs[i];
    const std::int64_t jobStart = nowNs();
    result.jobIndex = i;
    result.spec = specs[i];
    const std::size_t jobSpan = pass.tracer.begin("engine.job", i);
    try {
      runTracedJob(specs[i], i, cache, opt, setupOnly, pass.tracer, result,
                   pass.jobs[i]);
      result.ok = true;
    } catch (const std::exception& e) {
      result.error = e.what();
    }
    pass.tracer.end(jobSpan);
    result.wallNs = static_cast<std::uint64_t>(nowNs() - jobStart);
  }
  pass.results.threadsUsed = 1;
  pass.results.simThreadsUsed = 1;
  pass.results.cache = cache.stats();
  pass.results.forwarding = cache.forwardingStats();
  pass.results.wallTimeNs = static_cast<std::uint64_t>(nowNs() - start);
  if (!outDir.empty()) {
    Scope s(pass.tracer, "engine.output", Tracer::kNoJob);
    pass.outputBytes = writeOutputs(outDir, pass.results);
  }
  pass.tracer.end(root);
  pass.wallNs = nowNs() - start;
  return pass;
}

// ---- route-resolution probe -------------------------------------------------

struct ResolveProbe {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  std::uint64_t setsInterned = 0;
  /// Sum of the returned set ids: ids are dense and assigned in interning
  /// order, so the sum must repeat exactly (and keeps the loop observable).
  std::uint64_t idSum = 0;
};

/// Feeds each job's own (src, dst) message stream to a fresh
/// trace::RouteSetResolver over the job's table, outside any simulation.
/// Open-loop streams are drained from the job's source (same spec, same
/// seed); closed-loop streams are the workload's flows in order.  Jobs
/// whose scheme routes per hop (adaptive) have no resolver and are skipped.
ResolveProbe resolveProbe(const std::vector<engine::ExperimentSpec>& specs,
                          const PassResult& pass,
                          const engine::RunnerOptions& opt) {
  ResolveProbe probe;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobState& job = pass.jobs[i];
    if (!pass.results.jobs[i].ok || job.spray.adaptive) continue;
    Pairs pairs;
    if (!specs[i].source.empty()) {
      pairs = openLoopPairs(specs[i], *job.topo, opt);
    } else {
      const patterns::Pattern flat = job.app.flattened();
      for (const patterns::Flow& f : flat.flows()) {
        pairs.emplace_back(f.src, f.dst);
      }
    }
    sim::Network net(*job.topo, opt.sim);
    trace::RouteSetResolver resolver(net, *job.router, job.spray,
                                     job.table.get());
    const std::int64_t t0 = nowNs();
    for (const auto& [src, dst] : pairs) {
      if (src == dst) continue;
      probe.idSum += resolver.setFor(src, dst);
      ++probe.calls;
    }
    probe.ns += nowNs() - t0;
    probe.setsInterned += net.routes().numSets();
  }
  return probe;
}

// ---- subcommands ------------------------------------------------------------

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 0;
  std::uint32_t threads = 1;
  std::uint32_t simThreads = 0;  ///< 0: the engine's idle-share default.
  std::string out;
  bool quick = false;
};

Args parseArgs(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing subcommand");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " wants a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--threads") {
      a.threads = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--sim-threads") {
      a.simThreads = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--out") {
      a.out = next();
    } else if (arg == "--quick") {
      a.quick = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.threads == 0) throw std::invalid_argument("--threads must be positive");
  if ((a.command == "run" || a.command == "traced") && a.out.empty()) {
    throw std::invalid_argument(a.command + " needs --out DIR");
  }
  return a;
}

int cmdRun(const Args& a, const Workload& w,
           const std::vector<engine::ExperimentSpec>& specs) {
  engine::Runner runner(runnerOptions(w, a.threads, a.simThreads));
  const std::int64_t t0 = nowNs();
  const engine::CampaignResults res = runner.run(specs);
  const std::uint64_t outputBytes = writeOutputs(a.out, res);
  const std::int64_t wallNs = nowNs() - t0;
  JsonObject out;
  out.num("wall_s", static_cast<double>(wallNs) / 1e9)
      .u64("threads_used", res.threadsUsed)
      .u64("output_bytes", outputBytes);
  campaignSummary(out, res);
  std::cout << out.str() << '\n';
  return 0;
}

int cmdHost() {
  std::cout << JsonObject()
                   .str("compiler", PERFBENCH_COMPILER)
                   .str("build_type", PERFBENCH_BUILD_TYPE)
                   .str()
            << '\n';
  return 0;
}

int cmdSetup(const Workload& w,
             const std::vector<engine::ExperimentSpec>& specs) {
  // Passes until 1 s has passed, so a cheap set-up still yields a steady
  // median.
  constexpr double kMinSeconds = 1.0;
  std::string setupS;
  std::uint64_t passes = 0, jobsOk = 0;
  const std::int64_t start = nowNs();
  do {
    const PassResult pass = tracedPass(specs, runnerOptions(w, 1), true, "");
    std::int64_t ns = 0;
    for (const auto& [name, self] : pass.tracer.selfNs()) {
      if (isSetupSpan(name)) ns += self;
    }
    for (const engine::JobResult& job : pass.results.jobs) jobsOk += job.ok;
    setupS += (setupS.empty() ? "" : ", ") +
              obs::formatJsonDouble(static_cast<double>(ns) / 1e9);
    ++passes;
  } while (static_cast<double>(nowNs() - start) / 1e9 < kMinSeconds &&
           passes < 10'000);
  std::cout << JsonObject()
                   .raw("setup_s", "[" + setupS + "]")
                   .u64("jobs", specs.size() * passes)
                   .u64("jobs_ok", jobsOk)
                   .str()
            << '\n';
  return 0;
}

int cmdTraced(const Args& a, const Workload& w,
              const std::vector<engine::ExperimentSpec>& specs) {
  const engine::RunnerOptions opt = runnerOptions(w, 1);
  const PassResult pass = tracedPass(specs, opt, false, a.out);
  {
    std::ofstream os(a.out + "/spans.jsonl", std::ios::trunc);
    pass.tracer.write(os);
    if (!os) throw std::runtime_error("cannot write spans");
  }

  // Every distinct healthy table, read after the pass so lazily built
  // chunks count.  Flat tables have no chunks.
  std::set<const core::CompiledRoutes*> tables;
  std::uint64_t tableBytes = 0, builtChunks = 0, numChunks = 0;
  for (const JobState& job : pass.jobs) {
    const core::CompiledRoutes* table = job.healthyTable.get();
    if (table == nullptr || !tables.insert(table).second) continue;
    tableBytes += table->forwardingBytes();
    builtChunks += table->builtChunks();
    numChunks += table->numChunks();
  }
  const ResolveProbe probe = resolveProbe(specs, pass, opt);

  JsonObject selfMs;
  for (const auto& [name, ns] : pass.tracer.selfNs()) {
    selfMs.num(name, static_cast<double>(ns) / 1e6);
  }
  JsonObject out;
  out.num("wall_s", static_cast<double>(pass.wallNs) / 1e9)
      .raw("self_ms", selfMs.str())
      .u64("spans", pass.tracer.spans().size())
      .u64("output_bytes", pass.outputBytes)
      .u64("tables_compiled", tables.size())
      .u64("table_bytes", tableBytes)
      .u64("chunks_built", builtChunks)
      .u64("chunks_total", numChunks)
      .u64("resolve_calls", probe.calls)
      .num("resolve_ns", static_cast<double>(probe.ns))
      .u64("route_sets_interned", probe.setsInterned)
      .u64("resolve_id_sum", probe.idSum);
  campaignSummary(out, pass.results);
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "host") return cmdHost();
    const Args a = parseArgs(argc, argv);
    const Workload w = makeWorkload(a.workload, a.seed, a.quick);
    if (a.command == "campaign") {
      std::cout << w.text;
      return 0;
    }
    const std::vector<engine::ExperimentSpec> specs =
        engine::parseCampaign(w.text);
    if (a.command == "run") return cmdRun(a, w, specs);
    if (a.command == "setup") return cmdSetup(w, specs);
    if (a.command == "traced") return cmdTraced(a, w, specs);
    throw std::invalid_argument("unknown subcommand '" + a.command + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 2;
  }
}
