// micro_sim — google-benchmark microbenchmarks for the simulator and the
// replay engine: event throughput under contended and uncontended traffic,
// and end-to-end application replay cost.
#include <benchmark/benchmark.h>

#include <limits>
#include <memory>
#include <string>

#include "core/compiled_routes.hpp"
#include "obs/recorder.hpp"
#include "patterns/applications.hpp"
#include "patterns/permutation.hpp"
#include "routing/relabel.hpp"
#include "sim/event_queue.hpp"
#include "trace/harness.hpp"
#include "trace/openloop.hpp"
#include "trace/replayer.hpp"
#include "xgft/route.hpp"

namespace {

void BM_PermutationOnFullTree(benchmark::State& state) {
  const xgft::Topology topo(xgft::karyNTree(16, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::Pattern perm =
      patterns::randomPermutation(256, 3).toPattern(16 * 1024);
  patterns::PhasedPattern app;
  app.numRanks = 256;
  app.phases.push_back(perm);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const trace::RunResult r = trace::runApp(topo, *router, app);
    events += r.stats.eventsProcessed;
    benchmark::DoNotOptimize(r.makespanNs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_PermutationOnFullTree)->Unit(benchmark::kMillisecond);

void BM_HotspotContention(benchmark::State& state) {
  // Worst-case queueing pressure: everyone hammers host 0.
  const xgft::Topology topo(xgft::xgft2(8, 8, 4));
  const routing::RouterPtr router = routing::makeDModK(topo);
  patterns::PhasedPattern app;
  app.numRanks = 64;
  patterns::Pattern hot(64);
  for (patterns::Rank r = 1; r < 64; ++r) hot.add(r, 0, 16 * 1024);
  app.phases.push_back(hot);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const trace::RunResult r = trace::runApp(topo, *router, app);
    events += r.stats.eventsProcessed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_HotspotContention)->Unit(benchmark::kMillisecond);

void BM_PermutationTelemetry(benchmark::State& state) {
  // The BM_PermutationOnFullTree workload with the obs::Recorder probe at
  // each level: 0 = detached (the null-check hot path — must match the
  // plain bench within noise, the DESIGN.md §9 overhead budget), 1 =
  // summary sampling only, 2 = sampling + bounded event log.
  const auto level = static_cast<int>(state.range(0));
  const xgft::Topology topo(xgft::karyNTree(16, 2));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::Pattern perm =
      patterns::randomPermutation(256, 3).toPattern(16 * 1024);
  patterns::PhasedPattern app;
  app.numRanks = 256;
  app.phases.push_back(perm);
  const trace::Trace t = trace::traceFromPhases(app);
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  std::uint64_t events = 0;
  for (auto _ : state) {
    obs::RecorderConfig cfg;
    cfg.recordEvents = (level == 2);
    obs::Recorder recorder(cfg);
    sim::Network net(topo, sim::SimConfig{});
    if (level > 0) net.setProbe(&recorder);
    trace::Replayer replayer(net, t, mapping, *router);
    benchmark::DoNotOptimize(replayer.run());
    events += net.stats().eventsProcessed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_PermutationTelemetry)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_CgReplayScaled(benchmark::State& state) {
  // The Fig. 2(b) inner loop at the default bench message scale.
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const patterns::PhasedPattern cg =
      trace::scaleMessages(patterns::cgD128(), 0.125);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::runApp(topo, *router, cg).makespanNs);
  }
}
BENCHMARK(BM_CgReplayScaled)->Unit(benchmark::kMillisecond);

void BM_CrossbarReference(benchmark::State& state) {
  const patterns::PhasedPattern cg =
      trace::scaleMessages(patterns::cgD128(), 0.125);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::runCrossbarReference(cg).makespanNs);
  }
}
BENCHMARK(BM_CrossbarReference)->Unit(benchmark::kMillisecond);

void BM_EventCoreChurn(benchmark::State& state) {
  // The event queue in isolation: a steady-state schedule/pop cycle with
  // simulator-shaped deltas (transfer latency, wire free, wire arrive) at
  // the given concurrency.  items = events popped.
  const auto width = static_cast<std::uint32_t>(state.range(0));
  static constexpr sim::TimeNs kDeltas[] = {100, 4096, 4116};
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::uint32_t i = 0; i < width; ++i) q.push(kDeltas[i % 3], 0, i, 0);
    sim::EventRecord ev{};
    for (std::uint32_t i = 0; i < 100000; ++i) {
      benchmark::DoNotOptimize(
          q.popUntil(std::numeric_limits<sim::TimeNs>::max(), ev));
      q.push(ev.t + kDeltas[i % 3], 0, ev.a, 0);
    }
    events += 100000;
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = queue pops");
}
BENCHMARK(BM_EventCoreChurn)->Arg(8)->Arg(256)->Arg(4096);

void BM_OpenLoopPoisson160(benchmark::State& state) {
  // The paper's 160-host fabric near the saturation knee: an open-loop
  // Poisson uniform stream at load 0.7, the loadsweep campaign's inner
  // loop, end to end through trace::runOpenLoop.  items = simulator events.
  const xgft::Topology topo(xgft::xgft2(16, 16, 10));
  const routing::RouterPtr router = routing::makeDModK(topo);
  trace::OpenLoopOptions opt;
  opt.warmupNs = 50'000;
  opt.measureNs = 300'000;
  std::uint64_t events = 0;
  for (auto _ : state) {
    patterns::OpenLoopConfig cfg;
    cfg.numRanks = static_cast<patterns::Rank>(topo.numHosts());
    cfg.load = 0.7;
    cfg.messageBytes = 4096;
    cfg.stopNs = opt.warmupNs + opt.measureNs;
    cfg.seed = 1;
    patterns::OpenLoopSource src(cfg);
    const trace::OpenLoopResult r = trace::runOpenLoop(topo, *router, src, opt);
    events += r.stats.eventsProcessed;
    benchmark::DoNotOptimize(r.acceptedLoad);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_OpenLoopPoisson160)->Unit(benchmark::kMillisecond);

void BM_NetworkConstruction(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const xgft::Topology topo(xgft::karyNTree(k, 2));
  for (auto _ : state) {
    sim::Network net(topo, sim::SimConfig{});
    benchmark::DoNotOptimize(net.numGlobalPorts());
  }
}
BENCHMARK(BM_NetworkConstruction)->Arg(8)->Arg(16)->Arg(32);

/// The scale-out-tier topologies of the route-compile benches below.
/// 0 = xgft3:8:8:8:4:4:2 (512 hosts), 1 = xgft3:16:16:16:1:8:8 (4096).
xgft::Params xgft3Tier(int tier) {
  return tier == 0 ? xgft::Params({8, 8, 8}, {4, 4, 2})
                   : xgft::Params({16, 16, 16}, {1, 8, 8});
}

void BM_NetworkConstruction3(benchmark::State& state) {
  const xgft::Topology topo(xgft3Tier(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    sim::Network net(topo, sim::SimConfig{});
    benchmark::DoNotOptimize(net.numGlobalPorts());
  }
  state.SetLabel(topo.params().toString());
}
BENCHMARK(BM_NetworkConstruction3)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RouteCompileFlat(benchmark::State& state) {
  // Eager dense O(H^2) compilation on the 512-host tier (the 4096-host
  // flat table is 218 MB — past the engine budget, hence the compressed
  // rows below).  Counters report the resident table footprint.
  const auto topo = std::make_shared<const xgft::Topology>(xgft3Tier(0));
  const std::shared_ptr<const routing::Router> router =
      routing::makeDModK(*topo);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto table =
        core::CompiledRoutes::compile(router, 1, core::TableLayout::kFlat);
    bytes = table->forwardingBytes();
    benchmark::DoNotOptimize(table->upPorts(0, 1).size());
  }
  state.counters["flat_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RouteCompileFlat)->Unit(benchmark::kMillisecond);

void BM_RouteCompileCompressed(benchmark::State& state) {
  // Full (compileAll) interval-compressed compilation per tier; the
  // compressed_bytes counter against BM_RouteCompileFlat's flat_bytes (or
  // the analytic 218 MB at 4096 hosts) is the memory headline.
  const auto topo = std::make_shared<const xgft::Topology>(
      xgft3Tier(static_cast<int>(state.range(0))));
  const std::shared_ptr<const routing::Router> router =
      routing::makeDModK(*topo);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto table = core::CompiledRoutes::compile(
        router, 1, core::TableLayout::kCompressed);
    table->compileAll(1);
    bytes = table->forwardingBytes();
    benchmark::DoNotOptimize(table->upPorts(0, 1).size());
  }
  state.counters["compressed_bytes"] = static_cast<double>(bytes);
  state.counters["flat_bytes"] =
      static_cast<double>(core::CompiledRoutes::tableBytes(*topo));
  state.SetLabel(topo->params().toString());
}
BENCHMARK(BM_RouteCompileCompressed)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RouteCompileLazy(benchmark::State& state) {
  // What a sweep job actually pays: lookups against one 64-destination
  // chunk of the 4096-host tier build only that chunk.
  const auto topo = std::make_shared<const xgft::Topology>(xgft3Tier(1));
  const std::shared_ptr<const routing::Router> router =
      routing::makeDModK(*topo);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto table = core::CompiledRoutes::compile(
        router, 1, core::TableLayout::kCompressed);
    for (xgft::NodeIndex d = 0; d < core::CompiledRoutes::kChunkCols; ++d) {
      benchmark::DoNotOptimize(table->upPorts(1, d).size());
    }
    bytes = table->forwardingBytes();
  }
  state.counters["touched_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_RouteCompileLazy)->Unit(benchmark::kMillisecond);

void BM_RoutePairKernel(benchmark::State& state) {
  // The per-pair work inside every table compile, without the table: route
  // each ordered pair of the 4096-host tier into one reused buffer and run
  // the full validateRoute walk on it.  time_per_pair is the kernel cost
  // the compile rows above multiply by 16.8M pairs.
  const xgft::Topology topo(xgft3Tier(1));
  const routing::RouterPtr router = routing::makeDModK(topo);
  const xgft::NodeIndex n = topo.numHosts();
  xgft::Route route;
  std::string error;
  for (auto _ : state) {
    std::uint64_t valid = 0;
    for (xgft::NodeIndex s = 0; s < n; ++s) {
      for (xgft::NodeIndex d = 0; d < n; ++d) {
        router->route(s, d, route);
        valid += xgft::validateRoute(topo, s, d, route, &error) ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(valid);
  }
  const double pairs = static_cast<double>(n) * static_cast<double>(n);
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs) *
                          state.iterations());
  state.counters["time_per_pair"] = benchmark::Counter(
      pairs, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}
BENCHMARK(BM_RoutePairKernel)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
