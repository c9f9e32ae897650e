// Tests for core::CompiledRoutes: the table agrees with the source router on
// every ordered pair for every registered table scheme, parallel
// compilation is thread-count independent, lazy chunks build exactly once,
// and the simulator's compiled fast path reproduces the virtual path's
// results exactly.
#include "core/compiled_routes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "trace/harness.hpp"
#include "xgft/params.hpp"

namespace core {
namespace {

std::shared_ptr<const routing::Router> makeRouter(
    const std::shared_ptr<const xgft::Topology>& topo,
    const std::string& scheme, std::uint64_t seed = 1) {
  Scenario sc;
  sc.topo = topo->params();
  sc.routing = scheme;
  sc.seed = seed;
  sc.pattern = "ring:16";
  const patterns::PhasedPattern app = sc.makeWorkload();
  routing::RouterPtr built = sc.makeRouter(*topo, app);
  const routing::Router* raw = built.release();
  return std::shared_ptr<const routing::Router>(
      raw, [topo](const routing::Router* r) { delete r; });
}

/// Every registered table-mode scheme name (adaptive/spray have no tables).
std::vector<std::string> tableSchemes() {
  std::vector<std::string> out;
  for (const std::string& name : *schemeRegistry().names()) {
    if (schemeRegistry().at(name).mode == RouteMode::kTable) {
      out.push_back(name);
    }
  }
  return out;
}

TEST(CompiledRoutes, TableAgreesWithTheRouterOnEveryPair) {
  // The hard contract of the interval-compressed table: pair-for-pair the
  // router's own routes, for every registered table scheme, on a small
  // two-level tree, the paper's slimmed tree, a mid-size two-level tree and
  // a small three-level (scale-out tier) tree.
  const std::vector<xgft::Params> tiers = {
      xgft::xgft2(4, 4, 3),
      xgft::xgft2(16, 16, 10),             // paper-slim
      xgft::xgft2(8, 8, 4),
      xgft::Params({4, 4, 4}, {2, 2, 2}),  // xgft3:4:4:4:2:2:2
  };
  for (const xgft::Params& params : tiers) {
    const auto topo = std::make_shared<const xgft::Topology>(params);
    const xgft::Count n = topo->numHosts();
    for (const std::string& scheme : tableSchemes()) {
      const auto router = makeRouter(topo, scheme, 7);
      const auto table = CompiledRoutes::compile(router);
      for (xgft::NodeIndex s = 0; s < n; ++s) {
        for (xgft::NodeIndex d = 0; d < n; ++d) {
          ASSERT_EQ(table->route(s, d), router->route(s, d))
              << scheme << " on " << params.toString() << " (" << s
              << " -> " << d << ")";
          ASSERT_FALSE(table->unroutable(s, d));
        }
      }
    }
  }
}

TEST(CompiledRoutes, SelfPairsAreEmpty) {
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(4, 4, 2));
  const auto table = CompiledRoutes::compile(makeRouter(topo, "d-mod-k"));
  for (xgft::NodeIndex s = 0; s < topo->numHosts(); ++s) {
    EXPECT_TRUE(table->upPorts(s, s).empty());
  }
}

TEST(CompiledRoutes, TableBytesMatchesLayout) {
  const xgft::Topology topo(xgft::xgft2(4, 4, 2));
  // 16 hosts, height 2: 256 pairs * (2 * 4 + 1) bytes.
  EXPECT_EQ(CompiledRoutes::tableBytes(topo), 256u * 9u);
}

/// Never routes: stands in where a real router cannot be built (the
/// per-host state of d-mod-k does not fit in memory at 2^32 hosts).
class StubRouter final : public routing::Router {
 public:
  using Router::Router;
  void route(xgft::NodeIndex, xgft::NodeIndex, xgft::Route&) const override {
    ADD_FAILURE() << "a 2^32-host table must be refused before routing";
  }
  [[nodiscard]] std::string name() const override { return "stub"; }
};

TEST(CompiledRoutes, TableBytesSaturatesAt2To32Hosts) {
  // kary:65536:2 has 2^32 hosts: 2^64 pairs wrap to 0 without saturation,
  // which would admit the table under any budget.
  const xgft::Topology topo(xgft::karyNTree(65536, 2));
  ASSERT_EQ(topo.numHosts(), xgft::Count{1} << 32);
  EXPECT_EQ(CompiledRoutes::tableBytes(topo),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(CompiledRoutes, RefusesTopologiesWith2To32Hosts) {
  // Interval ranks are 32-bit: compile and the estimate throw rather than
  // truncating the host count to 0.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::karyNTree(65536, 2));
  const auto router = std::make_shared<const StubRouter>(*topo);
  EXPECT_THROW((void)CompiledRoutes::estimateCompressedBytes(*router),
               std::invalid_argument);
  EXPECT_THROW((void)CompiledRoutes::compile(router), std::invalid_argument);
  EXPECT_THROW((void)CompiledRoutes::compileWith(router, {}),
               std::invalid_argument);
}

TEST(CompiledRoutes, CompiledReplayMatchesVirtualReplayExactly) {
  // The whole point of the fast path: identical simulation results.  Replay
  // the same workload through Replayer with and without the table.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(8, 8, 3));
  Scenario sc;
  sc.topo = topo->params();
  sc.pattern = "alltoall:32";
  sc.msgScale = 0.0625;
  for (const char* scheme : {"d-mod-k", "Random", "colored"}) {
    sc.routing = scheme;
    const patterns::PhasedPattern app = sc.makeWorkload();
    const routing::RouterPtr router = sc.makeRouter(*topo, app);
    const trace::RunResult virtualRun = trace::runApp(*topo, *router, app);

    std::shared_ptr<const routing::Router> shared(
        router.get(), [](const routing::Router*) {});
    const auto table = CompiledRoutes::compile(shared);
    sim::Network net(*topo, sc.sim);
    const trace::Trace t = trace::traceFromPhases(app);
    const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
    trace::Replayer replayer(net, t, mapping, *router, {}, table.get());
    const sim::TimeNs makespan = replayer.run();

    EXPECT_EQ(makespan, virtualRun.makespanNs) << scheme;
    EXPECT_EQ(net.stats().segmentsDelivered,
              virtualRun.stats.segmentsDelivered)
        << scheme;
    EXPECT_EQ(net.stats().eventsProcessed, virtualRun.stats.eventsProcessed)
        << scheme;
  }
}

void expectSamePorts(const CompiledRoutes& a, const CompiledRoutes& b,
                     const std::string& label) {
  const xgft::Count n = a.numHosts();
  ASSERT_EQ(b.numHosts(), n) << label;
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      const std::span<const std::uint32_t> lhs = a.upPorts(s, d);
      const std::span<const std::uint32_t> rhs = b.upPorts(s, d);
      ASSERT_TRUE(std::equal(lhs.begin(), lhs.end(), rhs.begin(), rhs.end()))
          << label << " (" << s << " -> " << d << ")";
      ASSERT_EQ(a.unroutable(s, d), b.unroutable(s, d))
          << label << " (" << s << " -> " << d << ")";
    }
  }
}

TEST(CompiledRoutesCompressed, ChunksBuildLazilyAndExactlyOnce) {
  // 256 hosts = 4 chunks of 64 guide columns.  Nothing builds up front;
  // the first and the last pair build their own chunks only, a re-touch
  // builds nothing, and compileAll() finishes the rest.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 10));
  const auto router = makeRouter(topo, "d-mod-k");
  const auto table = CompiledRoutes::compile(router);
  ASSERT_EQ(table->numChunks(), 4u);
  EXPECT_EQ(table->builtChunks(), 0u);

  (void)table->upPorts(0, 0);  // Diagonal lookups build their chunk too.
  EXPECT_EQ(table->builtChunks(), 1u);
  const xgft::NodeIndex last = topo->numHosts() - 1;
  (void)table->upPorts(last, last);
  EXPECT_EQ(table->builtChunks(), 2u);

  EXPECT_EQ(table->route(0, last), router->route(0, last));
  const std::uint64_t bytesBefore = table->forwardingBytes();
  const std::size_t chunksBefore = table->builtChunks();
  (void)table->upPorts(0, last);  // Re-touch: both endpoint chunks exist.
  EXPECT_EQ(table->builtChunks(), chunksBefore);
  EXPECT_EQ(table->forwardingBytes(), bytesBefore);

  table->compileAll(2);
  EXPECT_EQ(table->builtChunks(), table->numChunks());
  EXPECT_GT(table->forwardingBytes(), bytesBefore);
  const xgft::Count n = topo->numHosts();
  for (xgft::NodeIndex s = 0; s < n; ++s) {
    for (xgft::NodeIndex d = 0; d < n; ++d) {
      ASSERT_EQ(table->route(s, d), router->route(s, d))
          << "(" << s << " -> " << d << ")";
    }
  }
}

TEST(CompiledRoutesCompressed, CompileAllIsThreadCountIndependent) {
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(8, 8, 4));
  const auto router = makeRouter(topo, "Random", 3);
  const auto serial = CompiledRoutes::compile(router);
  const auto threaded = CompiledRoutes::compile(router);
  serial->compileAll(1);
  threaded->compileAll(4);
  EXPECT_EQ(serial->forwardingBytes(), threaded->forwardingBytes());
  expectSamePorts(*serial, *threaded, "Random compileAll 1 vs 4");
}

TEST(CompiledRoutesCompressed, ShareRepPreservesRoutesWithinLeafGroups) {
  // shareRep(s, d) must name a source in s's leaf group whose up-port
  // vector to d is bit-identical — that is what lets resolvers share one
  // interned route set across the whole interval.
  const auto topo = std::make_shared<const xgft::Topology>(
      xgft::Params({4, 4, 4}, {2, 2, 2}));
  const std::uint32_t m1 = topo->params().m(1);
  for (const char* scheme : {"d-mod-k", "s-mod-k", "r-NCA-u"}) {
    const auto table = CompiledRoutes::compile(makeRouter(topo, scheme, 9));
    const xgft::Count n = topo->numHosts();
    for (xgft::NodeIndex s = 0; s < n; ++s) {
      for (xgft::NodeIndex d = 0; d < n; ++d) {
        const xgft::NodeIndex rep = table->shareRep(s, d);
        ASSERT_LE(rep, s);
        ASSERT_GE(rep, s - (s % m1)) << "rep left s's leaf group";
        const auto a = table->upPorts(rep, d);
        const auto b = table->upPorts(s, d);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << scheme << " (" << s << " -> " << d << " rep " << rep << ")";
      }
    }
  }
}

TEST(CompiledRoutesCompressed, EstimateSeparatesCompressibleSchemes) {
  // The engine's gate: label-arithmetic schemes estimate far below the
  // per-pair-random ones, which stay on the virtual fallback.
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(16, 16, 8));
  const std::uint64_t dmodk =
      CompiledRoutes::estimateCompressedBytes(*makeRouter(topo, "d-mod-k"));
  const std::uint64_t random =
      CompiledRoutes::estimateCompressedBytes(*makeRouter(topo, "Random", 3));
  EXPECT_LT(dmodk * 8, random);
}

TEST(CompiledRoutes, RejectsForeignTopologies) {
  const auto topo =
      std::make_shared<const xgft::Topology>(xgft::xgft2(4, 4, 2));
  const xgft::Topology other(xgft::xgft2(4, 4, 3));
  const auto table = CompiledRoutes::compile(makeRouter(topo, "d-mod-k"));

  Scenario sc;
  sc.topo = other.params();
  sc.pattern = "ring:16";
  const patterns::PhasedPattern app = sc.makeWorkload();
  const routing::RouterPtr router = sc.makeRouter(other, app);
  sim::Network net(other, sc.sim);
  const trace::Trace t = trace::traceFromPhases(app);
  const trace::Mapping mapping = trace::Mapping::sequential(app.numRanks);
  EXPECT_THROW(
      trace::Replayer(net, t, mapping, *router, {}, table.get()),
      std::invalid_argument);
}

}  // namespace
}  // namespace core
