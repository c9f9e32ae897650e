// Tests for the campaign engine: thread-count-independent results, cache
// hit/miss behaviour (including shared in-flight builds), failure capture
// and the single-job execution path.
#include "engine/runner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "engine/spec.hpp"
#include "routing/relabel.hpp"
#include "trace/harness.hpp"

namespace engine {
namespace {

/// A cheap but non-trivial campaign: two small topologies, three algorithms,
/// two seeds, scaled-down ring traffic.
std::vector<ExperimentSpec> smallCampaign() {
  return parseCampaign(
      "pattern=ring:64 msg_scale=0.0625 m1=8 m2=8 w2={4,2} "
      "routing={d-mod-k,Random,adaptive} seed=1..2\n");
}

TEST(Runner, CsvIsByteIdenticalAcrossThreadCounts) {
  const std::vector<ExperimentSpec> specs = smallCampaign();
  ASSERT_EQ(specs.size(), 12u);
  std::string csv1;
  std::string csv4;
  {
    RunnerOptions opt;
    opt.threads = 1;
    csv1 = Runner(opt).run(specs).toCsv();
  }
  {
    RunnerOptions opt;
    opt.threads = 4;
    csv4 = Runner(opt).run(specs).toCsv();
  }
  EXPECT_EQ(csv1, csv4);
  EXPECT_NE(csv1.find("ok"), std::string::npos);
}

TEST(Runner, ResultsAreSortedByJobIndexRegardlessOfCompletionOrder) {
  RunnerOptions opt;
  opt.threads = 4;
  const CampaignResults results = Runner(opt).run(smallCampaign());
  ASSERT_EQ(results.jobs.size(), 12u);
  for (std::size_t i = 0; i < results.jobs.size(); ++i) {
    EXPECT_EQ(results.jobs[i].jobIndex, i);
    EXPECT_TRUE(results.jobs[i].ok) << results.jobs[i].error;
  }
}

TEST(Runner, MatchesTheSerialHarness) {
  // The engine must reproduce trace::runApp / slowdownVsCrossbar exactly.
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(8, 8, 4);
  spec.pattern = "ring:64";
  spec.routing = "d-mod-k";
  spec.msgScale = 0.0625;
  RunnerOptions opt;
  opt.threads = 1;
  const CampaignResults results = Runner(opt).run({spec});
  ASSERT_TRUE(results.jobs.at(0).ok);

  const xgft::Topology topo(spec.topo);
  const patterns::PhasedPattern app = makeWorkload(spec);
  const routing::RouterPtr router = routing::makeDModK(topo);
  const trace::RunResult expected = trace::runApp(topo, *router, app);
  EXPECT_EQ(results.jobs.at(0).makespanNs, expected.makespanNs);
  EXPECT_DOUBLE_EQ(results.jobs.at(0).slowdown,
                   trace::slowdownVsCrossbar(topo, *router, app));
}

TEST(Runner, CacheReusesTopologiesRoutersAndReferences) {
  const std::vector<ExperimentSpec> specs = smallCampaign();
  RunnerOptions opt;
  opt.threads = 2;
  Runner runner(opt);
  const CampaignResults results = runner.run(specs);
  const CacheStats& c = results.cache;
  // 12 jobs over 2 distinct topologies -> 2 misses, the rest hits.  (Every
  // job takes a topology exactly once.)
  EXPECT_EQ(c.topologyMisses, 2u);
  EXPECT_EQ(c.topologyHits, 10u);
  // Routers per topology: d-mod-k (1, shared by both seeds AND by the
  // adaptive jobs' placeholder) + Random seeds 1,2 -> 3 distinct per topo.
  EXPECT_EQ(c.routerMisses, 6u);
  EXPECT_EQ(c.routerHits, 6u);
  // One crossbar reference for the whole campaign: same pattern and scale.
  EXPECT_EQ(c.referenceMisses, 1u);
  EXPECT_EQ(c.referenceHits, 11u);
}

TEST(Runner, CacheStaysWarmAcrossCampaigns) {
  RunnerOptions opt;
  opt.threads = 1;
  Runner runner(opt);
  (void)runner.run(smallCampaign());
  const CampaignResults again = runner.run(smallCampaign());
  EXPECT_EQ(again.cache.topologyMisses, 2u);   // No new misses.
  EXPECT_EQ(again.cache.topologyHits, 22u);
  EXPECT_EQ(again.cache.referenceMisses, 1u);
}

TEST(Runner, SeededRoutersGetDistinctCacheEntries) {
  CampaignCache cache;
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 2);
  spec.routing = "Random";
  const patterns::PhasedPattern app = makeWorkload(spec);
  const auto topo = cache.topology(spec.topo);
  const auto r1 = cache.router(spec, topo, app);
  spec.seed = 2;
  const auto r2 = cache.router(spec, topo, app);
  EXPECT_NE(r1.get(), r2.get());
  spec.seed = 1;
  EXPECT_EQ(cache.router(spec, topo, app).get(), r1.get());
  EXPECT_EQ(cache.stats().routerMisses, 2u);
  EXPECT_EQ(cache.stats().routerHits, 1u);
}

TEST(Runner, UnseededRoutersAreSharedAcrossSeeds) {
  CampaignCache cache;
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 2);
  spec.routing = "s-mod-k";
  const patterns::PhasedPattern app = makeWorkload(spec);
  const auto topo = cache.topology(spec.topo);
  const auto r1 = cache.router(spec, topo, app);
  spec.seed = 99;
  EXPECT_EQ(cache.router(spec, topo, app).get(), r1.get());
}

TEST(Runner, FailedJobsAreCapturedNotThrown) {
  // 128 ranks cannot fit on a 16-host tree.
  ExperimentSpec bad;
  bad.topo = xgft::xgft2(4, 4, 2);
  bad.pattern = "cg128";
  ExperimentSpec good;
  good.topo = xgft::xgft2(4, 4, 2);
  good.pattern = "ring:16";
  good.msgScale = 0.0625;
  RunnerOptions opt;
  opt.threads = 2;
  const CampaignResults results = Runner(opt).run({bad, good});
  EXPECT_FALSE(results.jobs.at(0).ok);
  EXPECT_NE(results.jobs.at(0).error.find("ranks"), std::string::npos);
  EXPECT_TRUE(results.jobs.at(1).ok) << results.jobs.at(1).error;
}

TEST(Runner, RunJobPopulatesUtilizationAndContention) {
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 4);
  spec.pattern = "alltoall:16";
  spec.msgScale = 0.0625;
  CampaignCache cache;
  const RunnerOptions opt;
  const JobResult job = runJob(spec, 0, cache, opt);
  ASSERT_TRUE(job.ok) << job.error;
  EXPECT_GT(job.makespanNs, 0u);
  EXPECT_GE(job.slowdown, 1.0);
  EXPECT_GT(job.utilMax, 0.0);
  EXPECT_LE(job.utilMax, 1.0);
  EXPECT_GT(job.utilMean, 0.0);
  EXPECT_LE(job.utilMean, job.utilMax);
  EXPECT_GT(job.maxFlowsPerChannel, 0u);
  EXPECT_GT(job.maxDemand, 0.9);  // ~1.0 up to accumulated rounding.
  // All-to-all uses every root; census extremes are populated and sane.
  EXPECT_GT(job.ncaRoutesMax, 0u);
  EXPECT_LE(job.ncaRoutesMin, job.ncaRoutesMax);
}

TEST(Runner, PerSegmentAlgorithmsSkipStaticContention) {
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(4, 4, 4);
  spec.pattern = "alltoall:16";
  spec.msgScale = 0.0625;
  spec.routing = "spray";
  CampaignCache cache;
  const RunnerOptions opt;
  const JobResult job = runJob(spec, 0, cache, opt);
  ASSERT_TRUE(job.ok) << job.error;
  EXPECT_EQ(job.maxFlowsPerChannel, 0u);
  EXPECT_EQ(job.maxDemand, 0.0);
  EXPECT_GT(job.makespanNs, 0u);
}

TEST(Runner, ThreadCountDefaultsAndClamping) {
  RunnerOptions opt;
  opt.threads = 64;  // Far more threads than jobs: must clamp, not crash.
  const CampaignResults results = Runner(opt).run(
      parseCampaign("pattern=ring:16 msg_scale=0.0625 m1=4 m2=4 w2=2\n"));
  EXPECT_EQ(results.threadsUsed, 1u);
  EXPECT_TRUE(results.jobs.at(0).ok);
}

TEST(Runner, OneJobCampaignDefaultsToTheSerialEventCore) {
  // The event core is serial: a lone job reports one sim thread, and a
  // budget above 1 is rejected rather than silently ignored.
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "m1=8 m2=8 w2=2 source=poisson:uniform load=0.3 msg_scale=0.0625 "
      "routing=d-mod-k seed=1\n");
  ASSERT_EQ(specs.size(), 1u);
  RunnerOptions opt;
  opt.threads = 4;
  opt.openLoopWarmupNs = 10'000;
  opt.openLoopMeasureNs = 30'000;
  const CampaignResults serial = Runner(opt).run(specs);
  EXPECT_EQ(serial.simThreadsUsed, 1u);
  ASSERT_TRUE(serial.jobs.at(0).ok) << serial.jobs.at(0).error;
  opt.simThreads = 1;
  EXPECT_EQ(Runner(opt).run(specs).toCsv(), serial.toCsv());
  opt.simThreads = 3;
  EXPECT_THROW((void)Runner(opt).run(specs), std::invalid_argument);
}

}  // namespace
}  // namespace engine
