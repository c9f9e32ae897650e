// Pool-width byte-identity at the campaign level: every builtin campaign
// must emit byte-identical CSVs and (includeHost=false) manifests whether
// its jobs run on one worker or are spread over four.  Closed-loop,
// open-loop (loadsweep) and faulted (faultsweep) campaigns all share the
// runner's caches across workers, so this pins that no cache hit, job
// order or worker assignment leaks into output bytes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/campaigns.hpp"
#include "engine/manifest.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"

namespace engine {
namespace {

/// Trimmed campaign instances (two seeds, 1/32 message scale, short
/// open-loop windows) — the shapes stay real, the runtime stays test-sized.
std::vector<ExperimentSpec> smallCampaign(const std::string& name) {
  const CampaignOptions copt{/*seeds=*/2, /*msgScale=*/0.03125};
  return parseCampaign(builtinCampaign(name, copt));
}

RunnerOptions optionsWith(std::uint32_t threads) {
  RunnerOptions opt;
  opt.threads = threads;
  opt.openLoopWarmupNs = 50'000;
  opt.openLoopMeasureNs = 200'000;
  return opt;
}

struct CampaignOutput {
  std::string csv;
  std::string manifest;
};

CampaignOutput runCampaign(const std::string& name, std::uint32_t threads) {
  Runner runner(optionsWith(threads));
  const CampaignResults results = runner.run(smallCampaign(name));
  for (const JobResult& job : results.jobs) {
    EXPECT_TRUE(job.ok) << name << ": " << job.error;
  }
  ManifestOptions mopt;
  mopt.includeHost = false;  // The byte-identity form.
  return CampaignOutput{results.toCsv(), manifestToJson(results, mopt)};
}

class ParallelIdentity : public ::testing::TestWithParam<const char*> {};

TEST_P(ParallelIdentity, CsvAndManifestAreByteIdenticalAcrossThreads) {
  const std::string name = GetParam();
  const CampaignOutput serial = runCampaign(name, 1);
  EXPECT_NE(serial.csv.find('\n'), std::string::npos);
  const CampaignOutput pooled = runCampaign(name, 4);
  EXPECT_EQ(serial.csv, pooled.csv);
  EXPECT_EQ(serial.manifest, pooled.manifest);
}

TEST(ParallelIdentity, FailedBuildsCountTheSameAtEveryWidth) {
  // uplinks-of:1:0 cuts level-1 switch 0 off, so its closed-loop degraded
  // compiles fail.  A failed build is memoized like a value, so the
  // degraded hit/miss counters cannot depend on which worker asked first.
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "pattern=ring:64 msg_scale=0.03125 m1=8 m2=8 w2={4,2} "
      "routing={d-mod-k,s-mod-k,Random,colored} "
      "faults={none,links:10,uplinks-of:1:0} seed=1..2\n");
  ManifestOptions mopt;
  mopt.includeHost = false;
  const CampaignResults serial = Runner(optionsWith(1)).run(specs);
  // The four hits: for each w2, the unseeded schemes (d-mod-k, s-mod-k)
  // request one uplinks-of key from both seeds.  Every other request is a
  // key of its own.
  EXPECT_EQ(serial.cache.degradedMisses, 28u);
  EXPECT_EQ(serial.cache.degradedHits, 4u);
  const std::string manifest = manifestToJson(serial, mopt);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const CampaignResults pooled = Runner(optionsWith(4)).run(specs);
    EXPECT_EQ(pooled.toCsv(), serial.toCsv());
    EXPECT_EQ(manifestToJson(pooled, mopt), manifest);
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, ParallelIdentity,
                         ::testing::Values("fig2-cg", "fig4", "fig5-cg",
                                           "smoke", "loadsweep",
                                           "faultsweep"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace engine
