// Golden-CSV regression for the registry-driven Scenario path: replays the
// "smoke" builtin campaign through the engine and byte-compares the CSV
// against a checked-in fixture.  This pins the engine's determinism
// contract (PR 1) across construction-path refactors: topology, pattern
// and router construction, compiled forwarding tables, the simulator's
// event ordering, and the CSV formatting all feed this byte stream.
//
// The smoke campaign's host-free manifest (cache counters, v1 schema) and an
// over-budget campaign's CSV and v3 manifest are pinned the same way: the
// over-budget campaign sets maxCompiledTableBytes below its tree's 36,864-byte
// table size, so its jobs take the interval-compressed lazy path (open-loop
// d-mod-k), the eager compileAll path (closed-loop s-mod-k) and the
// estimate-refused virtual fallback (Random).
//
// Regenerate the fixtures ONLY for an intentional behaviour change:
//   ./build/campaign_cli --builtin smoke --seeds 2 --msg-scale 0.0625
//       --quiet --out tests/engine/data/smoke_campaign.csv   (one line)
//   XGFT_REGENERATE_FIXTURES=1 ./build/engine_golden_campaign_test
//       (rewrites the manifest and over-budget fixtures)
// and explain the change in the commit message.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "engine/campaigns.hpp"
#include "engine/manifest.hpp"
#include "engine/runner.hpp"
#include "engine/spec.hpp"

#ifndef XGFT_TESTS_DIR
#error "XGFT_TESTS_DIR must point at the source tests/ directory"
#endif

namespace engine {
namespace {

std::string fixturePath() {
  return std::string(XGFT_TESTS_DIR) + "/engine/data/smoke_campaign.csv";
}

/// Byte-compares @p actual with tests/engine/data/@p name, or rewrites the
/// fixture when XGFT_REGENERATE_FIXTURES is set.
void expectFixture(const std::string& name, const std::string& actual) {
  const std::string path = std::string(XGFT_TESTS_DIR) + "/engine/data/" + name;
  if (std::getenv("XGFT_REGENERATE_FIXTURES") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << actual;
    ASSERT_TRUE(out) << "cannot write " << path;
    return;
  }
  std::ifstream fixture(path, std::ios::binary);
  ASSERT_TRUE(fixture) << "missing fixture " << path;
  std::ostringstream want;
  want << fixture.rdbuf();
  EXPECT_EQ(actual, want.str())
      << name << " drifted from the checked-in fixture — if this is an "
      << "intentional behaviour change, regenerate it (see the comment at "
         "the top of this test)";
}

std::string hostFreeManifest(const CampaignResults& results) {
  ManifestOptions mopt;
  mopt.includeHost = false;
  return manifestToJson(results, mopt);
}

TEST(GoldenCampaign, SmokeCsvIsByteIdenticalToTheFixture) {
  std::ifstream fixture(fixturePath(), std::ios::binary);
  ASSERT_TRUE(fixture) << "missing fixture " << fixturePath();
  std::ostringstream want;
  want << fixture.rdbuf();

  const CampaignOptions copt{/*seeds=*/2, /*msgScale=*/0.0625};
  const std::vector<ExperimentSpec> specs =
      parseCampaign(builtinCampaign("smoke", copt));
  ASSERT_FALSE(specs.empty());

  RunnerOptions ropt;  // campaign_cli defaults: contention on.
  const CampaignResults results = Runner(ropt).run(specs);
  for (const JobResult& job : results.jobs) {
    EXPECT_TRUE(job.ok) << job.spec.toLine() << ": " << job.error;
  }
  EXPECT_EQ(results.toCsv(), want.str())
      << "smoke campaign CSV drifted from the checked-in fixture — if this "
         "is an intentional behaviour change, regenerate it (see the "
         "comment at the top of this test)";
}

TEST(GoldenCampaign, SmokeManifestIsByteIdenticalToTheFixture) {
  const CampaignOptions copt{/*seeds=*/2, /*msgScale=*/0.0625};
  const std::vector<ExperimentSpec> specs =
      parseCampaign(builtinCampaign("smoke", copt));
  const CampaignResults results = Runner(RunnerOptions{}).run(specs);
  expectFixture("smoke_campaign.manifest.json", hostFreeManifest(results));
}

TEST(GoldenCampaign, OverBudgetCampaignIsByteIdenticalToTheFixtures) {
  const std::vector<ExperimentSpec> specs = parseCampaign(
      "topo=xgft2:8:8:4 source=poisson:uniform load=0.3"
      " routing={d-mod-k,Random} seed=1\n"
      "topo=xgft2:8:8:4 pattern=ring:64 msg_scale=0.0625"
      " routing={s-mod-k,Random} seed=1\n");
  RunnerOptions ropt;
  ropt.maxCompiledTableBytes = 16'384;  // The flat table is 36,864 bytes.
  ropt.openLoopWarmupNs = 20'000;
  ropt.openLoopMeasureNs = 80'000;
  const CampaignResults results = Runner(ropt).run(specs);
  ASSERT_EQ(results.jobs.size(), 4u);
  for (const JobResult& job : results.jobs) {
    EXPECT_TRUE(job.ok) << job.spec.toLine() << ": " << job.error;
  }
  // Three compressed-memo keys (d-mod-k, s-mod-k, Random); Random's sampled
  // estimate exceeds the budget, so only two tables exist.
  EXPECT_EQ(results.cache.compressedMisses, 3u);
  EXPECT_EQ(results.forwarding.tableBytesFlat, 2u * 36'864u);
  expectFixture("overbudget_campaign.csv", results.toCsv());
  expectFixture("overbudget_campaign.manifest.json", hostFreeManifest(results));
}

TEST(GoldenCampaign, VirtualAndCompiledPathsProduceTheSameCsv) {
  // The compiled forwarding tables must be a pure optimization.
  const CampaignOptions copt{/*seeds=*/1, /*msgScale=*/0.0625};
  const std::vector<ExperimentSpec> specs =
      parseCampaign(builtinCampaign("smoke", copt));
  RunnerOptions withTables;
  RunnerOptions without;
  without.compileRoutes = false;
  const std::string a = Runner(withTables).run(specs).toCsv();
  const std::string b = Runner(without).run(specs).toCsv();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace engine
