// Unit tests for engine::ExperimentSpec: canonical-line round-trips, the
// campaign sweep expansion (lists, ranges, cross-product order), workload
// instantiation and the stability of per-role seed derivation.
#include "engine/spec.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "patterns/applications.hpp"

namespace engine {
namespace {

TEST(Spec, ToLineParsesBack) {
  ExperimentSpec spec;
  spec.topo = xgft::xgft2(16, 16, 10);
  spec.pattern = "cg128";
  spec.routing = "r-NCA-d";
  spec.msgScale = 0.125;
  spec.seed = 7;
  EXPECT_EQ(parseSpecLine(spec.toLine()), spec);
}

TEST(Spec, ToLineRoundTripsEveryRegisteredSchemeAndAwkwardScales) {
  const auto schemes = core::schemeRegistry().names();
  for (const std::string& scheme : *schemes) {
    for (const double scale : {1.0, 0.1, 0.03125, 3.14159}) {
      ExperimentSpec spec;
      spec.routing = scheme;
      spec.msgScale = scale;
      EXPECT_EQ(parseSpecLine(spec.toLine()), spec) << spec.toLine();
    }
  }
}

TEST(Spec, ToLineQuotesValuesThatHoldSeparators) {
  // A quoted token may carry spaces and '#'; rendered bare they would split
  // the value or start a comment.
  for (const char* line :
       {"pattern=\"ring:64 x\" m1=8 m2=8 w2=2",
        "pattern=\"ring:64#x\" m1=8 m2=8 w2=2",
        "source=\"poisson:uniform\tx\" m1=8 m2=8 w2=2",
        "pattern=ring:64 faults=\"links:5 x\" m1=8 m2=8 w2=2"}) {
    const ExperimentSpec spec = parseSpecLine(line);
    EXPECT_EQ(parseSpecLine(spec.toLine()), spec) << spec.toLine();
  }
  // Values without separators render bare, as before.
  EXPECT_NE(parseSpecLine("pattern=ring:64").toLine().find(" pattern=ring:64 "),
            std::string::npos);
}

TEST(Spec, ParseCanonicalizesSchemeSpellings) {
  EXPECT_EQ(parseSpecLine("routing=random").routing, "Random");
  EXPECT_EQ(parseSpecLine("routing=Random").routing, "Random");
}

TEST(Spec, UnknownNamesSurfaceTheRegistryListing) {
  // Satellite of the registry redesign: scheme and pattern typos produce
  // the one uniform error shape, including the registered names.
  for (const char* line : {"routing=magic", "pattern=nonsense"}) {
    try {
      (void)parseSpecLine(line);
      FAIL() << "expected invalid_argument for " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown "), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("(registered: "),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Spec, TopoAcceptsRegisteredPresets) {
  EXPECT_EQ(parseSpecLine("topo=paper-slim").topo, xgft::xgft2(16, 16, 10));
  EXPECT_EQ(parseSpecLine("topo=xgft2:8:8:4").topo, xgft::xgft2(8, 8, 4));
  EXPECT_EQ(parseSpecLine("topo=kary:4:2").topo, xgft::karyNTree(4, 2));
  EXPECT_THROW(parseSpecLine("topo=notatopo"), std::invalid_argument);
}

TEST(Spec, ParseAppliesDefaults) {
  const ExperimentSpec spec = parseSpecLine("pattern=ring:64");
  EXPECT_EQ(spec.topo, xgft::karyNTree(16, 2));
  EXPECT_EQ(spec.routing, "d-mod-k");
  EXPECT_EQ(spec.msgScale, 1.0);
  EXPECT_EQ(spec.seed, 1u);
}

TEST(Spec, FamilyKeysBuildTwoLevelTree) {
  const ExperimentSpec spec = parseSpecLine("m1=8 m2=8 w2=4");
  EXPECT_EQ(spec.topo, xgft::xgft2(8, 8, 4));
}

TEST(Spec, TopoAndFamilyAreMutuallyExclusive) {
  EXPECT_THROW(parseSpecLine("topo=\"XGFT(2; 8,8; 1,4)\" w2=2"),
               std::invalid_argument);
}

TEST(Spec, RejectsMalformedInput) {
  EXPECT_THROW(parseSpecLine("notakeyvalue"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("pattern="), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("bogus=1"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("routing=magic"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("msg_scale=0"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("msg_scale=nan"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("msg_scale=inf"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("seed=abc"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("topo=\"XGFT(2; 8,8"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("seed=1..4"), std::invalid_argument);
  // Sweeps past the per-line job cap fail before anything is expanded, with
  // the line-numbered error: the full range in both directions, a range too
  // large to allocate, and a cross product of two in-cap ranges.
  for (const char* line :
       {"seed=0..18446744073709551615", "seed=18446744073709551615..0",
        "seed=1..4000000000", "m1=1..1000 seed=1..1001"}) {
    try {
      (void)parseCampaign(std::string("pattern=ring:8\n") + line + "\n");
      ADD_FAILURE() << "expected invalid_argument for " << line;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("line 2: campaign spec: ", 0), 0u) << what;
      EXPECT_NE(what.find("1000000"), std::string::npos) << what;
    }
  }
  // The retired sim-thread key is now just an unknown key, and the
  // listing of known keys no longer offers it.
  const std::string retired = "sim_threads";
  try {
    (void)parseSpecLine(retired + "=4");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const std::size_t known = what.find("(known: ");
    EXPECT_NE(what.find("unknown campaign key '" + retired + "' (known: "),
              std::string::npos);
    ASSERT_NE(known, std::string::npos);
    EXPECT_EQ(what.find(retired, known), std::string::npos);
  }
}

TEST(Spec, OpenLoopKeysParseAndRoundTrip) {
  const ExperimentSpec spec =
      parseSpecLine("topo=paper-slim source=poisson:uniform load=0.3 "
                    "routing=Random seed=9");
  EXPECT_EQ(spec.source, "poisson:uniform");
  EXPECT_EQ(spec.load, 0.3);
  EXPECT_EQ(parseSpecLine(spec.toLine()), spec);
  // Closed-loop lines never mention source/load (the historical format).
  EXPECT_EQ(parseSpecLine("pattern=ring:64").toLine().find("source"),
            std::string::npos);
}

TEST(Spec, OpenLoopKeysValidate) {
  // Unknown source names surface the registry's uniform error.
  try {
    (void)parseSpecLine("source=magic load=0.5");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown traffic source"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("(registered: "), std::string::npos);
  }
  // load needs a source; pattern and source are mutually exclusive; load
  // bounds.
  EXPECT_THROW(parseSpecLine("load=0.5"), std::invalid_argument);
  EXPECT_THROW(parseSpecLine("pattern=ring:64 source=poisson:uniform"),
               std::invalid_argument);
  EXPECT_THROW(parseSpecLine("source=poisson:uniform load=0"),
               std::invalid_argument);
  EXPECT_THROW(parseSpecLine("source=poisson:uniform load=5"),
               std::invalid_argument);
  EXPECT_THROW(parseSpecLine("source=poisson:uniform load=nan"),
               std::invalid_argument);
}

TEST(Spec, LoadSweepsExpandLikeAnyAxis) {
  const auto jobs = expandCampaignLine(
      "source=poisson:uniform load={0.1,0.2,0.3} routing=d-mod-k");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].load, 0.1);
  EXPECT_EQ(jobs[2].load, 0.3);
}

TEST(Spec, RangeExpansionIsInclusiveBothDirections) {
  const auto up = expandCampaignLine("seed=2..5");
  ASSERT_EQ(up.size(), 4u);
  EXPECT_EQ(up.front().seed, 2u);
  EXPECT_EQ(up.back().seed, 5u);
  const auto down = expandCampaignLine("w2=4..1");
  ASSERT_EQ(down.size(), 4u);
  EXPECT_EQ(down.front().topo, xgft::xgft2(16, 16, 4));
  EXPECT_EQ(down.back().topo, xgft::xgft2(16, 16, 1));
  // Ranges touching 2^64-1: ascending to it ends (the counter must not
  // wrap), descending from it yields every value.
  const auto toTop =
      expandCampaignLine("seed=18446744073709551614..18446744073709551615");
  ASSERT_EQ(toTop.size(), 2u);
  EXPECT_EQ(toTop.back().seed, 18446744073709551615u);
  const auto top =
      expandCampaignLine("seed=18446744073709551615..18446744073709551613");
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top.front().seed, 18446744073709551615u);
  EXPECT_EQ(top.back().seed, 18446744073709551613u);
}

TEST(Spec, CrossProductVariesLastKeyFastest) {
  const auto jobs =
      expandCampaignLine("routing={s-mod-k,Random} seed=1..3");
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs[0].routing, "s-mod-k");
  EXPECT_EQ(jobs[0].seed, 1u);
  EXPECT_EQ(jobs[2].seed, 3u);
  EXPECT_EQ(jobs[3].routing, "Random");
  EXPECT_EQ(jobs[3].seed, 1u);
}

TEST(Spec, CampaignSkipsCommentsAndBlankLines) {
  const auto jobs = parseCampaign(
      "# a comment\n"
      "\n"
      "pattern=ring:32 seed=1..2   # trailing comment\n"
      "pattern=ring:16\n");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].pattern, "ring:32");
  EXPECT_EQ(jobs[2].pattern, "ring:16");
}

TEST(Spec, CampaignErrorsCarryLineNumbers) {
  try {
    (void)parseCampaign("pattern=ring:8\nbogus=1\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Spec, FigureSweepExpandsToTheExpectedJobCount) {
  // The Fig. 5 campaign shape: 16 w2 x 3 centered + 16 w2 x 3 algos x 10
  // seeds.
  const auto jobs = parseCampaign(
      "pattern=cg128 w2=16..1 routing={s-mod-k,d-mod-k,colored} seed=1\n"
      "pattern=cg128 w2=16..1 routing={Random,r-NCA-u,r-NCA-d} seed=1..10\n");
  EXPECT_EQ(jobs.size(), 16u * 3u + 16u * 3u * 10u);
}

TEST(Spec, FaultsKeyParsesCanonicalizesAndRoundTrips) {
  const ExperimentSpec spec = parseSpecLine(
      "source=poisson:uniform load=0.3 faults=links:10");
  EXPECT_EQ(spec.faults, "links:10");
  EXPECT_EQ(parseSpecLine(spec.toLine()), spec);
  // faults=none is byte-for-byte the absent key: healthy campaign lines
  // (and their cache keys) never change spelling.
  EXPECT_EQ(parseSpecLine("pattern=ring:8 faults=none").faults, "");
  EXPECT_EQ(parseSpecLine("pattern=ring:8 faults=none").toLine(),
            parseSpecLine("pattern=ring:8").toLine());
  EXPECT_EQ(parseSpecLine("pattern=ring:8").toLine().find("faults"),
            std::string::npos);
}

TEST(Spec, FaultsKeyRejectsUnknownModelsWithTheRegistryListing) {
  try {
    (void)parseSpecLine("pattern=ring:8 faults=meteor:3");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown fault model"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("(registered: "), std::string::npos);
  }
}

TEST(Spec, FaultsSweepExpandsLikeAnyAxis) {
  const auto jobs = expandCampaignLine(
      "source=poisson:uniform load=0.4 faults={none,links:5,links:10}");
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].faults, "");
  EXPECT_EQ(jobs[1].faults, "links:5");
  EXPECT_EQ(jobs[2].faults, "links:10");
}

TEST(Spec, DuplicateKeysFailLoudly) {
  // Last-wins would silently drop the first assignment of a typo'd sweep
  // line; the parser must reject it instead.
  for (const char* line :
       {"seed=1 seed=2", "pattern=ring:8 pattern=ring:16",
        "routing=d-mod-k msg_scale=0.5 routing=Random"}) {
    try {
      (void)parseSpecLine(line);
      FAIL() << "expected invalid_argument for " << line;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate key '"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parseSpecLine("seed=1 seed=1"), std::invalid_argument);
}

TEST(Spec, DeriveSeedIsStable) {
  // Pinned values: campaign outputs (seeded patterns, spray choices) must
  // replay identically across platforms and releases.
  EXPECT_EQ(deriveSeed(1, "pattern"), 13362491538261306851ULL);
  EXPECT_EQ(deriveSeed(1, "spray"), 18430719551283032133ULL);
  EXPECT_EQ(deriveSeed(42, "pattern"), 8884445026359647558ULL);
}

TEST(Spec, DeriveSeedSeparatesRolesAndBases) {
  EXPECT_NE(deriveSeed(1, "pattern"), deriveSeed(1, "spray"));
  EXPECT_NE(deriveSeed(1, "pattern"), deriveSeed(2, "pattern"));
}

TEST(Spec, MakeWorkloadBuildsTheBuiltins) {
  ExperimentSpec spec;
  spec.pattern = "cg128";
  EXPECT_EQ(makeWorkload(spec).numRanks, 128u);
  EXPECT_EQ(makeWorkload(spec).phases.size(), 5u);
  spec.pattern = "wrf256";
  EXPECT_EQ(makeWorkload(spec).numRanks, 256u);
  spec.pattern = "ring:48";
  EXPECT_EQ(makeWorkload(spec).numRanks, 48u);
  spec.pattern = "stencil:4:8";
  EXPECT_EQ(makeWorkload(spec).numRanks, 32u);
  spec.pattern = "shift:8";
  EXPECT_EQ(makeWorkload(spec).phases.size(), 7u);
}

TEST(Spec, MakeWorkloadScalesMessages) {
  ExperimentSpec spec;
  spec.pattern = "cg128";
  spec.msgScale = 0.5;
  const patterns::PhasedPattern app = makeWorkload(spec);
  EXPECT_EQ(app.phases.at(0).flows().at(0).bytes,
            patterns::kCgMessageBytes / 2);
}

TEST(Spec, MakeWorkloadSeededPatternsFollowTheJobSeed) {
  ExperimentSpec a;
  a.pattern = "uniform:64:2";
  ExperimentSpec b = a;
  b.seed = 2;
  EXPECT_EQ(makeWorkload(a).flattened().flows(),
            makeWorkload(a).flattened().flows());
  EXPECT_NE(makeWorkload(a).flattened().flows(),
            makeWorkload(b).flattened().flows());
  EXPECT_TRUE(a.scenario().patternSeeded());
  ExperimentSpec cg;
  cg.pattern = "cg128";
  EXPECT_FALSE(cg.scenario().patternSeeded());
}

TEST(Spec, MakeWorkloadRejectsUnknownPatterns) {
  ExperimentSpec spec;
  spec.pattern = "nonsense";
  EXPECT_THROW(makeWorkload(spec), std::invalid_argument);
  spec.pattern = "ring";  // Missing argument.
  EXPECT_THROW(makeWorkload(spec), std::invalid_argument);
  spec.pattern = "ring:8:9";  // Too many arguments.
  EXPECT_THROW(makeWorkload(spec), std::invalid_argument);
}

}  // namespace
}  // namespace engine
