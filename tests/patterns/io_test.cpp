// Tests for the pattern flow-list format, including a seeded mutation pass
// over hostile flow lists.
#include "patterns/io.hpp"

#include <gtest/gtest.h>

#include <regex>
#include <sstream>
#include <string_view>
#include <vector>

#include "patterns/applications.hpp"
#include "xgft/rng.hpp"

namespace patterns {
namespace {

TEST(PatternIo, RoundTripsCg) {
  const PhasedPattern cg = cgD128();
  const PhasedPattern back = phasedPatternFromString(toString(cg));
  EXPECT_EQ(back.name, cg.name);
  EXPECT_EQ(back.numRanks, cg.numRanks);
  ASSERT_EQ(back.phases.size(), cg.phases.size());
  for (std::size_t i = 0; i < cg.phases.size(); ++i) {
    ASSERT_EQ(back.phases[i].size(), cg.phases[i].size());
    for (std::size_t f = 0; f < cg.phases[i].flows().size(); ++f) {
      EXPECT_EQ(back.phases[i].flows()[f], cg.phases[i].flows()[f]);
    }
  }
}

TEST(PatternIo, SinglePhaseWithoutDirective) {
  const PhasedPattern app = phasedPatternFromString(
      "# ranks 4\n"
      "0 1 100\n"
      "2 3 200\n");
  EXPECT_EQ(app.numRanks, 4u);
  ASSERT_EQ(app.phases.size(), 1u);
  EXPECT_EQ(app.phases[0].size(), 2u);
}

TEST(PatternIo, MultiplePhases) {
  const PhasedPattern app = phasedPatternFromString(
      "# pattern two-step\n"
      "# ranks 4\n"
      "# phase 0\n"
      "0 1 100\n"
      "# phase 1\n"
      "1 0 100\n");
  EXPECT_EQ(app.name, "two-step");
  ASSERT_EQ(app.phases.size(), 2u);
  EXPECT_EQ(app.phases[0].flows()[0], (Flow{0, 1, 100}));
  EXPECT_EQ(app.phases[1].flows()[0], (Flow{1, 0, 100}));
}

TEST(PatternIo, CommentsAndBlankLinesIgnored) {
  const PhasedPattern app = phasedPatternFromString(
      "# a free comment\n"
      "# ranks 2\n"
      "\n"
      "   \n"
      "# another note\n"
      "0 1 7\n");
  EXPECT_EQ(app.phases[0].size(), 1u);
}

TEST(PatternIo, Validation) {
  EXPECT_THROW(phasedPatternFromString("0 1 100\n"), std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks 0\n"),
               std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks 4\n0 9 100\n"),
               std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks 4\n0 zork\n"),
               std::invalid_argument);
}

TEST(PatternIo, ErrorsCarryLineNumbers) {
  try {
    (void)phasedPatternFromString("# ranks 4\n0 1 100\nbroken\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(PatternIo, EmptyPhasesArePreserved) {
  const PhasedPattern app = phasedPatternFromString(
      "# ranks 4\n# phase 0\n# phase 1\n0 1 5\n");
  ASSERT_EQ(app.phases.size(), 2u);
  EXPECT_TRUE(app.phases[0].empty());
  EXPECT_EQ(app.phases[1].size(), 1u);
}

TEST(PatternIo, RanksMustPrecedeEveryPhaseAndAppearOnce) {
  // A phase sized before the rank count is known (or under a stale one)
  // used to surface as Pattern::add's std::out_of_range, with no line.
  for (const char* text : {"# phase 0\n# ranks 4\n0 1 5\n",
                           "# ranks 2\n# phase 0\n# ranks 4\n0 3 5\n",
                           "# ranks 4\n# ranks 4\n0 1 5\n"}) {
    try {
      (void)phasedPatternFromString(text);
      FAIL() << "expected throw for:\n" << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << e.what();
    }
  }
}

TEST(PatternIo, NegativeNumbersAreRejected) {
  // istream extraction reads "-5" into an unsigned as 2^64 - 5.
  EXPECT_THROW(phasedPatternFromString("# ranks 4\n0 1 -5\n"),
               std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks 4\n-1 1 5\n"),
               std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks -4\n"),
               std::invalid_argument);
}

TEST(PatternIo, TrailingTokensAreRejected) {
  EXPECT_THROW(phasedPatternFromString("# ranks 4\n0 1 5 6\n"),
               std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks 4\n0 1 5x\n"),
               std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks 4x\n0 1 5\n"),
               std::invalid_argument);
  EXPECT_THROW(phasedPatternFromString("# ranks 4 8\n0 1 5\n"),
               std::invalid_argument);
}

// ---- seeded mutation pass -------------------------------------------------

/// Mutants per (sample, mutation kind).
constexpr int kMutantsPerKind = 64;

/// A multi-phase sample exercising every directive, comments, blank lines
/// and an empty phase.
constexpr std::string_view kSample =
    "# pattern sample app\n"
    "# ranks 8\n"
    "# a free comment\n"
    "# phase 0\n"
    "0 1 4096\n"
    "1 0 4096\n"
    "\n"
    "# phase 1\n"
    "# phase 2\n"
    "2 7 1\n"
    "7 2 18446744073709551615\n"
    "3 3 0\n";

/// Bytes a flip draws from: digits, the directive alphabet, separators and
/// a few bytes no flow list should contain.
constexpr std::string_view kFlipBytes =
    "0123456789#-+ \t\n\rxabnprsegh\x01\x7f\xff";
constexpr std::string_view kSeparators = " \t\n";

std::string flipByte(const std::string& text, xgft::Rng& rng) {
  std::string out = text;
  out[rng.below(out.size())] = kFlipBytes[rng.below(kFlipBytes.size())];
  return out;
}

std::string truncate(const std::string& text, xgft::Rng& rng) {
  return text.substr(0, rng.below(text.size()));
}

/// Inserts a copy of one line right after itself.
std::string duplicateLine(const std::string& text, xgft::Rng& rng) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  const std::size_t begin = starts[rng.below(starts.size())];
  const std::size_t end = std::min(text.find('\n', begin), text.size() - 1);
  return text.substr(0, end + 1) + text.substr(begin, end + 1 - begin) +
         text.substr(end + 1);
}

/// Replaces one separator byte with a different separator.
std::string swapSeparator(const std::string& text, xgft::Rng& rng) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (kSeparators.find(text[i]) != std::string_view::npos) at.push_back(i);
  }
  std::string out = text;
  char& c = out[at[rng.below(at.size())]];
  char next = c;
  while (next == c) next = kSeparators[rng.below(kSeparators.size())];
  c = next;
  return out;
}

bool samePattern(const PhasedPattern& a, const PhasedPattern& b) {
  if (a.name != b.name || a.numRanks != b.numRanks ||
      a.phases.size() != b.phases.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    if (a.phases[i].numRanks() != b.phases[i].numRanks() ||
        a.phases[i].flows() != b.phases[i].flows()) {
      return false;
    }
  }
  return true;
}

/// Checks one mutant; returns a description of the defect, or "".  Sets
/// @p parsed when the mutant parses.
std::string checkMutant(const std::string& text, bool& parsed) {
  static const std::regex kUniform(
      R"(^readPhasedPattern: (line [0-9]+: |missing '# ranks'))");
  PhasedPattern app;
  try {
    app = phasedPatternFromString(text);
  } catch (const std::invalid_argument& e) {
    if (std::regex_search(e.what(), kUniform)) return "";
    return std::string("error without a line number: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("non-invalid_argument exception: ") + e.what();
  }
  parsed = true;
  const std::string canonical = toString(app);
  try {
    if (!samePattern(phasedPatternFromString(canonical), app)) {
      return "round trip changed the pattern:\n" + canonical;
    }
  } catch (const std::exception& e) {
    return std::string("canonical text does not parse: ") + e.what();
  }
  return "";
}

TEST(PatternIoMutation, EveryMutantFailsWithALineOrRoundTrips) {
  using Mutate = std::string (*)(const std::string&, xgft::Rng&);
  const struct {
    const char* name;
    Mutate mutate;
  } kinds[] = {{"flip", flipByte},
               {"truncate", truncate},
               {"duplicate", duplicateLine},
               {"swap", swapSeparator}};
  xgft::Rng rng(20092);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string& sample : {toString(cgD128()), std::string(kSample)}) {
    for (const auto& kind : kinds) {
      for (int i = 0; i < kMutantsPerKind; ++i) {
        const std::string mutant = kind.mutate(sample, rng);
        bool ok = false;
        const std::string defect = checkMutant(mutant, ok);
        EXPECT_EQ(defect, "") << kind.name << " mutant #" << i << " of a "
                              << sample.size() << "-byte sample";
        ++(ok ? parsed : rejected);
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace patterns
