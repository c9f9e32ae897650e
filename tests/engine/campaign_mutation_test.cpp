// Hostile-input robustness of the campaign front door: a seeded,
// fixed-count mutation pass over every builtin campaign's lines (byte
// flips, truncation, token duplication, swapped separators).  Each mutant
// must either fail with std::invalid_argument in the uniform shape — the
// parser's "line N: ..." prefix, or a registry's
// "unknown <kind> '<name>' (...)" — or parse, in which case every expanded
// spec must round-trip through toLine().  Any other exception type, or a
// spec that renders to a line parsing to something else, is a defect.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/campaigns.hpp"
#include "engine/spec.hpp"
#include "xgft/rng.hpp"

namespace engine {
namespace {

/// Mutants per (line, mutation kind).
constexpr int kMutantsPerKind = 64;

/// Every non-comment line of every builtin campaign.
std::vector<std::string> builtinLines() {
  std::vector<std::string> lines;
  for (const std::string& name : *campaignRegistry().names()) {
    std::istringstream in(builtinCampaign(name, CampaignOptions{2, 0.125}));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line.front() != '#') lines.push_back(line);
    }
  }
  return lines;
}

/// Bytes a flip draws from: the grammar's own punctuation and digits (so
/// mutants reach deep into value parsing), letters, and a few bytes no
/// campaign should contain.
constexpr std::string_view kFlipBytes =
    "=,.{}:;\"# \t0123456789-+eExXabzAZ_()\n\r\x01\x7f\xff";
constexpr std::string_view kSeparators = "=,: {}.";

std::string flipByte(const std::string& line, xgft::Rng& rng) {
  std::string out = line;
  out[rng.below(out.size())] = kFlipBytes[rng.below(kFlipBytes.size())];
  return out;
}

std::string truncate(const std::string& line, xgft::Rng& rng) {
  return line.substr(0, rng.below(line.size()));
}

/// Inserts a copy of one whitespace-separated token right after itself.
std::string duplicateToken(const std::string& line, xgft::Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> tokens;  // [begin, end)
  for (std::size_t i = 0; i < line.size();) {
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    const std::size_t end = std::min(line.find(' ', i), line.size());
    tokens.emplace_back(i, end);
    i = end;
  }
  const auto [begin, end] = tokens[rng.below(tokens.size())];
  return line.substr(0, end) + " " + line.substr(begin, end - begin) +
         line.substr(end);
}

/// Replaces one separator byte with a different separator.
std::string swapSeparator(const std::string& line, xgft::Rng& rng) {
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (kSeparators.find(line[i]) != std::string_view::npos) at.push_back(i);
  }
  std::string out = line;
  if (at.empty()) return out;
  char& c = out[at[rng.below(at.size())]];
  char next = c;
  while (next == c) next = kSeparators[rng.below(kSeparators.size())];
  c = next;
  return out;
}

/// Checks one mutant; returns a description of the defect, or "".  Sets
/// @p parsed when the mutant parses.
std::string checkMutant(const std::string& text, bool& parsed) {
  static const std::regex kUniform(
      R"(^line [0-9]+: |unknown [a-z -]+ '[^']*' \()");
  std::vector<ExperimentSpec> specs;
  try {
    specs = parseCampaign(text);
  } catch (const std::invalid_argument& e) {
    if (std::regex_search(e.what(), kUniform)) return "";
    return std::string("error without the uniform shape: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("non-invalid_argument exception: ") + e.what();
  }
  parsed = true;
  for (const ExperimentSpec& spec : specs) {
    const std::string line = spec.toLine();
    try {
      if (!(parseSpecLine(line) == spec)) {
        return "round trip changed the spec: " + line;
      }
    } catch (const std::exception& e) {
      return "canonical line does not parse: " + line + " (" + e.what() +
             ")";
    }
  }
  return "";
}

TEST(CampaignMutation, EveryMutantFailsUniformlyOrRoundTrips) {
  using Mutate = std::string (*)(const std::string&, xgft::Rng&);
  const struct {
    const char* name;
    Mutate mutate;
  } kinds[] = {{"flip", flipByte},
               {"truncate", truncate},
               {"duplicate", duplicateToken},
               {"swap", swapSeparator}};
  const std::vector<std::string> lines = builtinLines();
  ASSERT_GE(lines.size(), 10u);
  xgft::Rng rng(20091);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string& line : lines) {
    for (const auto& kind : kinds) {
      for (int i = 0; i < kMutantsPerKind; ++i) {
        const std::string mutant = kind.mutate(line, rng);
        bool ok = false;
        const std::string defect = checkMutant(mutant, ok);
        EXPECT_EQ(defect, "") << kind.name << " mutant of '" << line
                              << "':\n  '" << mutant << "'";
        ++(ok ? parsed : rejected);
      }
    }
  }
  // Both outcomes must be exercised, or the mutations are too weak (or
  // too destructive) to test anything.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace engine
