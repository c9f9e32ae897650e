#include "patterns/io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace patterns {

void writePhasedPattern(const PhasedPattern& app, std::ostream& os) {
  os << "# pattern " << (app.name.empty() ? "unnamed" : app.name) << "\n";
  os << "# ranks " << app.numRanks << "\n";
  for (std::size_t i = 0; i < app.phases.size(); ++i) {
    os << "# phase " << i << "\n";
    for (const Flow& f : app.phases[i].flows()) {
      os << f.src << " " << f.dst << " " << f.bytes << "\n";
    }
  }
}

namespace {

/// The whitespace-separated tokens of @p text.
std::vector<std::string> tokens(const std::string& text) {
  std::istringstream ls(text);
  std::vector<std::string> out;
  for (std::string tok; ls >> tok;) out.push_back(std::move(tok));
  return out;
}

/// A whole token as an unsigned decimal: "-5", "+5" and "4x" are refused
/// (istream extraction would wrap the first and stop early in the last).
bool parseU64(const std::string& tok, std::uint64_t& out) {
  const char* end = tok.data() + tok.size();
  const auto [p, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc{} && p == end;
}

}  // namespace

PhasedPattern readPhasedPattern(std::istream& is) {
  PhasedPattern app;
  app.name = "unnamed";
  bool ranksSeen = false;
  std::string line;
  std::size_t lineNo = 0;
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("readPhasedPattern: line " +
                                std::to_string(lineNo) + ": " + why);
  };
  while (std::getline(is, line)) {
    ++lineNo;
    const std::vector<std::string> tok = tokens(line);
    if (tok.empty()) continue;  // Blank line.
    if (tok[0] == "#") {
      if (tok.size() < 2) continue;
      if (tok[1] == "pattern") {
        const std::size_t at = line.find("pattern") + 7;
        const std::size_t start = line.find_first_not_of(' ', at);
        // The writer spells an empty name "unnamed"; so does the reader.
        app.name = start == std::string::npos ? "unnamed" : line.substr(start);
      } else if (tok[1] == "ranks") {
        // Every phase is sized by the rank count, so it must come first and
        // only once.
        if (ranksSeen) fail("duplicate '# ranks' directive");
        std::uint64_t n = 0;
        if (tok.size() != 3 || !parseU64(tok[2], n) || n == 0 ||
            n > 0xffffffffull) {
          fail("bad '# ranks' directive");
        }
        app.numRanks = static_cast<Rank>(n);
        ranksSeen = true;
      } else if (tok[1] == "phase") {
        if (!ranksSeen) fail("'# phase' before '# ranks' directive");
        app.phases.emplace_back(app.numRanks);
      }
      // Unknown directives are comments.
      continue;
    }
    if (!ranksSeen) fail("flow before '# ranks' directive");
    if (app.phases.empty()) app.phases.emplace_back(app.numRanks);
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint64_t bytes = 0;
    if (tok.size() != 3 || !parseU64(tok[0], src) || !parseU64(tok[1], dst) ||
        !parseU64(tok[2], bytes)) {
      fail("malformed flow line (want '<src> <dst> <bytes>')");
    }
    if (src >= app.numRanks || dst >= app.numRanks) {
      fail("rank out of range");
    }
    app.phases.back().add(static_cast<Rank>(src), static_cast<Rank>(dst),
                          bytes);
  }
  if (!ranksSeen) {
    throw std::invalid_argument(
        "readPhasedPattern: missing '# ranks' directive");
  }
  if (app.phases.empty()) app.phases.emplace_back(app.numRanks);
  return app;
}

std::string toString(const PhasedPattern& app) {
  std::ostringstream os;
  writePhasedPattern(app, os);
  return os.str();
}

PhasedPattern phasedPatternFromString(const std::string& text) {
  std::istringstream is(text);
  return readPhasedPattern(is);
}

}  // namespace patterns
