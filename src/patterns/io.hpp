// io.hpp — Textual (de)serialization of communication patterns.
//
// The paper's toolchain extracts a connectivity matrix per communication
// phase from a Dimemas trace and feeds it to the routing algorithms
// (Sec. VI-B).  This module provides the equivalent interchange format: a
// line-oriented flow list
//
//     # pattern <name>
//     # ranks <N>
//     # phase 0
//     <src> <dst> <bytes>
//     ...
//     # phase 1
//     ...
//
// '#'-comments and blank lines are ignored except for the recognized
// directives.  "# ranks" appears once, before any phase or flow; a flow
// line is exactly three unsigned decimals.  A file without "# phase"
// directives parses as a single phase.  campaign_cli reads such files as
// pattern=file:PATH (patterns/register.cpp).
#pragma once

#include <iosfwd>
#include <string>

#include "patterns/pattern.hpp"

namespace patterns {

/// Writes a phased pattern in the flow-list format.
void writePhasedPattern(const PhasedPattern& app, std::ostream& os);

/// Reads a phased pattern from the flow-list format.
/// Throws std::invalid_argument on malformed input (with a line number).
[[nodiscard]] PhasedPattern readPhasedPattern(std::istream& is);

/// Convenience string round-trips.
[[nodiscard]] std::string toString(const PhasedPattern& app);
[[nodiscard]] PhasedPattern phasedPatternFromString(const std::string& text);

}  // namespace patterns
