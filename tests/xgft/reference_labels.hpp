// reference_labels.hpp — Loop reference implementations of the XGFT label
// arithmetic and of route validation, for tests.
//
// These are the straightforward forms: every call re-decodes the whole
// label digit by digit with one division and one modulo per position.
// xgft::Topology tabulates place values instead; the tests check that the
// two agree on every node, port, digit position and candidate route.
#pragma once

#include <cstdint>
#include <string>

#include "xgft/params.hpp"
#include "xgft/route.hpp"
#include "xgft/topology.hpp"

namespace xgft::reference {

inline std::uint32_t radix(const Params& p, std::uint32_t level,
                           std::uint32_t i) {
  return i <= level ? p.w(i) : p.m(i);
}

inline std::uint32_t digit(const Params& p, std::uint32_t level, NodeIndex idx,
                           std::uint32_t i) {
  NodeIndex rest = idx;
  for (std::uint32_t j = 1; j < i; ++j) rest /= radix(p, level, j);
  return static_cast<std::uint32_t>(rest % radix(p, level, i));
}

/// Re-encodes the level-@p from label of @p idx with level-@p to radices,
/// replacing digit @p pos by @p value.
inline NodeIndex reencode(const Params& p, std::uint32_t from, std::uint32_t to,
                          NodeIndex idx, std::uint32_t pos,
                          std::uint32_t value) {
  NodeIndex rest = idx;
  NodeIndex result = 0;
  Count stride = 1;
  for (std::uint32_t i = 1; i <= p.height(); ++i) {
    const std::uint32_t rOld = radix(p, from, i);
    const std::uint32_t dOld = static_cast<std::uint32_t>(rest % rOld);
    rest /= rOld;
    result += static_cast<Count>(i == pos ? value : dOld) * stride;
    stride *= radix(p, to, i);
  }
  return result;
}

inline NodeIndex parentIndex(const Params& p, std::uint32_t level,
                             NodeIndex idx, std::uint32_t port) {
  return reencode(p, level, level + 1, idx, level + 1, port);
}

inline NodeIndex childIndex(const Params& p, std::uint32_t level,
                            NodeIndex idx, std::uint32_t childPort) {
  return reencode(p, level, level - 1, idx, level, childPort);
}

inline std::uint32_t ncaLevel(const Params& p, NodeIndex s, NodeIndex d) {
  std::uint32_t level = 0;
  NodeIndex rs = s;
  NodeIndex rd = d;
  for (std::uint32_t i = 1; i <= p.height(); ++i) {
    const std::uint32_t mi = p.m(i);
    if (rs % mi != rd % mi) level = i;
    rs /= mi;
    rd /= mi;
  }
  return level;
}

/// xgft::validateRoute, walked with the loop arithmetic above.
inline bool validateRoute(const Params& p, NodeIndex s, NodeIndex d,
                          const Route& r, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "route " + std::to_string(s) + " -> " + std::to_string(d) +
               ": " + why;
    }
    return false;
  };
  const std::uint32_t expected = ncaLevel(p, s, d);
  if (r.ncaLevel() != expected) {
    return fail("length " + std::to_string(r.ncaLevel()) + " != NCA level " +
                std::to_string(expected));
  }
  for (std::uint32_t i = 0; i < r.ncaLevel(); ++i) {
    if (r.up[i] >= p.w(i + 1)) {
      return fail("up-port " + std::to_string(r.up[i]) + " at level " +
                  std::to_string(i) + " out of range");
    }
  }
  NodeIndex node = s;
  for (std::uint32_t i = 0; i < r.ncaLevel(); ++i) {
    node = parentIndex(p, i, node, r.up[i]);
  }
  for (std::uint32_t j = r.ncaLevel(); j >= 1; --j) {
    node = childIndex(p, j, node, digit(p, 0, d, j));
  }
  if (node != d) return fail("walk ended at leaf " + std::to_string(node));
  return true;
}

}  // namespace xgft::reference
