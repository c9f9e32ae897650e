// topology.hpp — Concrete XGFT topology: node numbering, port-level
// adjacency, link identification and Nearest-Common-Ancestor algebra.
//
// The Topology class turns a Params description into an addressable network:
//
//  * Nodes.  Each node is addressed by (level, index) with a dense per-level
//    index; a flattened global id (hosts first, then switches level by level)
//    is provided for simulators that want flat arrays.
//
//  * Ports.  A switch at level l has m_l down-ports numbered [0, m_l) and
//    w_{l+1} up-ports numbered [m_l, m_l + w_{l+1}).  Down-port c of a
//    level-l switch leads to the child whose digit M_l equals c; up-port
//    m_l + p leads to parent number p (the child's digit W_{l+1} becomes p).
//    Hosts (level 0) have w_1 up-ports numbered [0, w_1).
//
//  * Links.  The bidirectional wire between a level-l node and one of its
//    parents is identified by LinkId; Channel = (LinkId, direction) names one
//    of its two unidirectional halves.  Analysis code accumulates loads per
//    Channel; the simulator maps Channels to queues.
//
//  * Label arithmetic.  A level-l index is the mixed-radix number whose
//    digit i (1-based, least significant first) has radix w_i for i <= l
//    and m_i above.  The constructor tabulates every level's place values
//    (the product of the radices below position i) and radices as
//    Divisors, so digit() is one division and one modulo, and
//    parentIndex()/childIndex() replace the one digit that changes radix
//    with two divisions, whatever the height — each a multiply by a
//    precomputed reciprocal (xgft/divisor.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "xgft/divisor.hpp"
#include "xgft/labels.hpp"
#include "xgft/params.hpp"

namespace xgft {

/// Dense identifier of a bidirectional link (wire) in the tree.
using LinkId = std::uint64_t;

/// Flattened global node id (hosts first, then switches level by level).
using GlobalNodeId = std::uint64_t;

/// One unidirectional half of a link.
struct Channel {
  LinkId link = 0;
  bool up = true;  ///< true: child -> parent direction.

  friend bool operator==(const Channel&, const Channel&) = default;
};

/// A (level, per-level index) node address.
struct NodeAddr {
  std::uint32_t level = 0;
  NodeIndex index = 0;

  friend bool operator==(const NodeAddr&, const NodeAddr&) = default;
};

/// Endpoints and placement of a link: the child side sits at `level`, the
/// parent side at `level + 1`; `parentPort` is the child's up-port number in
/// [0, w_{level+1}) and `childPort` the parent's down-port (the child's
/// M_{level+1} digit).
struct LinkInfo {
  std::uint32_t level = 0;  ///< Level of the lower (child) endpoint.
  NodeIndex child = 0;
  NodeIndex parent = 0;
  std::uint32_t parentPort = 0;  ///< Which of the child's parents.
  std::uint32_t childPort = 0;   ///< Which of the parent's children.
};

/// Concrete XGFT topology with tabulated place values for O(1) digit algebra.
class Topology {
 public:
  explicit Topology(Params params);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] std::uint32_t height() const { return params_.height(); }
  [[nodiscard]] Count numHosts() const { return nodesAt_[0]; }
  [[nodiscard]] Count nodesAtLevel(std::uint32_t l) const {
    return nodesAt_.at(l);
  }
  [[nodiscard]] Count numSwitches() const { return numSwitches_; }
  [[nodiscard]] Count numNodes() const { return numHosts() + numSwitches(); }
  [[nodiscard]] Count numLinks() const { return numLinks_; }

  // --- digit algebra -------------------------------------------------------

  /// Digit at position i (1-based) of the level-l node with index @p idx.
  /// @p level must be in [0, h] and @p i in [1, h] (std::out_of_range
  /// otherwise).
  [[nodiscard]] std::uint32_t digit(std::uint32_t level, NodeIndex idx,
                                    std::uint32_t i) const;

  /// Radix of digit position i at level l (w_i below/at the level, m_i above).
  [[nodiscard]] std::uint32_t radix(std::uint32_t level,
                                    std::uint32_t i) const {
    return i <= level ? params_.w(i) : params_.m(i);
  }

  // --- adjacency -----------------------------------------------------------

  /// Index (at level l+1) of parent number @p port of the level-l node @p idx.
  /// @p port must be in [0, w_{l+1}).
  [[nodiscard]] NodeIndex parentIndex(std::uint32_t level, NodeIndex idx,
                                      std::uint32_t port) const;

  /// Index (at level l-1) of the child of level-l node @p idx reached through
  /// down-port @p childPort (the child's M_l digit).  @p childPort in [0,m_l).
  [[nodiscard]] NodeIndex childIndex(std::uint32_t level, NodeIndex idx,
                                     std::uint32_t childPort) const;

  /// Up-port (i.e. W_{l} digit) by which the level-(l-1) node @p child hangs
  /// from its level-l parent: recovered from the child's own W_l... note the
  /// W digit lives on the *parent* label; this returns the down-port on the
  /// parent side instead: the child's M_l digit.
  [[nodiscard]] std::uint32_t downPortOf(std::uint32_t parentLevel,
                                         NodeIndex child) const {
    return digit(parentLevel - 1, child, parentLevel);
  }

  // --- link identification ---------------------------------------------------

  /// LinkId of the wire from level-l node @p child up to its parent number
  /// @p port.
  [[nodiscard]] LinkId upLink(std::uint32_t level, NodeIndex child,
                              std::uint32_t port) const;

  /// LinkId of the wire from level-l node @p parent down through its
  /// down-port @p childPort; identical wire as the child's corresponding
  /// up-link.
  [[nodiscard]] LinkId downLink(std::uint32_t level, NodeIndex parent,
                                std::uint32_t childPort) const;

  /// Decodes a LinkId back into its endpoints.
  [[nodiscard]] LinkInfo linkInfo(LinkId id) const;

  // --- NCA algebra -----------------------------------------------------------

  /// Level of the nearest common ancestors of two leaves: the highest digit
  /// position at which their labels differ (0 if s == d).
  [[nodiscard]] std::uint32_t ncaLevel(NodeIndex s, NodeIndex d) const;

  /// Number of distinct NCAs available to the pair (s, d):
  /// prod_{j=1..ncaLevel} w_j.
  [[nodiscard]] Count numNcas(NodeIndex s, NodeIndex d) const;

  // --- global ids ------------------------------------------------------------

  [[nodiscard]] GlobalNodeId globalId(std::uint32_t level,
                                      NodeIndex idx) const {
    return globalOffset_.at(level) + idx;
  }
  [[nodiscard]] NodeAddr addrOf(GlobalNodeId id) const;

  /// Number of ports of the node at @p level: hosts have w_1 ports; a level-l
  /// switch has m_l + w_{l+1} ports (w_{h+1} taken as 0 for roots).
  [[nodiscard]] std::uint32_t numPorts(std::uint32_t level) const;

  /// First up-port number of a node at @p level (0 for hosts, m_l for
  /// switches).
  [[nodiscard]] std::uint32_t upPortBase(std::uint32_t level) const {
    return level == 0 ? 0u : params_.m(level);
  }

 private:
  Params params_;
  std::vector<Count> nodesAt_;       ///< nodesAt_[l], l in [0, h].
  std::vector<Count> globalOffset_;  ///< globalOffset_[l], l in [0, h].
  std::vector<LinkId> upLinkBase_;   ///< upLinkBase_[l], l in [0, h).
  /// Position i of a level-l label lives at slot(l, i) of the two tables
  /// below, i in [1, h + 1]: place_ holds the product of the radices below
  /// position i (place_ at i = h + 1 is nodesAt_[l]), radix_ the radix of
  /// position i (1 at i = h + 1).
  std::vector<Divisor> place_;
  std::vector<Divisor> radix_;
  Count numSwitches_ = 0;
  Count numLinks_ = 0;
  std::uint32_t height_ = 0;

  [[nodiscard]] std::size_t slot(std::uint32_t level, std::uint32_t i) const {
    return static_cast<std::size_t>(level) * (height_ + 2) + i;
  }
  [[noreturn]] static void rangeError(const char* what);
};

// The label arithmetic is inline: route validation chains several of these
// calls per hop, and every table compile runs it for every pair.

inline std::uint32_t Topology::digit(std::uint32_t level, NodeIndex idx,
                                     std::uint32_t i) const {
  if (level > height_) rangeError("digit: level above the roots");
  if (i == 0 || i > height_) rangeError("digit: position out of range");
  const std::size_t k = slot(level, i);
  return static_cast<std::uint32_t>(
      radix_[k].remainder(place_[k].quotient(idx)));
}

inline NodeIndex Topology::parentIndex(std::uint32_t level, NodeIndex idx,
                                       std::uint32_t port) const {
  if (level >= height_) rangeError("parentIndex: node has no parents");
  if (port >= radix_[slot(level + 1, level + 1)].value()) {
    rangeError("parentIndex: parent port out of range");
  }
  // Only position level+1 changes radix (m_{level+1} -> w_{level+1}): the
  // digits below it keep their place values, the ones above move to the
  // parent level's place values, and the digit itself becomes the port.
  // Both quotients divide idx itself, so they do not wait on each other.
  const Divisor& below = place_[slot(level, level + 1)];
  const NodeIndex low = below.remainder(idx);
  const NodeIndex above = place_[slot(level, level + 2)].quotient(idx);
  return low + port * below.value() +
         above * place_[slot(level + 1, level + 2)].value();
}

inline NodeIndex Topology::childIndex(std::uint32_t level, NodeIndex idx,
                                      std::uint32_t childPort) const {
  if (level == 0) rangeError("childIndex: hosts have no children");
  if (level > height_) rangeError("childIndex: level above the roots");
  if (childPort >= radix_[slot(level - 1, level)].value()) {
    rangeError("childIndex: down port out of range");
  }
  // The mirror of parentIndex: position level goes from w_level back to
  // m_level, and its digit becomes the child's down-port.
  const Divisor& below = place_[slot(level, level)];
  const NodeIndex low = below.remainder(idx);
  const NodeIndex above = place_[slot(level, level + 1)].quotient(idx);
  return low + childPort * below.value() +
         above * place_[slot(level - 1, level + 1)].value();
}

inline std::uint32_t Topology::ncaLevel(NodeIndex s, NodeIndex d) const {
  // A leaf's digits are those of its index modulo N.  The quotient by the
  // place value of position i holds digits i..h, so scanning from the top,
  // the first position whose quotients differ is the highest differing
  // digit.
  const Divisor& hosts = place_[slot(0, height_ + 1)];
  const NodeIndex rs = s < hosts.value() ? s : hosts.remainder(s);
  const NodeIndex rd = d < hosts.value() ? d : hosts.remainder(d);
  for (std::uint32_t i = height_; i >= 1; --i) {
    const Divisor& place = place_[slot(0, i)];
    if (place.quotient(rs) != place.quotient(rd)) return i;
  }
  return 0;
}

inline Count Topology::numNcas(NodeIndex s, NodeIndex d) const {
  // Level-h labels have radix w_j at every position, so the place value of
  // position L + 1 there is prod_{j=1..L} w_j.
  return place_[slot(height_, ncaLevel(s, d) + 1)].value();
}

}  // namespace xgft
