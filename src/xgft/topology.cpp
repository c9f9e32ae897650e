#include "xgft/topology.hpp"

#include <stdexcept>

namespace xgft {

Topology::Topology(Params params)
    : params_(std::move(params)), height_(params_.height()) {
  const std::uint32_t h = height_;
  nodesAt_.resize(h + 1);
  globalOffset_.resize(h + 1);
  upLinkBase_.resize(h);
  for (std::uint32_t l = 0; l <= h; ++l) {
    nodesAt_[l] = params_.nodesAtLevel(l);
  }
  globalOffset_[0] = 0;
  for (std::uint32_t l = 1; l <= h; ++l) {
    globalOffset_[l] = globalOffset_[l - 1] + nodesAt_[l - 1];
  }
  numSwitches_ = 0;
  for (std::uint32_t l = 1; l <= h; ++l) numSwitches_ += nodesAt_[l];
  LinkId base = 0;
  for (std::uint32_t l = 0; l < h; ++l) {
    upLinkBase_[l] = base;
    base += nodesAt_[l] * params_.w(l + 1);
  }
  numLinks_ = base;
  place_.resize(static_cast<std::size_t>(h + 1) * (h + 2));
  radix_.resize(place_.size());
  for (std::uint32_t l = 0; l <= h; ++l) {
    Count place = 1;
    for (std::uint32_t i = 1; i <= h; ++i) {
      place_[slot(l, i)] = Divisor(place);
      radix_[slot(l, i)] = Divisor(radix(l, i));
      place *= radix(l, i);
    }
    place_[slot(l, h + 1)] = Divisor(place);
  }
}

void Topology::rangeError(const char* what) {
  throw std::out_of_range(what);
}

LinkId Topology::upLink(std::uint32_t level, NodeIndex child,
                        std::uint32_t port) const {
  if (level >= params_.height()) {
    throw std::out_of_range("upLink: no links above the root level");
  }
  if (port >= params_.w(level + 1)) {
    throw std::out_of_range("upLink: port out of range");
  }
  return upLinkBase_[level] + child * params_.w(level + 1) + port;
}

LinkId Topology::downLink(std::uint32_t level, NodeIndex parent,
                          std::uint32_t childPort) const {
  if (level == 0) throw std::out_of_range("downLink: hosts have no children");
  const NodeIndex child = childIndex(level, parent, childPort);
  // Which of the child's up-ports leads back to this parent: the parent's
  // own W_level digit.
  const std::uint32_t port = digit(level, parent, level);
  return upLink(level - 1, child, port);
}

LinkInfo Topology::linkInfo(LinkId id) const {
  const std::uint32_t h = params_.height();
  for (std::uint32_t l = 0; l < h; ++l) {
    const LinkId next =
        (l + 1 < h) ? upLinkBase_[l + 1] : numLinks_;
    if (id < next) {
      const LinkId local = id - upLinkBase_[l];
      LinkInfo info;
      info.level = l;
      info.child = local / params_.w(l + 1);
      info.parentPort = static_cast<std::uint32_t>(local % params_.w(l + 1));
      info.parent = parentIndex(l, info.child, info.parentPort);
      info.childPort = digit(l, info.child, l + 1);
      return info;
    }
  }
  throw std::out_of_range("linkInfo: link id out of range");
}

NodeAddr Topology::addrOf(GlobalNodeId id) const {
  for (std::uint32_t l = 0; l <= params_.height(); ++l) {
    if (id < globalOffset_[l] + nodesAt_[l]) {
      return NodeAddr{l, id - globalOffset_[l]};
    }
  }
  throw std::out_of_range("addrOf: global node id out of range");
}

std::uint32_t Topology::numPorts(std::uint32_t level) const {
  const std::uint32_t h = params_.height();
  if (level == 0) return params_.w(1);
  const std::uint32_t up = level < h ? params_.w(level + 1) : 0;
  return params_.m(level) + up;
}

}  // namespace xgft
