// Unit tests for xgft::Topology: adjacency, link identification, NCA
// algebra, and global ids.
#include "xgft/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "reference_labels.hpp"
#include "xgft/rng.hpp"

namespace xgft {
namespace {

TEST(Topology, CountsMatchParams) {
  const Topology t(xgft2(16, 16, 10));
  EXPECT_EQ(t.numHosts(), 256u);
  EXPECT_EQ(t.numSwitches(), 26u);
  EXPECT_EQ(t.numNodes(), 282u);
  EXPECT_EQ(t.numLinks(), 256u + 160u);
}

TEST(Topology, ParentChildAreInverse) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  for (std::uint32_t l = 0; l < t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      for (std::uint32_t p = 0; p < t.params().w(l + 1); ++p) {
        const NodeIndex parent = t.parentIndex(l, idx, p);
        ASSERT_LT(parent, t.nodesAtLevel(l + 1));
        const std::uint32_t down = t.downPortOf(l + 1, idx);
        EXPECT_EQ(t.childIndex(l + 1, parent, down), idx)
            << "level " << l << " node " << idx << " port " << p;
      }
    }
  }
}

TEST(Topology, EveryParentHasExactlyMChildren) {
  const Topology t(Params({4, 3}, {1, 2}));
  for (NodeIndex parent = 0; parent < t.nodesAtLevel(1); ++parent) {
    std::set<NodeIndex> children;
    for (std::uint32_t c = 0; c < t.params().m(1); ++c) {
      children.insert(t.childIndex(1, parent, c));
    }
    EXPECT_EQ(children.size(), t.params().m(1));
  }
}

TEST(Topology, PortRangeChecks) {
  const Topology t(xgft2(4, 4, 2));
  EXPECT_THROW((void)t.parentIndex(0, 0, 1), std::out_of_range);  // w1 = 1.
  EXPECT_THROW((void)t.parentIndex(2, 0, 0), std::out_of_range);  // Roots.
  EXPECT_THROW((void)t.childIndex(0, 0, 0), std::out_of_range);   // Hosts.
  EXPECT_THROW((void)t.childIndex(1, 0, 4), std::out_of_range);   // m1 = 4.
}

TEST(Topology, LinkIdsAreDenseAndInvertible) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  std::set<LinkId> seen;
  for (std::uint32_t l = 0; l < t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      for (std::uint32_t p = 0; p < t.params().w(l + 1); ++p) {
        const LinkId id = t.upLink(l, idx, p);
        ASSERT_LT(id, t.numLinks());
        EXPECT_TRUE(seen.insert(id).second) << "duplicate link id " << id;
        const LinkInfo info = t.linkInfo(id);
        EXPECT_EQ(info.level, l);
        EXPECT_EQ(info.child, idx);
        EXPECT_EQ(info.parentPort, p);
        EXPECT_EQ(info.parent, t.parentIndex(l, idx, p));
      }
    }
  }
  EXPECT_EQ(seen.size(), t.numLinks());
}

TEST(Topology, DownLinkNamesTheSameWireAsUpLink) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  for (std::uint32_t l = 1; l <= t.height(); ++l) {
    for (NodeIndex parent = 0; parent < t.nodesAtLevel(l); ++parent) {
      for (std::uint32_t c = 0; c < t.params().m(l); ++c) {
        const LinkId id = t.downLink(l, parent, c);
        const LinkInfo info = t.linkInfo(id);
        EXPECT_EQ(info.parent, parent);
        EXPECT_EQ(info.level, l - 1);
        EXPECT_EQ(info.childPort, c);
      }
    }
  }
}

TEST(Topology, NcaLevelIsHighestDifferingDigit) {
  const Topology t(Topology(karyNTree(4, 3)));
  EXPECT_EQ(t.ncaLevel(0, 0), 0u);
  EXPECT_EQ(t.ncaLevel(0, 1), 1u);    // Differ in digit 1.
  EXPECT_EQ(t.ncaLevel(0, 4), 2u);    // Differ in digit 2.
  EXPECT_EQ(t.ncaLevel(0, 16), 3u);   // Differ in digit 3.
  EXPECT_EQ(t.ncaLevel(5, 7), 1u);    // 11 vs 13 base 4.
  EXPECT_EQ(t.ncaLevel(63, 0), 3u);
}

TEST(Topology, NcaLevelIsSymmetric) {
  const Topology t(xgft2(4, 4, 3));
  for (NodeIndex s = 0; s < t.numHosts(); ++s) {
    for (NodeIndex d = 0; d < t.numHosts(); ++d) {
      EXPECT_EQ(t.ncaLevel(s, d), t.ncaLevel(d, s));
    }
  }
}

TEST(Topology, NumNcasIsProductOfWUpToNcaLevel) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  // Same leaf: no NCA needed.
  EXPECT_EQ(t.numNcas(0, 0), 1u);
  // Level 1: w1 = 1 ancestor.
  EXPECT_EQ(t.numNcas(0, 1), 1u);
  // Level 2: w1*w2 = 2.
  EXPECT_EQ(t.numNcas(0, 4), 2u);
  // Level 3: w1*w2*w3 = 6.
  EXPECT_EQ(t.numNcas(0, 12), 6u);
}

TEST(Topology, SixteenAry2TreeHas16RootsPerPairAcrossSwitches) {
  const Topology t(Topology(karyNTree(16, 2)));
  EXPECT_EQ(t.numNcas(0, 16), 16u);   // Different switches.
  EXPECT_EQ(t.numNcas(0, 1), 1u);     // Same switch.
}

TEST(Topology, GlobalIdsRoundTrip) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  GlobalNodeId expected = 0;
  for (std::uint32_t l = 0; l <= t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      const GlobalNodeId id = t.globalId(l, idx);
      EXPECT_EQ(id, expected++);
      const NodeAddr addr = t.addrOf(id);
      EXPECT_EQ(addr.level, l);
      EXPECT_EQ(addr.index, idx);
    }
  }
  EXPECT_THROW((void)t.addrOf(expected), std::out_of_range);
}

TEST(Topology, NumPortsPerLevel) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  EXPECT_EQ(t.numPorts(0), 1u);       // w1.
  EXPECT_EQ(t.numPorts(1), 4u + 2u);  // m1 + w2.
  EXPECT_EQ(t.numPorts(2), 3u + 3u);  // m2 + w3.
  EXPECT_EQ(t.numPorts(3), 2u);       // Roots: m3 down only.
}

// Property sweep: digit() agrees with the label decoder for every node.
class TopologyDigits : public ::testing::TestWithParam<Params> {};

TEST_P(TopologyDigits, DigitMatchesLabel) {
  const Topology t(GetParam());
  for (std::uint32_t l = 0; l <= t.height(); ++l) {
    for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
      const Label label = labelOf(t.params(), l, idx);
      for (std::uint32_t i = 1; i <= t.height(); ++i) {
        EXPECT_EQ(t.digit(l, idx, i), label.digit(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyDigits,
    ::testing::Values(karyNTree(2, 4), xgft2(16, 16, 5),
                      Params({4, 3, 2}, {1, 2, 3}),
                      Params({2, 3, 4}, {2, 3, 4})));

// ---- Tabulated label arithmetic against the loop reference -------------

/// Seeded random shapes, h = 1..4 in turn, with m_i and w_i in [1, 4]: the
/// draw hits w_1 > 1 and m_i = 1 often; two fixed shapes pin both cases.
std::vector<Params> randomShapes(std::uint64_t seed, std::size_t count) {
  std::vector<Params> shapes = {Params({3, 1, 2}, {2, 2, 1}),
                                Params({1, 4}, {3, 1})};
  Rng rng(seed);
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint32_t h = 1 + static_cast<std::uint32_t>(k % 4);
    std::vector<std::uint32_t> m(h);
    std::vector<std::uint32_t> w(h);
    for (std::uint32_t i = 0; i < h; ++i) {
      m[i] = 1 + static_cast<std::uint32_t>(rng.below(4));
      w[i] = 1 + static_cast<std::uint32_t>(rng.below(4));
    }
    shapes.emplace_back(m, w);
  }
  return shapes;
}

TEST(TopologyArithmetic, RandomShapesCoverWideHostsAndUnitChildCounts) {
  bool wideHosts = false;
  bool unitChildren = false;
  for (const Params& p : randomShapes(7, 120)) {
    wideHosts |= p.w(1) > 1;
    for (std::uint32_t i = 1; i <= p.height(); ++i) unitChildren |= p.m(i) == 1;
  }
  EXPECT_TRUE(wideHosts);
  EXPECT_TRUE(unitChildren);
}

TEST(TopologyArithmetic, MatchesLoopReferenceOnEveryNodePortAndDigit) {
  for (const Params& p : randomShapes(7, 120)) {
    SCOPED_TRACE(p.toString());
    const Topology t(p);
    const std::uint32_t h = t.height();
    for (std::uint32_t l = 0; l <= h; ++l) {
      for (NodeIndex idx = 0; idx < t.nodesAtLevel(l); ++idx) {
        for (std::uint32_t i = 1; i <= h; ++i) {
          ASSERT_EQ(t.digit(l, idx, i), reference::digit(p, l, idx, i))
              << "level " << l << " node " << idx << " digit " << i;
        }
        if (l < h) {
          for (std::uint32_t port = 0; port < p.w(l + 1); ++port) {
            ASSERT_EQ(t.parentIndex(l, idx, port),
                      reference::parentIndex(p, l, idx, port))
                << "level " << l << " node " << idx << " port " << port;
          }
        }
        if (l > 0) {
          for (std::uint32_t c = 0; c < p.m(l); ++c) {
            ASSERT_EQ(t.childIndex(l, idx, c),
                      reference::childIndex(p, l, idx, c))
                << "level " << l << " node " << idx << " child " << c;
          }
        }
      }
    }
    for (NodeIndex s = 0; s < t.numHosts(); ++s) {
      for (NodeIndex d = 0; d < t.numHosts(); ++d) {
        const std::uint32_t level = reference::ncaLevel(p, s, d);
        ASSERT_EQ(t.ncaLevel(s, d), level) << s << " -> " << d;
        Count ncas = 1;
        for (std::uint32_t j = 1; j <= level; ++j) ncas *= p.w(j);
        ASSERT_EQ(t.numNcas(s, d), ncas) << s << " -> " << d;
      }
    }
  }
}

TEST(TopologyArithmetic, OutOfRangePortsAndLevelsThrow) {
  for (const Params& p : randomShapes(11, 40)) {
    SCOPED_TRACE(p.toString());
    const Topology t(p);
    const std::uint32_t h = t.height();
    for (std::uint32_t l = 0; l <= h; ++l) {
      EXPECT_THROW((void)t.digit(l, 0, 0), std::out_of_range);
      EXPECT_THROW((void)t.digit(l, 0, h + 1), std::out_of_range);
      if (l < h) {
        EXPECT_THROW((void)t.parentIndex(l, 0, p.w(l + 1)), std::out_of_range);
        EXPECT_THROW((void)t.upLink(l, 0, p.w(l + 1)), std::out_of_range);
      }
      if (l > 0) {
        EXPECT_THROW((void)t.childIndex(l, 0, p.m(l)), std::out_of_range);
      }
    }
    EXPECT_THROW((void)t.digit(h + 1, 0, 1), std::out_of_range);
    EXPECT_THROW((void)t.parentIndex(h, 0, 0), std::out_of_range);
    EXPECT_THROW((void)t.parentIndex(h + 1, 0, 0), std::out_of_range);
    EXPECT_THROW((void)t.childIndex(0, 0, 0), std::out_of_range);
    EXPECT_THROW((void)t.childIndex(h + 1, 0, 0), std::out_of_range);
    EXPECT_THROW((void)t.upLink(h, 0, 0), std::out_of_range);
    EXPECT_THROW((void)t.downLink(0, 0, 0), std::out_of_range);
  }
}

}  // namespace
}  // namespace xgft
