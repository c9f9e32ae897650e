// Unit tests for minimal up/down routes: NCA reachability, channel
// expansion, hop expansion and validation.
#include "xgft/route.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "reference_labels.hpp"

namespace xgft {
namespace {

TEST(Route, EmptyRouteForSameLeaf) {
  const Topology t(karyNTree(4, 2));
  const Route r = routeViaNca(t, 5, 5, 0);
  EXPECT_EQ(r.ncaLevel(), 0u);
  EXPECT_TRUE(validateRoute(t, 5, 5, r));
  EXPECT_TRUE(channelsOf(t, 5, 5, r).empty());
  EXPECT_TRUE(hopsOf(t, 5, 5, r).empty());
}

TEST(Route, RouteViaNcaEnumeratesDistinctAncestors) {
  const Topology t(karyNTree(4, 2));
  std::set<NodeIndex> ncas;
  for (Count c = 0; c < t.numNcas(0, 4); ++c) {
    const Route r = routeViaNca(t, 0, 4, c);
    EXPECT_TRUE(validateRoute(t, 0, 4, r));
    ncas.insert(ncaOf(t, 0, r));
  }
  EXPECT_EQ(ncas.size(), 4u);  // All w2 = 4 roots reachable.
  EXPECT_THROW(routeViaNca(t, 0, 4, 4), std::out_of_range);
}

TEST(Route, NcaIsAncestorOfBothEndpoints) {
  const Topology t(Params({4, 3, 2}, {1, 2, 3}));
  for (NodeIndex s = 0; s < t.numHosts(); s += 3) {
    for (NodeIndex d = 0; d < t.numHosts(); d += 5) {
      if (s == d) continue;
      for (Count c = 0; c < t.numNcas(s, d); ++c) {
        const Route r = routeViaNca(t, s, d, c);
        const std::uint32_t level = r.ncaLevel();
        const NodeIndex nca = ncaOf(t, s, r);
        // Descending from the NCA with either endpoint's digits must land
        // on that endpoint.
        for (const NodeIndex leaf : {s, d}) {
          NodeIndex node = nca;
          for (std::uint32_t j = level; j >= 1; --j) {
            node = t.childIndex(j, node, t.digit(0, leaf, j));
          }
          EXPECT_EQ(node, leaf);
        }
      }
    }
  }
}

TEST(Route, ChannelsFormConnectedUpDownPath) {
  const Topology t(xgft2(16, 16, 10));
  const Route r = routeViaNca(t, 3, 250, 7);
  const auto channels = channelsOf(t, 3, 250, r);
  ASSERT_EQ(channels.size(), 4u);  // 2 up + 2 down.
  EXPECT_TRUE(channels[0].up);
  EXPECT_TRUE(channels[1].up);
  EXPECT_FALSE(channels[2].up);
  EXPECT_FALSE(channels[3].up);
  // The ascent's top link and the descent's top link meet at the same root.
  EXPECT_EQ(t.linkInfo(channels[1].link).parent,
            t.linkInfo(channels[2].link).parent);
  // First channel leaves the source; last channel enters the destination.
  EXPECT_EQ(t.linkInfo(channels[0].link).child, 3u);
  EXPECT_EQ(t.linkInfo(channels[3].link).child, 250u);
}

TEST(Route, HopsMatchChannels) {
  const Topology t(Params({4, 4, 4}, {1, 2, 3}));
  const NodeIndex s = 1;
  const NodeIndex d = 62;
  ASSERT_EQ(t.ncaLevel(s, d), 3u);
  const Route r = routeViaNca(t, s, d, 4);
  const auto hops = hopsOf(t, s, d, r);
  const auto channels = channelsOf(t, s, d, r);
  ASSERT_EQ(hops.size(), channels.size());
  ASSERT_EQ(hops.size(), 6u);
  // Hop 0 leaves the source host.
  EXPECT_EQ(hops[0].level, 0u);
  EXPECT_EQ(hops[0].node, s);
  // Ascending hops use up ports (>= m_l for switches), descending hops use
  // down ports (< m_l).
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const std::uint32_t m = t.params().m(hops[i].level);
    if (channels[i].up) {
      EXPECT_GE(hops[i].outPort, m);
    } else {
      EXPECT_LT(hops[i].outPort, m);
    }
  }
}

TEST(Route, ValidateRejectsWrongLength) {
  const Topology t(karyNTree(4, 2));
  std::string error;
  Route tooShort;  // NCA level for (0, 4) is 2.
  EXPECT_FALSE(validateRoute(t, 0, 4, tooShort, &error));
  EXPECT_NE(error.find("NCA level"), std::string::npos);
  Route tooLong;
  tooLong.up = {0, 0};
  EXPECT_FALSE(validateRoute(t, 0, 1, tooLong, &error));
}

TEST(Route, ValidateRejectsOutOfRangePort) {
  const Topology t(karyNTree(4, 2));
  Route r;
  r.up = {0, 7};  // w2 = 4.
  std::string error;
  EXPECT_FALSE(validateRoute(t, 0, 4, r, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(Route, UpPortsEqualNcaWDigits) {
  // The route <-> NCA bijection: the chosen ports are exactly the NCA's
  // W digits.
  const Topology t(Params({3, 3, 3}, {2, 2, 2}));
  const NodeIndex s = 0;
  const NodeIndex d = 26;
  ASSERT_EQ(t.ncaLevel(s, d), 3u);
  for (Count c = 0; c < t.numNcas(s, d); ++c) {
    const Route r = routeViaNca(t, s, d, c);
    const NodeIndex nca = ncaOf(t, s, r);
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_EQ(r.up[i], t.digit(3, nca, i + 1));
    }
  }
}

TEST(Route, AllRoutesAreMinimal) {
  // Every generated route has exactly 2 * ncaLevel channels: no detours.
  const Topology t(xgft2(8, 8, 3));
  for (NodeIndex s = 0; s < t.numHosts(); s += 5) {
    for (NodeIndex d = 0; d < t.numHosts(); d += 7) {
      if (s == d) continue;
      const Route r = routeViaNca(t, s, d, t.numNcas(s, d) - 1);
      EXPECT_EQ(channelsOf(t, s, d, r).size(), 2u * t.ncaLevel(s, d));
    }
  }
}

/// Calls @p visit with every candidate route of length 0..h+1 whose port
/// at level i lies in [0, w_{i+1}], one past the valid range (level h has
/// no up-ports; its candidates take ports 0 and 1).
template <typename Visit>
void forEachCandidate(const Params& p, Visit visit) {
  const std::uint32_t h = p.height();
  for (std::uint32_t len = 0; len <= h + 1; ++len) {
    Route r;
    r.up.assign(len, 0);
    for (;;) {
      visit(r);
      std::uint32_t i = 0;
      for (; i < len; ++i) {  // Odometer step over the port vector.
        const std::uint32_t top = i < h ? p.w(i + 1) : 1;
        if (r.up[i] < top) {
          ++r.up[i];
          break;
        }
        r.up[i] = 0;
      }
      if (i == len) break;
    }
  }
}

TEST(Route, ValidateMatchesReferenceOnEveryCandidateRoute) {
  const std::vector<Params> shapes = {
      Params({2, 3, 2}, {2, 2, 3}), Params({1, 2, 2}, {2, 1, 2}),
      Params({3, 2}, {1, 3}), karyNTree(2, 3), xgft2(4, 4, 2)};
  for (const Params& p : shapes) {
    SCOPED_TRACE(p.toString());
    const Topology t(p);
    std::size_t accepted = 0;
    for (NodeIndex s = 0; s < t.numHosts(); ++s) {
      for (NodeIndex d = 0; d < t.numHosts(); ++d) {
        forEachCandidate(p, [&](const Route& r) {
          std::string got = "unset";
          std::string want = "unset";
          const bool ok = validateRoute(t, s, d, r, &got);
          ASSERT_EQ(ok, reference::validateRoute(p, s, d, r, &want))
              << s << " -> " << d << " route of length " << r.ncaLevel();
          ASSERT_EQ(got, want);
          ASSERT_EQ(validateRoute(t, s, d, r), ok);
          accepted += ok ? 1 : 0;
        });
      }
    }
    // Exactly one accepted candidate per NCA of every pair.
    std::size_t ncas = 0;
    for (NodeIndex s = 0; s < t.numHosts(); ++s) {
      for (NodeIndex d = 0; d < t.numHosts(); ++d) ncas += t.numNcas(s, d);
    }
    EXPECT_EQ(accepted, ncas);
  }
}

TEST(Route, RouteViaNcaIntoBufferMatchesByValue) {
  const Topology t(Params({2, 3, 2}, {2, 2, 3}));
  Route buffer;
  buffer.up.assign(t.height() + 3, 99);  // Longer stale content.
  for (NodeIndex s = 0; s < t.numHosts(); ++s) {
    for (NodeIndex d = 0; d < t.numHosts(); ++d) {
      for (Count c = 0; c < t.numNcas(s, d); ++c) {
        routeViaNca(t, s, d, c, buffer);
        ASSERT_EQ(buffer, routeViaNca(t, s, d, c));
      }
    }
  }
  EXPECT_THROW(routeViaNca(t, 0, 11, t.numNcas(0, 11), buffer),
               std::out_of_range);
}

}  // namespace
}  // namespace xgft
