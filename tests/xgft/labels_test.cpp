// Unit tests for the Table-I mixed-radix label algebra.
#include "xgft/labels.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace xgft {
namespace {

TEST(Labels, LeafLabelIsBaseKExpansionInKaryTree) {
  const Params p = karyNTree(4, 3);
  // Leaf 27 = 1*16 + 2*4 + 3 in base 4 -> digits M1=3, M2=2, M3=1.
  const Label l = labelOf(p, 0, 27);
  EXPECT_EQ(l.digit(1), 3u);
  EXPECT_EQ(l.digit(2), 2u);
  EXPECT_EQ(l.digit(3), 1u);
}

TEST(Labels, RoundTripAllLevels) {
  const Params p({4, 3, 2}, {1, 2, 3});
  for (std::uint32_t level = 0; level <= p.height(); ++level) {
    for (NodeIndex i = 0; i < p.nodesAtLevel(level); ++i) {
      const Label l = labelOf(p, level, i);
      EXPECT_EQ(indexOf(p, l), i) << "level " << level << " index " << i;
    }
  }
}

TEST(Labels, RadixSwitchesFromMToWAtLevel) {
  const Params p({16, 16}, {1, 10});
  // Level-2 (root) labels: digit 1 has radix w1=1, digit 2 radix w2=10.
  EXPECT_EQ(Label::radix(p, 2, 1), 1u);
  EXPECT_EQ(Label::radix(p, 2, 2), 10u);
  // Level-1 labels: digit 1 radix w1=1, digit 2 radix m2=16.
  EXPECT_EQ(Label::radix(p, 1, 1), 1u);
  EXPECT_EQ(Label::radix(p, 1, 2), 16u);
  // Leaf labels: both M radices.
  EXPECT_EQ(Label::radix(p, 0, 1), 16u);
  EXPECT_EQ(Label::radix(p, 0, 2), 16u);
}

TEST(Labels, OutOfRangeInputsThrow) {
  const Params p({4, 4}, {1, 4});
  EXPECT_THROW(labelOf(p, 3, 0), std::out_of_range);
  EXPECT_THROW(labelOf(p, 0, 16), std::out_of_range);
  EXPECT_THROW((void)indexOf(p, Label(0, {4, 0})), std::invalid_argument);
  EXPECT_THROW((void)indexOf(p, Label(0, {0})), std::invalid_argument);
}

TEST(Labels, ToStringShowsMostSignificantFirst) {
  const Params p({16, 16}, {1, 10});
  EXPECT_EQ(labelOf(p, 0, 17).toString(), "<M2=1,M1=1>");
  EXPECT_EQ(labelOf(p, 2, 3).toString(), "<W2=3,W1=0>");
}

// Parameterized sweep: labels are a bijection between [0, count) and the
// digit tuples, at every level and for several tree shapes.
class LabelBijection : public ::testing::TestWithParam<Params> {};

TEST_P(LabelBijection, EveryLabelDistinct) {
  const Params& p = GetParam();
  for (std::uint32_t level = 0; level <= p.height(); ++level) {
    std::set<std::vector<std::uint32_t>> seen;
    for (NodeIndex i = 0; i < p.nodesAtLevel(level); ++i) {
      EXPECT_TRUE(seen.insert(labelOf(p, level, i).digits()).second);
    }
    EXPECT_EQ(seen.size(), p.nodesAtLevel(level));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LabelBijection,
    ::testing::Values(karyNTree(2, 3), karyNTree(4, 2), xgft2(16, 16, 10),
                      Params({4, 3, 2}, {1, 2, 3}),
                      Params({3, 3, 3}, {2, 2, 2}),
                      Params({6, 2}, {1, 5})));

}  // namespace
}  // namespace xgft
