// labels.hpp — Table-I mixed-radix labeling of XGFT nodes.
//
// Every node in an XGFT is identified by a tuple of h digits (Table I of the
// paper).  A node at level l has label
//     < M_h, ..., M_{l+1}, W_l, ..., W_1 >
// where digit position i (1-based, position 1 least significant) has radix
//   m_i   for positions i > l   (which child subtree the node sits above), and
//   w_i   for positions i <= l  (which of the w_i parallel parents was taken
//                                at each ascent inside the node's own column).
//
// We linearize these tuples into a per-level node index with position 1 as
// the least significant digit, so leaf labels of a k-ary n-tree are simply
// the base-k expansion of the processor id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xgft/params.hpp"

namespace xgft {

/// Per-level node index (dense, in [0, params.nodesAtLevel(level))).
using NodeIndex = std::uint64_t;

/// A decoded node label: digits()[i-1] is the value of digit position i.
/// Digit positions 1..level hold W-digits, positions level+1..h hold
/// M-digits, matching Table I.
class Label {
 public:
  Label(std::uint32_t level, std::vector<std::uint32_t> digits)
      : level_(level), digits_(std::move(digits)) {}

  [[nodiscard]] std::uint32_t level() const { return level_; }
  [[nodiscard]] std::uint32_t height() const {
    return static_cast<std::uint32_t>(digits_.size());
  }

  /// Digit at position i (1-based, i in [1, h]).
  [[nodiscard]] std::uint32_t digit(std::uint32_t i) const {
    return digits_.at(i - 1);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& digits() const {
    return digits_;
  }

  /// Radix of digit position i for a node at this label's level.
  [[nodiscard]] static std::uint32_t radix(const Params& p, std::uint32_t level,
                                           std::uint32_t i) {
    return i <= level ? p.w(i) : p.m(i);
  }

  /// "<M3,M2,W1> = <1,0,2>"-style rendering (most significant first),
  /// matching the paper's Table I notation.
  [[nodiscard]] std::string toString() const;

  friend bool operator==(const Label&, const Label&) = default;

 private:
  std::uint32_t level_;
  std::vector<std::uint32_t> digits_;
};

/// Decodes the dense per-level index of a node at @p level into its Table-I
/// label digits.
[[nodiscard]] Label labelOf(const Params& p, std::uint32_t level,
                            NodeIndex index);

/// Encodes Table-I label digits back into the dense per-level node index.
/// Throws std::invalid_argument if any digit is out of range for its radix.
[[nodiscard]] NodeIndex indexOf(const Params& p, const Label& label);

}  // namespace xgft
