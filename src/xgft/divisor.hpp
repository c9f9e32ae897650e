// divisor.hpp — Division by a divisor fixed at construction.
//
// Label arithmetic divides node indices by a handful of per-topology
// constants (radices and place values), tens of times per routed pair.  A
// hardware divide is a long-latency instruction on every x86 generation;
// multiplying by a precomputed reciprocal is a few cycles.  The method is
// Lemire, Kaser & Kurz, "Faster remainder by direct computation" (2019):
// with c = ceil(2^64 / d), floor(n * c / 2^64) == floor(n / d) for every
// n < 2^32 and d <= 2^32.  Operands outside that range (trees with more
// than 2^32 nodes on a level) fall back to the hardware divide, so the
// result is exact for every input.
#pragma once

#include <cstdint>
#include <limits>

namespace xgft {

class Divisor {
 public:
  Divisor() = default;
  /// @p d must be >= 1.
  explicit Divisor(std::uint64_t d)
      : d_(d), cMinus1_(d <= kNarrow ? kAll / d : 0) {}

  [[nodiscard]] std::uint64_t value() const { return d_; }

  [[nodiscard]] std::uint64_t quotient(std::uint64_t n) const {
    if (n <= kNarrow && cMinus1_ != 0) {
      // n * c == n * (c - 1) + n; c itself needs 65 bits when d == 1.
      return static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(cMinus1_) * n + n) >> 64);
    }
    return n / d_;
  }

  [[nodiscard]] std::uint64_t remainder(std::uint64_t n) const {
    return n - quotient(n) * d_;
  }

 private:
  static constexpr std::uint64_t kNarrow =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kAll =
      std::numeric_limits<std::uint64_t>::max();

  std::uint64_t d_ = 1;
  /// ceil(2^64 / d) - 1 == floor((2^64 - 1) / d); 0 when d is too wide
  /// for the reciprocal path.
  std::uint64_t cMinus1_ = kAll;
};

}  // namespace xgft
