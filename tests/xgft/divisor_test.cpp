// Tests for xgft::Divisor: the reciprocal quotient and remainder equal the
// hardware divide on the narrow path's edges, on seeded random operands,
// and on the wide fallback.
#include "xgft/divisor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "xgft/rng.hpp"

namespace xgft {
namespace {

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

void expectExact(std::uint64_t d, std::uint64_t n) {
  const Divisor div(d);
  ASSERT_EQ(div.value(), d);
  ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
  ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
}

TEST(Divisor, ExactOnNarrowPathEdges) {
  const std::vector<std::uint64_t> divisors = {
      1, 2, 3, 7, 10, 16, 255, 256, 4095, 4096, 65535, 65536, 1u << 31,
      kU32Max - 1, kU32Max};
  const std::vector<std::uint64_t> numerators = {
      0, 1, 2, 3, 15, 16, 17, 4095, 4096, 65536, 1u << 31, kU32Max - 1,
      kU32Max};
  for (const std::uint64_t d : divisors) {
    for (const std::uint64_t n : numerators) expectExact(d, n);
    // Multiples and their neighbours, where a rounding slip would show.
    for (std::uint64_t k = 1; k <= 64 && k * d <= kU32Max; ++k) {
      expectExact(d, k * d - 1);
      expectExact(d, k * d);
    }
  }
}

TEST(Divisor, ExactOnRandomNarrowOperands) {
  Rng rng(42);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t d = 1 + rng.below(i % 2 == 0 ? 64 : kU32Max);
    expectExact(d, rng.below(kU32Max + 1));
  }
}

TEST(Divisor, WideOperandsFallBackExactly) {
  Rng rng(43);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t n = kU32Max + 1 + rng.below(kU64Max - kU32Max);
    expectExact(1 + rng.below(4096), n);                // Narrow divisor.
    expectExact(kU32Max + 1 + rng.below(1u << 20), n);  // Wide divisor.
  }
  expectExact(1, kU64Max);
  expectExact(kU64Max, kU64Max);
}

}  // namespace
}  // namespace xgft
