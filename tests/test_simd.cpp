// Bit-identity of the three tiered simd primitives across backends, plus
// the tier dispatch/override semantics.
//
// The contract under test is the one src/simd documents: for rotate_pair,
// rank1_update and combine_rows at every input size (including ragged
// tails), a non-scalar backend returns results BYTE-identical to the
// scalar reference — the comparisons below are on std::uint64_t bit
// patterns, not tolerances. The other primitives have one body at every
// tier, so there is no second body to compare.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ccg/common/rng.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/simd/simd.hpp"
#include "bits.hpp"

namespace ccg {
namespace {

struct TierGuard {
  ~TierGuard() { simd::set_tier("auto"); }
};

/// Tiers this host can actually run: scalar always, plus the best
/// auto-dispatched tier when it differs (avx2 on an AVX2 x86-64 host).
/// On a scalar-only host the loop still runs — it just compares scalar
/// against itself, keeping the test portable.
std::vector<std::string> selectable_tiers() {
  simd::set_tier("auto");
  std::vector<std::string> tiers{"scalar"};
  const std::string best = simd::tier_name(simd::active_tier());
  if (best != "scalar") tiers.push_back(best);
  return tiers;
}

/// Runs `fn` (which returns the full result as a bit vector) once under the
/// scalar backend and once under every other selectable tier, and demands
/// exact equality.
template <typename Fn>
void expect_tier_identical(Fn&& fn, const std::string& what) {
  const std::vector<std::string> tiers = selectable_tiers();
  simd::set_tier("scalar");
  const std::vector<std::uint64_t> reference = fn();
  for (const std::string& tier : tiers) {
    simd::set_tier(tier);
    ASSERT_EQ(reference, fn()) << what << " diverged under tier=" << tier;
  }
}

// Sizes straddling the 4-lane geometry: empty, sub-width, exact multiples,
// every tail residue, and larger blocks crossing cache lines.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 16, 17, 31, 33, 64, 100, 257};

TEST(SimdPrimitives, ElementwiseUpdatesBitIdenticalAcrossTiers) {
  TierGuard guard;
  Rng rng(37);
  const double c = std::cos(0.3), s = std::sin(0.3);
  for (const std::size_t n : kSizes) {
    std::vector<double> x0(n), y0(n), row0(n), vec(n);
    for (auto& v : x0) v = rng.normal();
    for (auto& v : y0) v = rng.normal();
    for (auto& v : row0) v = rng.normal();
    for (auto& v : vec) v = rng.normal();
    expect_tier_identical(
        [&] {
          std::vector<double> x = x0, y = y0, row = row0;
          simd::rotate_pair(x.data(), y.data(), c, s, n);
          simd::rank1_update(row.data(), vec.data(), 0.75, n);
          std::vector<std::uint64_t> out;
          for (const auto& vecs : {x, y, row}) {
            for (const double v : vecs) out.push_back(bits(v));
          }
          return out;
        },
        "rotate/rank1 n=" + std::to_string(n));
  }
}

TEST(SimdPrimitives, CombineRowsEqualsRank1UpdatesAcrossTiers) {
  TierGuard guard;
  Rng rng(43);
  for (const std::size_t m : {1u, 3u, 4u, 5u, 9u}) {
    for (const std::size_t k : {0u, 1u, 6u, 20u}) {
      for (const std::size_t n : {1u, 3u, 4u, 8u, 13u, 31u}) {
        // Padded leading dimensions, and weights with exact zeros of both
        // signs, as the spectral score feeds it.
        const std::size_t ldw = k + 2, ldr = n + 3, ldo = n + 1;
        std::vector<double> w(m * ldw), rows(k * ldr);
        for (auto& v : w) v = rng.chance(0.2) ? (rng.chance(0.5) ? 0.0 : -0.0) : rng.normal();
        for (auto& v : rows) v = rng.normal();
        simd::set_tier("scalar");
        std::vector<std::uint64_t> want;
        for (std::size_t r = 0; r < m; ++r) {
          std::vector<double> out(n, 0.0);
          for (std::size_t j = 0; j < k; ++j) {
            simd::rank1_update(out.data(), &rows[j * ldr], w[r * ldw + j], n);
          }
          for (const double v : out) want.push_back(bits(v));
        }
        expect_tier_identical(
            [&] {
              std::vector<double> out(m * ldo, 7.0);
              simd::combine_rows(out.data(), ldo, w.data(), ldw, rows.data(), ldr,
                                 m, k, n);
              std::vector<std::uint64_t> got;
              for (std::size_t r = 0; r < m; ++r) {
                for (std::size_t i = 0; i < n; ++i) got.push_back(bits(out[r * ldo + i]));
                EXPECT_EQ(out[r * ldo + n], 7.0) << "wrote past row " << r;
              }
              EXPECT_EQ(got, want) << "m=" << m << " k=" << k << " n=" << n;
              return got;
            },
            "combine_rows m=" + std::to_string(m) + " k=" + std::to_string(k) +
                " n=" + std::to_string(n));
      }
    }
  }
}

TEST(SimdPrimitives, Mix64Finalizer) {
  // The shared finalizer is the identity at 0 and avalanche-mixes elsewhere.
  EXPECT_EQ(simd::mix64(0), 0u);
  EXPECT_NE(simd::mix64(1), 1u);
}

TEST(SimdDispatch, TierOverrideAndDegradation) {
  TierGuard guard;
  // Scalar is compiled in and selectable on every host.
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  EXPECT_TRUE(simd::set_tier("scalar"));
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);

  // Unknown names — "neon" included: no backend implements it — are
  // rejected without changing the dispatch.
  EXPECT_FALSE(simd::set_tier("sse9"));
  EXPECT_FALSE(simd::set_tier(""));
  EXPECT_FALSE(simd::set_tier("neon"));
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);

  // Requesting an unavailable tier degrades to the best available one: a
  // host without AVX2 must still land on a tier that is actually
  // selectable.
  EXPECT_TRUE(simd::set_tier("avx2"));
  EXPECT_TRUE(simd::tier_available(simd::active_tier()));

  // "auto" resolves to an available tier as well.
  EXPECT_TRUE(simd::set_tier("auto"));
  EXPECT_TRUE(simd::tier_available(simd::active_tier()));
}

TEST(SimdDispatch, CapabilityStringAndGauge) {
  TierGuard guard;
  simd::set_tier("auto");
  const std::string caps = simd::capability_string();
  EXPECT_NE(caps.find("compiled=scalar"), std::string::npos) << caps;
  EXPECT_NE(caps.find("dispatched="), std::string::npos) << caps;
  EXPECT_NE(caps.find(simd::tier_name(simd::active_tier())), std::string::npos)
      << caps;

  // The resolved tier is exported so flight records can say which tier ran.
  obs::Gauge& gauge = obs::Registry::global().gauge("ccg.simd.tier");
  EXPECT_EQ(gauge.value(),
            static_cast<double>(static_cast<int>(simd::active_tier())));
  simd::set_tier("scalar");
  EXPECT_EQ(gauge.value(), 0.0);
}

}  // namespace
}  // namespace ccg
