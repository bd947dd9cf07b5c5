// Vector kernels for the analysis hot loops.
//
// Two backends implement the three TIERED primitives — rotate_pair,
// rank1_update and combine_rows, which carry the spectral fit's Jacobi
// rotations and the per-window spectral score:
//
//   scalar — plain C++, compiled everywhere, always selectable (the only
//            tier on aarch64 and other non-x86 targets)
//   avx2   — x86-64 AVX2 intrinsics (built when the target is x86-64,
//            dispatched only when the CPU reports AVX2)
//
// Determinism contract: both backends return BIT-identical results for
// the three tiered primitives. Each is element-wise: every output element
// is a fixed sequence of IEEE-754 multiplies and adds (combine_rows adds
// its terms in ascending j), and each vector lane op rounds exactly like
// its scalar counterpart, so any vector width gives the same bits.
//
// No backend may use fused multiply-add: FMA contracts a*b+c into one
// rounding where the scalar reference takes two, which would break the
// bit-identity across tiers. Every target is compiled with
// -ffp-contract=off, and the AVX2 backend uses explicit mul/add
// intrinsics only.
//
// Every other primitive below has ONE body (simd_scalar.cpp), which runs
// at every tier, so no tier can change its bits. The floating-point
// reductions among them keep a fixed 4-lane summation order — lane j of 4
// accumulates elements i with i % 4 == j over the aligned prefix, the
// lanes collapse as (l0 + l1) + (l2 + l3), and the n % 4 tail is added
// sequentially — only so that their outputs keep the bits they had when
// an AVX2 twin computed them the same way.
//
// Dispatch resolution order: set_tier() (CLI --simd) beats the CCG_SIMD
// environment variable ("auto" | "scalar" | "avx2") beats auto.
// "auto" picks the best compiled-in tier the running CPU supports.
// Requesting a tier that is not compiled in or not supported by the CPU
// degrades to the best available one (so CCG_SIMD=scalar is honored on
// every host, and CCG_SIMD=avx2 on an old box still runs). The resolved
// tier is exported as the `ccg.simd.tier` gauge (0 = scalar, 1 = avx2)
// so flight records and metrics dumps say which tier ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ccg::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1 };

const char* tier_name(Tier tier);

/// The tier whose backend the tiered primitives currently dispatch to.
/// Resolves lazily on first use (env + CPU probe), then stays fixed until
/// set_tier() changes it.
Tier active_tier();

/// Compiled-in and CPU-supported — i.e. selectable right now.
bool tier_available(Tier tier);

/// Overrides dispatch: accepts "auto", "scalar", "avx2"
/// (case-sensitive, matching CCG_SIMD). Unknown names return false and
/// change nothing. Unavailable tiers degrade to the best available one
/// (a warning is logged).
bool set_tier(std::string_view mode);

/// One line for --version / bug reports, e.g.
/// "compiled=scalar,avx2 dispatched=avx2".
std::string capability_string();

// --- tiered: scalar and AVX2 bodies, bit-identical --------------------------

/// Plane rotation, element-wise and exact:
///   x[i] ← c·x[i] − s·y[i];  y[i] ← s·x[i] + c·y[i]
void rotate_pair(double* x, double* y, double c, double s, std::size_t n);

/// row[i] += vr·vec[i] (element-wise, exact).
void rank1_update(double* row, const double* vec, double vr, std::size_t n);

/// out[r][i] = Σ_j w[r][j]·rows[j][i] for r < m, i < n, j < k, with
/// row-major operands of leading dimensions ldo, ldw, ldr (element-wise,
/// exact). Each output adds its k products in ascending j to +0.0: the
/// same bits as zero-filling out[r] and applying
/// rank1_update(out[r], rows[j], w[r][j], n) for j = 0..k−1.
void combine_rows(double* out, std::size_t ldo, const double* w,
                  std::size_t ldw, const double* rows, std::size_t ldr,
                  std::size_t m, std::size_t k, std::size_t n);

// --- one body at every tier: 4-lane reductions ------------------------------

/// Σ (a[i]−b[i])².
double squared_distance(const double* a, const double* b, std::size_t n);

/// Σ base[idx[i]].
double gather_sum(const double* base, const std::uint32_t* idx, std::size_t n);

/// Σ w[i]·base[idx[i]].
double gather_dot(const double* base, const std::uint32_t* idx,
                  const double* w, std::size_t n);

/// Σ w[i] over ids[i] != exclude_id (pass kNoExclude to keep everything).
double masked_sum(const std::uint32_t* ids, const double* w, std::size_t n,
                  std::uint32_t exclude_id);

inline constexpr std::uint32_t kNoExclude = 0xFFFFFFFFu;

/// row[i] −= vr·vec[i]; returns Σ |row[i]| (4-lane sum).
double rank1_update_abs_sum(double* row, const double* vec, double vr,
                            std::size_t n);

/// Ruzicka (weighted-Jaccard) accumulators over row b against a stamped
/// view of row a. For each i with ids[i] != exclude_id, wb = w[i]:
///   b_total += wb; and when stamp[ids[i]] == version, wa = vweight[ids[i]]:
///   sum_min += min(wa, wb); sum_max_matched += max(wa, wb);
///   matched_a += wa; matched_b += wb.
/// Every accumulator is a 4-lane sum (masked lanes add +0.0, which is
/// exact for the non-negative weights involved).
struct WeightedOverlap {
  double sum_min = 0.0;
  double sum_max_matched = 0.0;
  double b_total = 0.0;
  double matched_a = 0.0;
  double matched_b = 0.0;
};
WeightedOverlap weighted_overlap(const std::uint32_t* ids, const double* w,
                                 std::size_t n, const std::uint32_t* stamp,
                                 const double* vweight, std::uint32_t version,
                                 std::uint32_t exclude_id);

// --- one body at every tier: exact ------------------------------------------

/// Count of ids[i] whose stamp[ids[i]] == version (exact integer count).
std::uint32_t count_stamped(const std::uint32_t* ids, std::size_t n,
                            const std::uint32_t* stamp, std::uint32_t version);

/// MinHash lane update (exact u64 arithmetic):
///   sig[h] ← min(sig[h], mix64(feature_shifted ^ salts[h]))  for h < k
/// where mix64 is the splitmix-style finalizer used by the similarity
/// kernels and feature_shifted is the feature already shifted left 8.
void minhash_update(std::uint64_t feature_shifted, const std::uint64_t* salts,
                    std::uint64_t* sig, std::size_t k);

/// The mix64 finalizer itself (shared so salt tables and tests agree).
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace ccg::simd
