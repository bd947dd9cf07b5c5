// Internal backend vtable for the simd tier. Each backend TU (scalar,
// avx2) fills one static Backend with its implementations and the
// dispatcher swaps an atomic pointer between them. Backends must implement
// the canonical lane geometry documented in ccg/simd/simd.hpp so that
// every primitive is bit-identical across backends.
//
// This header is deliberately free of heavy includes: the AVX2 TU is
// compiled with -mavx2, and pulling shared inline functions into it could
// let the linker pick AVX2-codegen'd copies for the whole binary.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccg/simd/simd.hpp"

namespace ccg::simd::detail {

struct Backend {
  Tier tier;
  double (*dot)(const double*, const double*, std::size_t);
  double (*squared_distance)(const double*, const double*, std::size_t);
  double (*gather_sum)(const double*, const std::uint32_t*, std::size_t);
  double (*gather_dot)(const double*, const std::uint32_t*, const double*,
                       std::size_t);
  double (*masked_sum)(const std::uint32_t*, const double*, std::size_t,
                       std::uint32_t);
  double (*max_abs)(const double*, std::size_t);
  void (*rotate_pair)(double*, double*, double, double, std::size_t);
  void (*rank1_update)(double*, const double*, double, std::size_t);
  void (*combine_rows)(double*, std::size_t, const double*, std::size_t,
                       const double*, std::size_t, std::size_t, std::size_t,
                       std::size_t);
  double (*rank1_update_abs_sum)(double*, const double*, double, std::size_t);
  std::uint32_t (*count_stamped)(const std::uint32_t*, std::size_t,
                                 const std::uint32_t*, std::uint32_t);
  WeightedOverlap (*weighted_overlap)(const std::uint32_t*, const double*,
                                      std::size_t, const std::uint32_t*,
                                      const double*, std::uint32_t,
                                      std::uint32_t);
  void (*minhash_update)(std::uint64_t, const std::uint64_t*, std::uint64_t*,
                         std::size_t);
};

/// Runtime CPU probe (false off x86).
bool cpu_supports_avx2();

/// Always present.
const Backend* scalar_backend();

/// nullptr when the tier was not compiled in (wrong architecture).
const Backend* avx2_backend();

/// The backend the public wrappers dispatch to (resolves lazily).
const Backend* current_backend();

}  // namespace ccg::simd::detail
