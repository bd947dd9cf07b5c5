// Internal backend table for the simd tier. Each backend TU (scalar,
// avx2) fills one static Backend with its bodies of the three tiered
// primitives, and the dispatcher swaps an atomic pointer between them.
// Both backends must return bit-identical results (see
// ccg/simd/simd.hpp); the other primitives have one body and no slot.
//
// This header is deliberately free of heavy includes: the AVX2 TU is
// compiled with -mavx2, and pulling shared inline functions into it could
// let the linker pick AVX2-codegen'd copies for the whole binary.
#pragma once

#include <cstddef>

#include "ccg/simd/simd.hpp"

namespace ccg::simd::detail {

struct Backend {
  Tier tier;
  void (*rotate_pair)(double*, double*, double, double, std::size_t);
  void (*rank1_update)(double*, const double*, double, std::size_t);
  void (*combine_rows)(double*, std::size_t, const double*, std::size_t,
                       const double*, std::size_t, std::size_t, std::size_t,
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
