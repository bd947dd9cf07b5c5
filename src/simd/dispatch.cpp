// Tier dispatch: resolves which backend the three tiered primitives call.
//
// Resolution order (strongest first): set_tier() from the CLI, the
// CCG_SIMD environment variable, then "auto" (best compiled-in tier the
// running CPU supports). A requested tier that is unavailable degrades to
// the best available one with a warning, so CCG_SIMD=avx2 on a non-AVX2
// host still runs, just slower. The resolved tier is published as the
// ccg.simd.tier gauge so flight records say which tier produced a run.
#include <atomic>
#include <cstdlib>
#include <string>
#include <string_view>

#include "backend.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"

namespace ccg::simd {

namespace detail {

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

namespace {

const Backend* best_available() {
  if (const Backend* b = avx2_backend(); b != nullptr && cpu_supports_avx2()) {
    return b;
  }
  return scalar_backend();
}

const Backend* backend_for(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return scalar_backend();
    case Tier::kAvx2:
      return avx2_backend() != nullptr && cpu_supports_avx2() ? avx2_backend()
                                                              : nullptr;
  }
  return nullptr;
}

void publish_tier(const Backend* b) {
  obs::Registry::global()
      .gauge("ccg.simd.tier")
      .set(static_cast<double>(static_cast<int>(b->tier)));
}

std::atomic<const Backend*> g_backend{nullptr};

const Backend* resolve_from_env() {
  const Backend* chosen = nullptr;
  const char* env = std::getenv("CCG_SIMD");
  if (env != nullptr && std::string_view(env) != "auto" &&
      std::string_view(env)[0] != '\0') {
    const std::string_view mode(env);
    Tier want = Tier::kScalar;
    bool known = true;
    if (mode == "scalar") {
      want = Tier::kScalar;
    } else if (mode == "avx2") {
      want = Tier::kAvx2;
    } else {
      known = false;
      obs::log_warn("unknown CCG_SIMD value, using auto",
                    {obs::field("value", mode)});
    }
    if (known) {
      chosen = backend_for(want);
      if (chosen == nullptr) {
        chosen = best_available();
        obs::log_warn("requested simd tier unavailable, degrading",
                      {obs::field("requested", tier_name(want)),
                       obs::field("dispatched", tier_name(chosen->tier))});
      }
    }
  }
  if (chosen == nullptr) chosen = best_available();
  return chosen;
}

}  // namespace

const Backend* current_backend() {
  const Backend* b = g_backend.load(std::memory_order_acquire);
  if (b == nullptr) {
    // Benign race: concurrent first calls resolve to the same backend.
    b = resolve_from_env();
    g_backend.store(b, std::memory_order_release);
    publish_tier(b);
  }
  return b;
}

}  // namespace detail

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier active_tier() { return detail::current_backend()->tier; }

bool tier_available(Tier tier) {
  return detail::backend_for(tier) != nullptr;
}

bool set_tier(std::string_view mode) {
  const detail::Backend* chosen = nullptr;
  if (mode == "auto") {
    chosen = detail::best_available();
  } else if (mode == "scalar") {
    chosen = detail::backend_for(Tier::kScalar);
  } else if (mode == "avx2") {
    chosen = detail::backend_for(Tier::kAvx2);
    if (chosen == nullptr) {
      chosen = detail::best_available();
      obs::log_warn("requested simd tier unavailable, degrading",
                    {obs::field("requested", mode),
                     obs::field("dispatched", tier_name(chosen->tier))});
    }
  } else {
    return false;
  }
  detail::g_backend.store(chosen, std::memory_order_release);
  detail::publish_tier(chosen);
  return true;
}

std::string capability_string() {
  std::string compiled = "scalar";
  if (detail::avx2_backend() != nullptr) compiled += ",avx2";
  std::string out = "compiled=" + compiled;
  out += " dispatched=";
  out += tier_name(active_tier());
  return out;
}

// --- tiered wrappers ---------------------------------------------------------

void rotate_pair(double* x, double* y, double c, double s, std::size_t n) {
  detail::current_backend()->rotate_pair(x, y, c, s, n);
}

void rank1_update(double* row, const double* vec, double vr, std::size_t n) {
  detail::current_backend()->rank1_update(row, vec, vr, n);
}

void combine_rows(double* out, std::size_t ldo, const double* w,
                  std::size_t ldw, const double* rows, std::size_t ldr,
                  std::size_t m, std::size_t k, std::size_t n) {
  detail::current_backend()->combine_rows(out, ldo, w, ldw, rows, ldr, m, k, n);
}

}  // namespace ccg::simd
