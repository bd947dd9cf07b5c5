// Seeded byte mutations for the decoder suites: the store's frame codec,
// the shard wire messages and the ops endpoint's request line all take
// bytes from outside the process, so each must reject what it cannot
// decode and never read past its input.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccg/common/rng.hpp"

namespace ccg {

/// `bytes` after one to four seeded edits, each a bit flip, an inserted
/// random byte or a deleted byte at a random offset.
template <typename Bytes>
Bytes mutate_bytes(Bytes bytes, Rng& rng) {
  using Byte = typename Bytes::value_type;
  const std::uint64_t edits = 1 + rng.uniform(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.uniform(bytes.size() + 1);
    const std::uint64_t kind = at == bytes.size() ? 1 : rng.uniform(3);
    if (kind == 0) {
      bytes[at] = static_cast<Byte>(bytes[at] ^ (1u << rng.uniform(8)));
    } else if (kind == 1) {
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<Byte>(rng.uniform(256)));
    } else {
      bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
    }
  }
  return bytes;
}

}  // namespace ccg
