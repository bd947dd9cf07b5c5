// On-disk frame codec for the graph snapshot store (docs/STORE.md).
//
// A frame is one window's graph, either self-contained (keyframe) or
// GraphPatch-encoded against the previous window (delta). Payloads are
// varint/zigzag packed — referenced nodes cost ~1 byte, referenced edges
// encode their stats as zigzag diffs against the base edge, which is what
// makes hour-over-hour "many patterns are consistent" (paper Fig. 5) show
// up as a 10x+ size win over full snapshots.
//
// Framing (little-endian):  u32 payload_len | payload | u32 crc32(payload)
// Every decode path is total: truncated or corrupt input yields nullopt,
// never a partial graph.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ccg/graph/comm_graph.hpp"
#include "ccg/graph/delta.hpp"

namespace ccg::store {

enum class FrameKind : std::uint8_t {
  kKeyframe = 1,  // encoded against an empty base
  kDelta = 2,     // encoded against the previous window's graph
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib one).
std::uint32_t crc32(std::span<const std::uint8_t> data);

// --- varint primitives (shared with tests) ----------------------------------

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
void put_zigzag(std::vector<std::uint8_t>& out, std::int64_t v);

/// Cursor over a payload; every accessor returns nullopt past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::optional<std::uint8_t> byte();
  std::optional<std::uint64_t> varint();
  std::optional<std::int64_t> zigzag();
  bool done() const { return pos_ >= data_.size(); }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --- frames -----------------------------------------------------------------

/// Header fields decodable without the base graph (for index rebuilds).
struct FrameHeader {
  FrameKind kind = FrameKind::kKeyframe;
  std::int64_t window_begin = 0;
  std::int64_t window_len = 0;
};

/// Serializes `graph` as one frame payload. For kDelta, `base` must be the
/// graph of the immediately preceding frame; for kKeyframe it is ignored.
std::vector<std::uint8_t> encode_frame(FrameKind kind, const CommGraph& base,
                                       const CommGraph& graph);

/// Reads just the frame header. nullopt on malformed input.
std::optional<FrameHeader> peek_frame(std::span<const std::uint8_t> payload);

/// Reconstructs the frame's graph. `base` is the previous window's graph
/// for delta frames (ignored for keyframes). nullopt when the payload is
/// corrupt or inconsistent with `base`.
std::optional<CommGraph> decode_frame(std::span<const std::uint8_t> payload,
                                      const CommGraph& base);

}  // namespace ccg::store
