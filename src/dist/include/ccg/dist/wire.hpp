// Shard <-> aggregator message codec for the distributed collector
// (docs/DISTRIBUTED.md has the byte-level spec). Messages travel inside
// net::FrameConn frames; a message payload is `u8 type | body`, with body
// fields varint/zigzag packed exactly like the store format.
//
// The handshake is versioned and config-checked: a shard announces its
// wire version, shard id/count and graph build config in kHello; the
// aggregator replies kHelloAck only when everything agrees — on mismatch
// it closes the connection and the shard treats the missing ack as a
// refusal. Window frames embed the store's keyframe encoding, so the
// per-window partial graph crosses the wire in canonical node order.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ccg/graph/builder.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"

namespace ccg::dist {

/// First varint of every kHello: "CCGD" little-endian.
inline constexpr std::uint32_t kMagic = 0x44474343;

/// Bumped on any incompatible wire or semantics change.
/// v2: adds the out-of-band kTelemetry frame (metrics/log/span shipping).
/// v3: kTelemetry carries cumulative metrics and spans only (no logs, no
/// sequence number); kHello drops the collapse_monitored byte.
/// v4: a kTelemetry histogram is its 32 occupancies on the fixed bucket
/// layout, with no bucket count and no bounds.
inline constexpr std::uint16_t kWireVersion = 4;

enum class MsgType : std::uint8_t {
  kHello = 1,        // shard -> aggregator: version + shard identity + config
  kHelloAck = 2,     // aggregator -> shard: handshake accepted
  kWindow = 3,       // shard -> aggregator: one window's partial graph
  kEndOfStream = 4,  // shard -> aggregator: clean shutdown + final counts
  kTelemetry = 5,    // shard -> aggregator: out-of-band observability data
};

/// The graph-build parameters both sides must agree on for the merge to be
/// deterministic. Mismatch is a handshake refusal, not a silent skew.
struct WireConfig {
  GraphFacet facet = GraphFacet::kIp;
  std::int64_t window_minutes = 60;
  double collapse_threshold = 0.0;

  friend bool operator==(const WireConfig&, const WireConfig&) = default;
};

WireConfig wire_config(const GraphBuildConfig& config);

struct Hello {
  std::uint16_t version = kWireVersion;
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  WireConfig config;
};

/// One window's partial graph from one shard. `keyframe` is the store
/// codec's kKeyframe frame payload (store::encode_frame against an empty
/// base); `trace_id` is the deterministic window trace id, shipped so the
/// aggregator's merge spans land in the same trace as the shard's build
/// spans — and verified against window_begin on receipt.
struct WindowFrame {
  std::uint32_t shard_id = 0;
  std::int64_t window_begin = 0;
  std::uint64_t trace_id = 0;
  std::vector<std::uint8_t> keyframe;
};

struct EndOfStream {
  std::uint32_t shard_id = 0;
  std::uint64_t records = 0;   // records this shard ingested
  std::uint64_t windows = 0;   // window frames it shipped
};

/// One out-of-band observability shipment from a shard worker: the
/// cumulative snapshot of its metrics registry (zero counters and empty
/// histograms left out), which the receiver keeps in place of the previous
/// one, plus the trace spans recorded since the previous shipment.
/// Strictly out-of-band: the aggregator's merge output is byte-identical
/// whether or not these frames arrive. A histogram ships only its
/// occupancies on the fixed layout; quantiles are computed where the
/// series is rendered.
struct TelemetryFrame {
  std::uint32_t shard_id = 0;
  obs::Snapshot metrics;
  std::vector<obs::TraceEvent> spans;
};

std::vector<std::uint8_t> encode_hello(const Hello& hello);
std::vector<std::uint8_t> encode_hello_ack();
std::vector<std::uint8_t> encode_window(const WindowFrame& frame);
std::vector<std::uint8_t> encode_end_of_stream(const EndOfStream& eos);
std::vector<std::uint8_t> encode_telemetry(const TelemetryFrame& frame);

/// Message type of a payload (nullopt on empty/unknown).
std::optional<MsgType> peek_type(std::span<const std::uint8_t> payload);

// Decoders are total: malformed input yields nullopt/false, never UB.
std::optional<Hello> decode_hello(std::span<const std::uint8_t> payload);
bool decode_hello_ack(std::span<const std::uint8_t> payload);
std::optional<WindowFrame> decode_window(std::span<const std::uint8_t> payload);
std::optional<EndOfStream> decode_end_of_stream(
    std::span<const std::uint8_t> payload);
std::optional<TelemetryFrame> decode_telemetry(
    std::span<const std::uint8_t> payload);

}  // namespace ccg::dist
