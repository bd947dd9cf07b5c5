#include "ccg/dist/wire.hpp"

#include <bit>

#include "ccg/store/format.hpp"

namespace ccg::dist {

namespace {

using store::put_varint;
using store::put_zigzag;

void put_config(std::vector<std::uint8_t>& out, const WireConfig& config) {
  out.push_back(static_cast<std::uint8_t>(config.facet));
  put_varint(out, static_cast<std::uint64_t>(config.window_minutes));
  // Exact bit pattern: the determinism contract includes the collapse
  // threshold, so "approximately equal" configs are not equal.
  put_varint(out, std::bit_cast<std::uint64_t>(config.collapse_threshold));
}

std::optional<WireConfig> get_config(store::ByteReader& in) {
  const auto facet = in.byte();
  const auto window_minutes = in.varint();
  const auto threshold_bits = in.varint();
  if (!facet || *facet > static_cast<std::uint8_t>(GraphFacet::kService) ||
      !window_minutes || *window_minutes == 0 ||
      *window_minutes > (1ull << 32) || !threshold_bits) {
    return std::nullopt;
  }
  WireConfig config;
  config.facet = static_cast<GraphFacet>(*facet);
  config.window_minutes = static_cast<std::int64_t>(*window_minutes);
  config.collapse_threshold = std::bit_cast<double>(*threshold_bits);
  if (!(config.collapse_threshold >= 0.0) || config.collapse_threshold >= 1.0) {
    return std::nullopt;  // also rejects NaN
  }
  return config;
}

bool type_is(std::span<const std::uint8_t> payload, MsgType t) {
  return !payload.empty() && payload[0] == static_cast<std::uint8_t>(t);
}

// --- telemetry body helpers -------------------------------------------------
// Sanity caps: a telemetry frame is small by construction; a count beyond
// these is corruption, not a big fleet.
constexpr std::uint64_t kMaxTelemetrySeries = 65536;
constexpr std::uint64_t kMaxTelemetrySpans = 65536;
constexpr std::uint64_t kMaxTelemetryString = 4096;

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

void put_double(std::vector<std::uint8_t>& out, double v) {
  put_varint(out, std::bit_cast<std::uint64_t>(v));
}

std::optional<std::string> get_string(store::ByteReader& in) {
  const auto len = in.varint();
  if (!len || *len > kMaxTelemetryString) return std::nullopt;
  std::string s;
  s.reserve(static_cast<std::size_t>(*len));
  for (std::uint64_t i = 0; i < *len; ++i) {
    const auto b = in.byte();
    if (!b) return std::nullopt;
    s.push_back(static_cast<char>(*b));
  }
  return s;
}

std::optional<double> get_double(store::ByteReader& in) {
  const auto bits = in.varint();
  if (!bits) return std::nullopt;
  return std::bit_cast<double>(*bits);
}

}  // namespace

WireConfig wire_config(const GraphBuildConfig& config) {
  return {config.facet, config.window_minutes, config.collapse_threshold};
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(MsgType::kHello));
  put_varint(out, kMagic);
  put_varint(out, hello.version);
  put_varint(out, hello.shard_id);
  put_varint(out, hello.shard_count);
  put_config(out, hello.config);
  return out;
}

std::vector<std::uint8_t> encode_hello_ack() {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(MsgType::kHelloAck));
  put_varint(out, kWireVersion);
  return out;
}

std::vector<std::uint8_t> encode_window(const WindowFrame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(frame.keyframe.size() + 32);
  out.push_back(static_cast<std::uint8_t>(MsgType::kWindow));
  put_varint(out, frame.shard_id);
  put_zigzag(out, frame.window_begin);
  put_varint(out, frame.trace_id);
  put_varint(out, frame.keyframe.size());
  out.insert(out.end(), frame.keyframe.begin(), frame.keyframe.end());
  return out;
}

std::vector<std::uint8_t> encode_end_of_stream(const EndOfStream& eos) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(MsgType::kEndOfStream));
  put_varint(out, eos.shard_id);
  put_varint(out, eos.records);
  put_varint(out, eos.windows);
  return out;
}

std::vector<std::uint8_t> encode_telemetry(const TelemetryFrame& frame) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(MsgType::kTelemetry));
  put_varint(out, frame.shard_id);

  put_varint(out, frame.metrics.counters.size());
  for (const obs::CounterSample& c : frame.metrics.counters) {
    put_string(out, c.name);
    put_varint(out, c.value);
  }
  put_varint(out, frame.metrics.gauges.size());
  for (const obs::GaugeSample& g : frame.metrics.gauges) {
    put_string(out, g.name);
    put_double(out, g.value);
  }
  put_varint(out, frame.metrics.histograms.size());
  for (const obs::HistogramSample& h : frame.metrics.histograms) {
    put_string(out, h.name);
    put_varint(out, h.count);
    put_double(out, h.sum);
    put_double(out, h.min);
    put_double(out, h.max);
    for (const std::uint64_t occupancy : h.buckets) put_varint(out, occupancy);
  }

  put_varint(out, frame.spans.size());
  for (const obs::TraceEvent& e : frame.spans) {
    put_string(out, e.name);
    put_varint(out, e.start_ns);
    put_varint(out, e.duration_ns);
    put_varint(out, e.thread_hash);
    put_varint(out, e.trace_id);
    put_varint(out, e.span_id);
    put_varint(out, e.parent_id);
  }
  return out;
}

std::optional<MsgType> peek_type(std::span<const std::uint8_t> payload) {
  if (payload.empty() || payload[0] < 1 || payload[0] > 5) return std::nullopt;
  return static_cast<MsgType>(payload[0]);
}

std::optional<Hello> decode_hello(std::span<const std::uint8_t> payload) {
  if (!type_is(payload, MsgType::kHello)) return std::nullopt;
  store::ByteReader in(payload.subspan(1));
  const auto magic = in.varint();
  const auto version = in.varint();
  const auto shard_id = in.varint();
  const auto shard_count = in.varint();
  if (!magic || *magic != kMagic || !version || *version > 0xFFFF ||
      !shard_id.has_value() || !shard_count || *shard_count == 0 ||
      *shard_count > 0xFFFF || *shard_id >= *shard_count) {
    return std::nullopt;
  }
  const auto config = get_config(in);
  if (!config || !in.done()) return std::nullopt;
  Hello hello;
  hello.version = static_cast<std::uint16_t>(*version);
  hello.shard_id = static_cast<std::uint32_t>(*shard_id);
  hello.shard_count = static_cast<std::uint32_t>(*shard_count);
  hello.config = *config;
  return hello;
}

bool decode_hello_ack(std::span<const std::uint8_t> payload) {
  if (!type_is(payload, MsgType::kHelloAck)) return false;
  store::ByteReader in(payload.subspan(1));
  const auto version = in.varint();
  return version && *version == kWireVersion && in.done();
}

std::optional<WindowFrame> decode_window(std::span<const std::uint8_t> payload) {
  if (!type_is(payload, MsgType::kWindow)) return std::nullopt;
  store::ByteReader in(payload.subspan(1));
  const auto shard_id = in.varint();
  const auto window_begin = in.zigzag();
  const auto trace_id = in.varint();
  const auto keyframe_len = in.varint();
  if (!shard_id || *shard_id > 0xFFFF || !window_begin || !trace_id ||
      *trace_id == 0 || !keyframe_len) {
    return std::nullopt;
  }
  // The keyframe is the remaining bytes; its length field must match
  // exactly (a short or long tail means a framing bug, not slack). The
  // blob offset is recovered by re-encoding the scalar fields — ByteReader
  // does not expose its cursor, and canonical varint widths are unique, so
  // a non-canonical encoding is rejected here as malformed.
  const std::size_t header_len = payload.size() - 1;
  std::vector<std::uint8_t> scratch;
  put_varint(scratch, *shard_id);
  put_zigzag(scratch, *window_begin);
  put_varint(scratch, *trace_id);
  put_varint(scratch, *keyframe_len);
  const std::size_t consumed = scratch.size();
  if (header_len < consumed || header_len - consumed != *keyframe_len) {
    return std::nullopt;
  }
  WindowFrame frame;
  frame.shard_id = static_cast<std::uint32_t>(*shard_id);
  frame.window_begin = *window_begin;
  frame.trace_id = *trace_id;
  const auto blob = payload.subspan(1 + consumed);
  frame.keyframe.assign(blob.begin(), blob.end());
  return frame;
}

std::optional<EndOfStream> decode_end_of_stream(
    std::span<const std::uint8_t> payload) {
  if (!type_is(payload, MsgType::kEndOfStream)) return std::nullopt;
  store::ByteReader in(payload.subspan(1));
  const auto shard_id = in.varint();
  const auto records = in.varint();
  const auto windows = in.varint();
  if (!shard_id || *shard_id > 0xFFFF || !records || !windows || !in.done()) {
    return std::nullopt;
  }
  return EndOfStream{static_cast<std::uint32_t>(*shard_id), *records, *windows};
}

std::optional<TelemetryFrame> decode_telemetry(
    std::span<const std::uint8_t> payload) {
  if (!type_is(payload, MsgType::kTelemetry)) return std::nullopt;
  store::ByteReader in(payload.subspan(1));
  const auto shard_id = in.varint();
  if (!shard_id || *shard_id > 0xFFFF) return std::nullopt;
  TelemetryFrame frame;
  frame.shard_id = static_cast<std::uint32_t>(*shard_id);

  const auto n_counters = in.varint();
  if (!n_counters || *n_counters > kMaxTelemetrySeries) return std::nullopt;
  frame.metrics.counters.reserve(static_cast<std::size_t>(*n_counters));
  for (std::uint64_t i = 0; i < *n_counters; ++i) {
    auto name = get_string(in);
    const auto value = in.varint();
    if (!name || !value) return std::nullopt;
    frame.metrics.counters.push_back({std::move(*name), *value, {}});
  }

  const auto n_gauges = in.varint();
  if (!n_gauges || *n_gauges > kMaxTelemetrySeries) return std::nullopt;
  frame.metrics.gauges.reserve(static_cast<std::size_t>(*n_gauges));
  for (std::uint64_t i = 0; i < *n_gauges; ++i) {
    auto name = get_string(in);
    const auto value = get_double(in);
    if (!name || !value) return std::nullopt;
    frame.metrics.gauges.push_back({std::move(*name), *value, {}});
  }

  const auto n_histograms = in.varint();
  if (!n_histograms || *n_histograms > kMaxTelemetrySeries) return std::nullopt;
  frame.metrics.histograms.reserve(static_cast<std::size_t>(*n_histograms));
  for (std::uint64_t i = 0; i < *n_histograms; ++i) {
    obs::HistogramSample h;
    auto name = get_string(in);
    const auto count = in.varint();
    const auto sum = get_double(in);
    const auto min = get_double(in);
    const auto max = get_double(in);
    if (!name || !count || !sum || !min || !max || *min > *max) {
      return std::nullopt;
    }
    h.name = std::move(*name);
    h.count = *count;
    h.sum = *sum;
    h.min = *min;
    h.max = *max;
    for (std::uint64_t& occupancy : h.buckets) {
      const auto value = in.varint();
      if (!value) return std::nullopt;
      occupancy = *value;
    }
    frame.metrics.histograms.push_back(std::move(h));
  }

  const auto n_spans = in.varint();
  if (!n_spans || *n_spans > kMaxTelemetrySpans) return std::nullopt;
  frame.spans.reserve(static_cast<std::size_t>(*n_spans));
  for (std::uint64_t i = 0; i < *n_spans; ++i) {
    obs::TraceEvent e;
    auto name = get_string(in);
    const auto start = in.varint();
    const auto duration = in.varint();
    const auto thread_hash = in.varint();
    const auto trace_id = in.varint();
    const auto span_id = in.varint();
    const auto parent_id = in.varint();
    if (!name || !start || !duration || !thread_hash || !trace_id ||
        !span_id || !parent_id) {
      return std::nullopt;
    }
    e.name = std::move(*name);
    e.start_ns = *start;
    e.duration_ns = *duration;
    e.thread_hash = *thread_hash;
    e.trace_id = *trace_id;
    e.span_id = *span_id;
    e.parent_id = *parent_id;
    frame.spans.push_back(std::move(e));
  }

  if (!in.done()) return std::nullopt;
  return frame;
}

}  // namespace ccg::dist
