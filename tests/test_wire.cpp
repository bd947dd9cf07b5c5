#include "ccg/dist/wire.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "ccg/obs/export.hpp"
#include "ccg/store/format.hpp"
#include "mutation.hpp"

namespace ccg::dist {
namespace {

Hello reference_hello() {
  Hello hello;
  hello.version = kWireVersion;
  hello.shard_id = 2;
  hello.shard_count = 4;
  hello.config = {GraphFacet::kIp, 60, 0.001};
  return hello;
}

// Golden bytes pin the wire format: any codec change that alters them is an
// incompatible protocol change and must bump kWireVersion. Layout:
// u8 type | varint magic("CCGD") | varint version | varint shard_id |
// varint shard_count | u8 facet | varint window_minutes |
// varint bit_cast<u64>(collapse_threshold).
TEST(WireFormat, GoldenHelloBytes) {
  const std::vector<std::uint8_t> golden = {
      0x01,                          // kHello
      0xC3, 0x86, 0x9D, 0xA2, 0x04,  // magic 0x44474343 "CCGD"
      0x04,                          // version 4 (fixed-layout histograms)
      0x02,                          // shard id 2
      0x04,                          // shard count 4
      0x00,                          // facet kIp
      0x3C,                          // window 60 min
      0xFC, 0xD3, 0xC6, 0x97, 0xDD, 0xC9, 0x98, 0xA8, 0x3F,  // 0.001 bits
  };
  EXPECT_EQ(encode_hello(reference_hello()), golden);
}

TEST(WireFormat, GoldenAckWindowAndEosBytes) {
  EXPECT_EQ(encode_hello_ack(), (std::vector<std::uint8_t>{0x02, 0x04}));

  WindowFrame frame;
  frame.shard_id = 1;
  frame.window_begin = 120;
  frame.trace_id = 0xABCDEF;
  frame.keyframe = {0xDE, 0xAD, 0xBE, 0xEF};
  const std::vector<std::uint8_t> golden_window = {
      0x03, 0x01, 0xF0, 0x01, 0xEF, 0x9B, 0xAF, 0x05,
      0x04, 0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(encode_window(frame), golden_window);

  EXPECT_EQ(encode_end_of_stream({3, 1000, 7}),
            (std::vector<std::uint8_t>{0x04, 0x03, 0xE8, 0x07, 0x07}));
}

TEST(WireFormat, HelloRoundTrip) {
  const Hello hello = reference_hello();
  const auto decoded = decode_hello(encode_hello(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->version, hello.version);
  EXPECT_EQ(decoded->shard_id, hello.shard_id);
  EXPECT_EQ(decoded->shard_count, hello.shard_count);
  EXPECT_TRUE(decoded->config == hello.config);
  EXPECT_TRUE(decode_hello_ack(encode_hello_ack()));
}

TEST(WireFormat, WindowRoundTripPreservesKeyframeBytes) {
  WindowFrame frame;
  frame.shard_id = 7;
  frame.window_begin = -60;  // pre-epoch windows are legal (zigzag)
  frame.trace_id = 0x1234567890ABCDEFull;
  for (int i = 0; i < 300; ++i) {
    frame.keyframe.push_back(static_cast<std::uint8_t>(i * 13));
  }
  const auto decoded = decode_window(encode_window(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_id, frame.shard_id);
  EXPECT_EQ(decoded->window_begin, frame.window_begin);
  EXPECT_EQ(decoded->trace_id, frame.trace_id);
  EXPECT_EQ(decoded->keyframe, frame.keyframe);
}

TEST(WireFormat, EveryTruncationIsRejected) {
  const auto hello = encode_hello(reference_hello());
  for (std::size_t len = 0; len < hello.size(); ++len) {
    EXPECT_FALSE(decode_hello(std::span(hello).first(len)).has_value())
        << "hello truncated to " << len << " bytes decoded";
  }
  WindowFrame frame;
  frame.shard_id = 1;
  frame.window_begin = 60;
  frame.trace_id = 42;
  frame.keyframe = {1, 2, 3, 4, 5};
  const auto window = encode_window(frame);
  for (std::size_t len = 0; len < window.size(); ++len) {
    EXPECT_FALSE(decode_window(std::span(window).first(len)).has_value())
        << "window truncated to " << len << " bytes decoded";
  }
  const auto eos = encode_end_of_stream({1, 10, 2});
  for (std::size_t len = 0; len < eos.size(); ++len) {
    EXPECT_FALSE(decode_end_of_stream(std::span(eos).first(len)).has_value());
  }
}

TEST(WireFormat, TrailingGarbageIsRejected) {
  auto hello = encode_hello(reference_hello());
  hello.push_back(0x00);
  EXPECT_FALSE(decode_hello(hello).has_value());

  // A window whose length field disagrees with the actual tail — both a
  // byte short and a byte long — is a framing bug, not slack.
  WindowFrame frame;
  frame.shard_id = 1;
  frame.window_begin = 60;
  frame.trace_id = 42;
  frame.keyframe = {9, 9, 9};
  auto window = encode_window(frame);
  window.push_back(0xAA);
  EXPECT_FALSE(decode_window(window).has_value());

  auto eos = encode_end_of_stream({1, 10, 2});
  eos.push_back(0x01);
  EXPECT_FALSE(decode_end_of_stream(eos).has_value());
}

TEST(WireFormat, BadMagicAndBadTypeRejected) {
  auto hello = encode_hello(reference_hello());
  hello[1] ^= 0x01;  // corrupt the magic
  EXPECT_FALSE(decode_hello(hello).has_value());

  EXPECT_FALSE(peek_type({}).has_value());
  const std::vector<std::uint8_t> unknown = {0x7F, 0x00};
  EXPECT_FALSE(peek_type(unknown).has_value());
  EXPECT_FALSE(decode_hello(unknown).has_value());
  EXPECT_FALSE(decode_window(unknown).has_value());
  EXPECT_FALSE(decode_end_of_stream(unknown).has_value());
  EXPECT_FALSE(decode_hello_ack(unknown));
}

TEST(WireFormat, InvalidConfigRejected) {
  Hello hello = reference_hello();
  hello.config.collapse_threshold = 1.5;  // out of [0, 1)
  EXPECT_FALSE(decode_hello(encode_hello(hello)).has_value());

  hello = reference_hello();
  hello.config.collapse_threshold =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(decode_hello(encode_hello(hello)).has_value());

  hello = reference_hello();
  hello.config.window_minutes = 0;
  EXPECT_FALSE(decode_hello(encode_hello(hello)).has_value());

  // shard_id >= shard_count is nonsense regardless of config.
  hello = reference_hello();
  hello.shard_id = 4;
  hello.shard_count = 4;
  EXPECT_FALSE(decode_hello(encode_hello(hello)).has_value());
}

TEST(WireFormat, ZeroTraceIdRejected) {
  // Trace id 0 is the "no trace" sentinel; a shard must never ship it.
  WindowFrame frame;
  frame.shard_id = 1;
  frame.window_begin = 60;
  frame.trace_id = 0;
  frame.keyframe = {1};
  EXPECT_FALSE(decode_window(encode_window(frame)).has_value());
}

TelemetryFrame reference_telemetry() {
  TelemetryFrame frame;
  frame.shard_id = 3;

  frame.metrics.counters.push_back({"ccg.analytics.windows", 42, {}});
  frame.metrics.counters.push_back({"ccg.net.frames_sent", 0, {}});
  frame.metrics.gauges.push_back({"ccg.dist.agg.queue_depth_hwm", 2.5, {}});
  obs::HistogramSample h;
  h.name = "ccg.analytics.window.seconds";
  h.buckets[9] = 3;
  h.buckets[10] = 1;
  h.buckets[31] = 1;
  h.count = 5;
  h.sum = 0.009;
  h.min = 0.0004;
  h.max = 0.0041;
  frame.metrics.histograms.push_back(std::move(h));

  obs::TraceEvent e;
  e.name = "ccg.analytics.window";
  e.start_ns = 1000;
  e.duration_ns = 250;
  e.thread_hash = 0xBEEF;
  e.trace_id = 0xABC;
  e.span_id = 7;
  e.parent_id = 0;
  frame.spans.push_back(std::move(e));
  return frame;
}

TEST(WireTelemetry, RoundTripPreservesEverySection) {
  const TelemetryFrame frame = reference_telemetry();
  const auto encoded = encode_telemetry(frame);
  EXPECT_EQ(peek_type(encoded), MsgType::kTelemetry);
  const auto decoded = decode_telemetry(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_id, frame.shard_id);

  ASSERT_EQ(decoded->metrics.counters.size(), 2u);
  EXPECT_EQ(decoded->metrics.counters[0].name, "ccg.analytics.windows");
  EXPECT_EQ(decoded->metrics.counters[0].value, 42u);
  EXPECT_EQ(decoded->metrics.counters[1].value, 0u);  // zero is legal

  ASSERT_EQ(decoded->metrics.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(decoded->metrics.gauges[0].value, 2.5);

  ASSERT_EQ(decoded->metrics.histograms.size(), 1u);
  const obs::HistogramSample& h = decoded->metrics.histograms[0];
  EXPECT_EQ(h.name, "ccg.analytics.window.seconds");
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.sum, 0.009);
  EXPECT_DOUBLE_EQ(h.min, 0.0004);
  EXPECT_DOUBLE_EQ(h.max, 0.0041);
  EXPECT_EQ(h.buckets, frame.metrics.histograms[0].buckets);

  ASSERT_EQ(decoded->spans.size(), 1u);
  EXPECT_EQ(decoded->spans[0].name, "ccg.analytics.window");
  EXPECT_EQ(decoded->spans[0].duration_ns, 250u);
  EXPECT_EQ(decoded->spans[0].parent_id, 0u);
}

TEST(WireTelemetry, EmptySectionsRoundTrip) {
  // Any section may be empty on the wire (a metrics-only shipment from a
  // worker that records no spans, say).
  TelemetryFrame frame;
  frame.shard_id = 0;
  const auto decoded = decode_telemetry(encode_telemetry(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->shard_id, 0u);
  EXPECT_TRUE(decoded->metrics.counters.empty());
  EXPECT_TRUE(decoded->metrics.gauges.empty());
  EXPECT_TRUE(decoded->metrics.histograms.empty());
  EXPECT_TRUE(decoded->spans.empty());
}

// The v4 body: u8 type | varint shard_id | counted counters (name, varint
// value) | counted gauges (name, double bits) | counted histograms (name,
// count, sum, min, max, then one varint occupancy per bucket of the fixed
// layout, with no bucket count and no bounds) | counted spans.
TEST(WireTelemetry, GoldenBytes) {
  TelemetryFrame frame;
  frame.shard_id = 2;
  frame.metrics.counters.push_back({"c", 5, {}});
  frame.metrics.gauges.push_back({"g", 0.0, {}});
  obs::HistogramSample h;
  h.name = "h";
  h.buckets[0] = 1;
  h.buckets[31] = 2;
  h.count = 3;
  frame.metrics.histograms.push_back(std::move(h));
  obs::TraceEvent e;
  e.name = "s";
  e.start_ns = 1;
  e.duration_ns = 2;
  e.thread_hash = 3;
  e.trace_id = 4;
  e.span_id = 5;
  e.parent_id = 6;
  frame.spans.push_back(std::move(e));
  std::vector<std::uint8_t> golden = {
      0x05,                          // kTelemetry
      0x02,                          // shard id 2
      0x01, 0x01, 'c', 0x05,         // 1 counter: "c" = 5
      0x01, 0x01, 'g', 0x00,         // 1 gauge: "g" = 0.0
      0x01, 0x01, 'h', 0x03,         // 1 histogram: "h", count 3
      0x00, 0x00, 0x00,              //   sum, min, max 0.0
      0x01,                          //   bucket 0: 1
  };
  golden.insert(golden.end(), 30, 0x00);  // buckets 1..30: empty
  const std::vector<std::uint8_t> tail = {
      0x02,                          //   overflow bucket: 2
      0x01, 0x01, 's',               // 1 span: "s"
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06,  // start, duration, thread,
                                           // trace, span, parent
  };
  golden.insert(golden.end(), tail.begin(), tail.end());
  EXPECT_EQ(encode_telemetry(frame), golden);
  const auto decoded = decode_telemetry(golden);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_telemetry(*decoded), golden);
}

// A histogram costs its name plus count, sum, min, max and one varint per
// bucket: with small occupancies, under 100 bytes. Shipping each bucket's
// bound as well would cost a further 9 bytes a bucket, ~350 in all.
TEST(WireTelemetry, HistogramsShipOnlyTheirOccupancies) {
  TelemetryFrame frame;
  std::size_t names = 0;
  for (const char* name : {"ccg.analytics.window.seconds",
                           "ccg.dist.shard.ship.seconds",
                           "ccg.graph.finalize.seconds"}) {
    obs::Registry registry;
    obs::Histogram& h = registry.histogram(name);
    for (int i = 1; i <= 40; ++i) h.record(1e-6 * i * i * i);
    frame.metrics.histograms.push_back(registry.snapshot().histograms.at(0));
    names += std::string_view(name).size();
  }
  const std::size_t empty_frame = encode_telemetry(TelemetryFrame{}).size();
  const std::size_t size = encode_telemetry(frame).size() - empty_frame;
  EXPECT_LT(size, 3 * 100 + names) << size << " bytes";
  const auto decoded = decode_telemetry(encode_telemetry(frame));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(obs::to_json(decoded->metrics), obs::to_json(frame.metrics));
}

TEST(WireTelemetry, EveryTruncationIsRejected) {
  const auto encoded = encode_telemetry(reference_telemetry());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(decode_telemetry(std::span(encoded).first(len)).has_value())
        << "telemetry truncated to " << len << " bytes decoded";
  }
}

TEST(WireTelemetry, TrailingGarbageIsRejected) {
  auto encoded = encode_telemetry(reference_telemetry());
  encoded.push_back(0x00);
  EXPECT_FALSE(decode_telemetry(encoded).has_value());
}

TEST(WireTelemetry, MalformedFieldsRejected) {
  // Oversized shard id: the fleet registry keys on small shard numbers.
  TelemetryFrame frame = reference_telemetry();
  frame.shard_id = 0x10000;
  EXPECT_FALSE(decode_telemetry(encode_telemetry(frame)).has_value());

  // Counts past the sanity caps are corruption, not a big fleet.
  frame = reference_telemetry();
  frame.metrics.counters[0].name.assign(4097, 'x');
  EXPECT_FALSE(decode_telemetry(encode_telemetry(frame)).has_value());

  EXPECT_FALSE(decode_telemetry({}).has_value());
  const std::vector<std::uint8_t> wrong_type = {0x03, 0x00};
  EXPECT_FALSE(decode_telemetry(wrong_type).has_value());
}

TEST(WireTelemetry, HistogramMinAboveMaxIsRejected) {
  // Rendered quantiles are bounded to [min, max]; a shipped histogram with
  // min above max is malformed, not a value to bound by.
  TelemetryFrame frame = reference_telemetry();
  frame.metrics.histograms[0].min = 0.0041;
  frame.metrics.histograms[0].max = 0.0004;
  EXPECT_FALSE(decode_telemetry(encode_telemetry(frame)).has_value());

  frame.metrics.histograms[0].max = 0.0041;  // min == max is legal
  EXPECT_TRUE(decode_telemetry(encode_telemetry(frame)).has_value());
}

TEST(WireTelemetry, PeekTypeKnowsTelemetry) {
  const std::vector<std::uint8_t> telemetry = {0x05};
  const std::vector<std::uint8_t> beyond = {0x06};
  EXPECT_EQ(peek_type(telemetry), MsgType::kTelemetry);
  EXPECT_FALSE(peek_type(beyond).has_value());
}

TEST(WireFormat, ConfigEqualityIsExactBits) {
  const WireConfig a{GraphFacet::kIp, 60, 0.001};
  WireConfig b = a;
  EXPECT_TRUE(a == b);
  b.collapse_threshold = 0.001 + 1e-22;  // rounds to the same double
  EXPECT_TRUE(a == b);
  b.collapse_threshold = 0.0010000001;
  EXPECT_FALSE(a == b);
}

/// True when `decode` rejects `payload`, or accepts it as a value whose
/// encoding decodes and re-encodes to the same bytes.
template <typename Decode, typename Encode>
bool rejects_or_round_trips(std::span<const std::uint8_t> payload,
                            Decode decode, Encode encode) {
  const auto value = decode(payload);
  if (!value) return true;
  const auto bytes = encode(*value);
  const auto again = decode(bytes);
  return again && encode(*again) == bytes;
}

// Seeded mutations of every shard -> aggregator message, each fed to all
// four decoders (a flipped type byte routes a payload to another one).
TEST(WireMutation, DecodersRejectOrRoundTrip) {
  WindowFrame window;
  window.shard_id = 1;
  window.window_begin = 120;
  window.trace_id = 0xABCDEF;
  window.keyframe = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
  const std::vector<std::uint8_t> seeds[] = {
      encode_hello(reference_hello()), encode_window(window),
      encode_end_of_stream({3, 1000, 7}),
      encode_telemetry(reference_telemetry())};

  for (std::uint64_t i = 0; i < 4000; ++i) {
    Rng rng(i + 1);
    const auto mutated = mutate_bytes(seeds[i % 4], rng);
    EXPECT_TRUE(rejects_or_round_trips(mutated, decode_hello, encode_hello))
        << "mutation " << i;
    EXPECT_TRUE(rejects_or_round_trips(mutated, decode_window, encode_window))
        << "mutation " << i;
    EXPECT_TRUE(rejects_or_round_trips(mutated, decode_end_of_stream,
                                       encode_end_of_stream))
        << "mutation " << i;
    EXPECT_TRUE(rejects_or_round_trips(mutated, decode_telemetry,
                                       encode_telemetry))
        << "mutation " << i;
    if (::testing::Test::HasFailure()) return;  // one reproducer is enough
  }
}

}  // namespace
}  // namespace ccg::dist
