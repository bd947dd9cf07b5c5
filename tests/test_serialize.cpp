#include "ccg/telemetry/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ccg/common/rng.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"

namespace ccg {
namespace {

ConnectionSummary sample_record() {
  return ConnectionSummary{
      .time = MinuteBucket(125),
      .flow = FlowKey{.local_ip = *IpAddr::parse("10.0.1.5"),
                      .local_port = 44123,
                      .remote_ip = *IpAddr::parse("10.0.2.9"),
                      .remote_port = 443,
                      .protocol = Protocol::kTcp},
      .counters = TrafficCounters{.packets_sent = 12, .packets_rcvd = 20,
                                  .bytes_sent = 3400, .bytes_rcvd = 128000}};
}

std::vector<ConnectionSummary> random_batch(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ConnectionSummary> batch;
  std::int64_t minute = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.1)) ++minute;
    const Protocol proto = rng.chance(0.8)   ? Protocol::kTcp
                           : rng.chance(0.5) ? Protocol::kUdp
                                             : Protocol::kIcmp;
    batch.push_back(ConnectionSummary{
        .time = MinuteBucket(minute),
        .flow = FlowKey{.local_ip = IpAddr(static_cast<std::uint32_t>(rng.next())),
                        .local_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                        .remote_ip = IpAddr(static_cast<std::uint32_t>(rng.next())),
                        .remote_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                        .protocol = proto},
        .counters = TrafficCounters{.packets_sent = rng.uniform(1 << 20),
                                    .packets_rcvd = rng.uniform(1 << 20),
                                    .bytes_sent = rng.next() % (1ull << 40),
                                    .bytes_rcvd = rng.next() % (1ull << 40)},
        .initiator = static_cast<Initiator>(rng.uniform(3))});
  }
  return batch;
}

TEST(CsvSerialize, RoundTripsSingleRecord) {
  const auto rec = sample_record();
  const auto parsed = from_csv(to_csv(rec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, rec);
}

TEST(CsvSerialize, HeaderMatchesTable2Schema) {
  const std::string header = csv_header();
  for (const char* column :
       {"time_minute", "local_ip", "local_port", "remote_ip", "remote_port",
        "packets_sent", "packets_rcvd", "bytes_sent", "bytes_rcvd",
        "initiator"}) {
    EXPECT_NE(header.find(column), std::string::npos) << column;
  }
}

TEST(CsvSerialize, RejectsMalformedRows) {
  EXPECT_FALSE(from_csv("").has_value());
  EXPECT_FALSE(from_csv("1,2,3").has_value());
  // Sanity: this well-formed row parses...
  EXPECT_TRUE(from_csv("0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0").has_value());
  // ...and each corruption is rejected.
  EXPECT_FALSE(from_csv("x,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0").has_value());
  EXPECT_FALSE(from_csv("0,6,999.0.0.1,1,10.0.0.2,2,1,1,1,1,0").has_value());
  EXPECT_FALSE(from_csv("0,6,10.0.0.1,70000,10.0.0.2,2,1,1,1,1,0").has_value());
  EXPECT_FALSE(from_csv("0,5,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0").has_value());  // bad proto
  EXPECT_FALSE(from_csv("0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,-5,0").has_value());
  EXPECT_FALSE(from_csv("0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,3").has_value());  // bad initiator
  EXPECT_FALSE(from_csv("0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1").has_value());  // missing field
}

TEST(CsvSerialize, StreamRoundTripWithHeaderAndBadRows) {
  const auto batch = random_batch(200, 5);
  std::ostringstream out;
  write_csv(out, batch);
  std::string text = out.str();
  text += "this,is,not,a,record\n";

  std::istringstream in(text);
  std::size_t dropped = 0;
  const auto parsed = read_csv(in, &dropped);
  EXPECT_EQ(parsed, batch);
  EXPECT_EQ(dropped, 1u);
}

TEST(CsvSerialize, TrailingCrEndsTheLineInnerCrRejectsTheRow) {
  const std::string row = "0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0";
  const std::string inner_cr = "0,6,10.0.0.1,1\r2,10.0.0.2,2,1,1,1,1,0";
  ASSERT_TRUE(from_csv(row + "\r").has_value());
  EXPECT_EQ(from_csv(row + "\r"), from_csv(row));
  EXPECT_FALSE(from_csv(inner_cr).has_value());  // not port 12

  std::istringstream in(csv_header() + "\r\n" + row + "\r\n" + inner_cr + "\r\n");
  std::size_t dropped = 0;
  const auto parsed = read_csv(in, &dropped);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].flow.local_port, 1);
  EXPECT_EQ(dropped, 1u);
}

TEST(CsvSerialize, ReadCsvCountsRowsDroppedRowsAndBytes) {
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& rows = registry.counter("ccg.telemetry.read_csv.rows");
  obs::Counter& dropped_rows = registry.counter("ccg.telemetry.read_csv.rows_dropped");
  obs::Counter& bytes = registry.counter("ccg.telemetry.read_csv.bytes");
  obs::Histogram& span = obs::span_histogram("ccg.telemetry.read_csv");
  const std::uint64_t rows0 = rows.value();
  const std::uint64_t dropped0 = dropped_rows.value();
  const std::uint64_t bytes0 = bytes.value();
  const std::uint64_t spans0 = span.count();

  std::ostringstream out;
  write_csv(out, random_batch(3, 9));
  const std::string text = out.str() + "\nnot,a,row\n0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,9\n";
  std::istringstream in(text);
  std::size_t dropped = 0;
  EXPECT_EQ(read_csv(in, &dropped).size(), 3u);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(rows.value() - rows0, 3u);
  EXPECT_EQ(dropped_rows.value() - dropped0, 2u);
  EXPECT_EQ(bytes.value() - bytes0, text.size());
  EXPECT_EQ(span.count() - spans0, 1u);
}

}  // namespace
}  // namespace ccg
