// Differential and mutation test of the flow-CSV reader (read_csv /
// from_csv) against a reference reader: std::getline, an RFC 4180 line
// splitter and the Table-2 field rules, composed the simple way. Every
// input here, valid or mangled, must give the same records and the same
// dropped count from both. Inputs come from fixed seeds, so a failure
// reproduces exactly; the suite also runs under the ASan/UBSan build.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ccg/common/rng.hpp"
#include "ccg/telemetry/serialize.hpp"

namespace ccg {
namespace {

// --- reference reader -----------------------------------------------------------

/// RFC 4180 field split; only a trailing CR (a CRLF line end) is dropped.
std::vector<std::string> ref_split(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r' || i + 1 != line.size()) {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

template <typename T>
bool ref_number(const std::string& s, T& v) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

std::optional<ConnectionSummary> ref_parse(std::string_view line) {
  const auto f = ref_split(line);
  if (f.size() != 11) return std::nullopt;
  std::int64_t time = 0;
  std::uint64_t v[11] = {};
  if (!ref_number(f[0], time)) return std::nullopt;
  for (int i : {1, 3, 5, 6, 7, 8, 9, 10}) {
    if (!ref_number(f[i], v[i])) return std::nullopt;
  }
  const auto local_ip = IpAddr::parse(f[2]);
  const auto remote_ip = IpAddr::parse(f[4]);
  if (!local_ip || !remote_ip) return std::nullopt;
  if (v[3] > 0xFFFF || v[5] > 0xFFFF) return std::nullopt;
  if (v[1] != 1 && v[1] != 6 && v[1] != 17) return std::nullopt;
  if (v[10] > 2) return std::nullopt;
  return ConnectionSummary{
      .time = MinuteBucket(time),
      .flow = FlowKey{.local_ip = *local_ip,
                      .local_port = static_cast<std::uint16_t>(v[3]),
                      .remote_ip = *remote_ip,
                      .remote_port = static_cast<std::uint16_t>(v[5]),
                      .protocol = static_cast<Protocol>(v[1])},
      .counters = TrafficCounters{.packets_sent = v[6],
                                  .packets_rcvd = v[7],
                                  .bytes_sent = v[8],
                                  .bytes_rcvd = v[9]},
      .initiator = static_cast<Initiator>(v[10])};
}

struct Read {
  std::vector<ConnectionSummary> records;
  std::size_t dropped = 0;
};

Read ref_read(std::istream& in) {
  Read r;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (first && line.rfind("time_minute", 0) == 0) {
      first = false;
      continue;
    }
    first = false;
    if (line.empty()) continue;
    if (auto rec = ref_parse(line)) {
      r.records.push_back(*rec);
    } else {
      ++r.dropped;
    }
  }
  return r;
}

// --- inputs ---------------------------------------------------------------------

/// Printable form of an input for failure messages (long inputs clipped).
std::string shown(std::string_view text) {
  std::string out;
  for (char c : text.substr(0, 240)) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) > 0x7e) {
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    } else {
      out.push_back(c);
    }
  }
  if (text.size() > 240) out += "...(" + std::to_string(text.size()) + " bytes)";
  return out;
}

ConnectionSummary random_record(Rng& rng) {
  static const Protocol kProtos[] = {Protocol::kTcp, Protocol::kUdp, Protocol::kIcmp};
  // Mix small values (short rows) with full-width ones (long numbers).
  auto counter = [&] { return rng.chance(0.5) ? rng.uniform(100) : rng.next(); };
  return ConnectionSummary{
      .time = MinuteBucket(rng.chance(0.1) ? -static_cast<std::int64_t>(rng.uniform(1000))
                                           : static_cast<std::int64_t>(rng.uniform(100000))),
      .flow = FlowKey{.local_ip = IpAddr(static_cast<std::uint32_t>(rng.next())),
                      .local_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                      .remote_ip = IpAddr(static_cast<std::uint32_t>(rng.next())),
                      .remote_port = static_cast<std::uint16_t>(rng.uniform(65536)),
                      .protocol = kProtos[rng.uniform(3)]},
      .counters = TrafficCounters{.packets_sent = counter(),
                                  .packets_rcvd = counter(),
                                  .bytes_sent = counter(),
                                  .bytes_rcvd = counter()},
      .initiator = static_cast<Initiator>(rng.uniform(3))};
}

/// Header plus `rows` valid rows, some CRLF-terminated.
std::string corpus(Rng& rng, std::size_t rows) {
  std::string text = csv_header() + "\n";
  for (std::size_t i = 0; i < rows; ++i) {
    text += to_csv(random_record(rng));
    text += rng.chance(0.2) ? "\r\n" : "\n";
  }
  return text;
}

/// A streambuf that hands out its bytes in small pieces and cannot seek,
/// like a pipe; after `throw_at` bytes it throws, like a failing read.
class PipeBuf : public std::streambuf {
 public:
  PipeBuf(std::string data, std::size_t piece, std::size_t throw_at = std::string::npos)
      : data_(std::move(data)), piece_(piece), throw_at_(throw_at) {}

 protected:
  int_type underflow() override {
    if (pos_ >= throw_at_) throw std::runtime_error("read error");
    if (pos_ >= data_.size()) return traits_type::eof();
    const std::size_t n = std::min({piece_, data_.size() - pos_, throw_at_ - pos_});
    char* begin = data_.data() + pos_;
    setg(begin, begin, begin + n);
    pos_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string data_;
  std::size_t piece_;
  std::size_t throw_at_;
  std::size_t pos_ = 0;
};

/// read_csv on `text` (seekable) must equal the reference, leave the stream
/// at EOF with failbit, and fit the up-front reservation exactly.
void expect_same(const std::string& text) {
  SCOPED_TRACE(shown(text));
  std::istringstream ref_in(text);
  const Read want = ref_read(ref_in);
  std::istringstream in(text);
  std::size_t dropped = 0;
  const auto got = read_csv(in, &dropped);
  EXPECT_EQ(got.size(), want.records.size());
  EXPECT_TRUE(got == want.records);
  EXPECT_EQ(dropped, want.dropped);
  EXPECT_TRUE(in.eof());
  EXPECT_TRUE(in.fail());
  EXPECT_FALSE(in.bad());
  // The reservation bound (a valid row is >= 34 bytes with its newline)
  // holds: the vector never regrew past it.
  if (!text.empty()) {
    EXPECT_EQ(got.capacity(), text.size() / 34 + 1);
  }
}

void expect_same_line(std::string_view line) {
  EXPECT_EQ(from_csv(line), ref_parse(line)) << shown(line);
}

// --- cases ----------------------------------------------------------------------

TEST(FlowCsvReader, ValidCorporaMatchReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const std::string text = corpus(rng, 50);
    expect_same(text);
    std::istringstream in(text);
    EXPECT_EQ(read_csv(in).size(), 50u);
  }
}

TEST(FlowCsvReader, StreamShapes) {
  Rng rng(3);
  const std::string row = to_csv(random_record(rng));
  const std::string header = csv_header();
  for (const std::string& text : {
           std::string(),                                // empty stream
           header,                                       // header only, no newline
           header + "\n",                                // header only
           header + "\r\n",                              // CRLF header
           row,                                          // no trailing newline
           header + "\n" + row,                          // no trailing newline
           header + "\r\n" + row + "\r\n" + row + "\r\n",  // CRLF throughout
           row + "\r",                                   // CR-only end, no LF
           "\n" + header + "\n" + row + "\n",            // header not on line 1
           header + "\n" + header + "\n" + row + "\n",   // second header is a bad row
           "time_minute_junk\n" + row + "\n",            // any line-1 prefix match
           "\n\n" + row + "\n\n\r\n" + row,              // blank lines (and a lone CR)
           std::string("\n"),
           std::string("\r\n"),
           std::string(1, '\0') + "\n" + row,
       }) {
    expect_same(text);
  }
}

TEST(FlowCsvReader, FieldEdgeCasesMatchReference) {
  const std::string head = "7,6,10.0.0.1,";
  const std::string tail = ",10.0.0.2,443,1,2,3,4,1";
  // Port field (u64, then <= 65535), time field (i64), counters (u64).
  for (const char* port : {"0", "65535", "65536", "007", "+5", "-5", "-0", "", " 5", "5 ",
                           "0x10", "1e3", "5.0", "\"5\"", "\"5", "5\"\"", "1\"2\"3",
                           "\"1,2\"", "\"1\r\"", "1\r2", "1\r", "\r1",
                           "00000000000000000000000000080"}) {
    expect_same_line(head + port + tail);
  }
  const std::string after_time = ",6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0";
  for (const char* time : {"0", "-0", "-", "+1", "--1", "-12", "999999999999999999",
                           "-999999999999999999", "1000000000000000000",
                           "9223372036854775807", "-9223372036854775808",
                           "9223372036854775808", "-9223372036854775809",
                           "0000000000000000000000001", "-0000000000000000000000001",
                           "\"-5\"", "1-"}) {
    expect_same_line(time + after_time);
  }
  const std::string before_counter = "0,6,10.0.0.1,1,10.0.0.2,2,1,1,";
  for (const char* counter : {"9999999999999999999", "18446744073709551615",
                              "18446744073709551616", "99999999999999999999",
                              "184467440737095516150", "-1", "+1",
                              "00000000000000000000000000000000000009"}) {
    expect_same_line(before_counter + counter + ",1,0");
  }
  for (const char* ip : {"0.0.0.0", "255.255.255.255", "256.0.0.1", "1.2.3", "1.2.3.4.5",
                         "01.002.003.004", "0001.2.3.4", "1..2.3", ".1.2.3", "1.2.3.",
                         "1.2.3.4 ", "\"1.2.3.4\"", "1.2.\"3\".4", "-1.2.3.4", "1.2.3.999"}) {
    expect_same_line(std::string("0,6,") + ip + ",1,10.0.0.2,2,1,1,1,1,0");
  }
  for (const char* whole : {"", ",", ",,,,,,,,,,", "0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0,",
                            "0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0\r",
                            "0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0\r\r",
                            "0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0\n",
                            "\"0\",\"6\",\"10.0.0.1\",\"1\",\"10.0.0.2\",\"2\",\"1\",\"1\","
                            "\"1\",\"1\",\"0\"",
                            "0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,\"0"}) {
    expect_same_line(whole);
  }
}

TEST(FlowCsvReader, QuoteWrappedFieldsMatchReference) {
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const std::string row = to_csv(random_record(rng));
    std::string mangled;
    std::size_t start = 0;
    while (start <= row.size()) {
      std::size_t comma = row.find(',', start);
      if (comma == std::string::npos) comma = row.size();
      const std::string field = row.substr(start, comma - start);
      switch (rng.uniform(5)) {
        case 0: mangled += "\"" + field + "\""; break;           // quoted
        case 1: mangled += "\"" + field + "\"\"\""; break;       // escaped quote
        case 2: mangled += field.substr(0, 1) + "\"\"" + field.substr(1); break;
        default: mangled += field;
      }
      if (comma < row.size()) mangled.push_back(',');
      start = comma + 1;
    }
    expect_same_line(mangled);
    expect_same(mangled + "\n" + row + "\n");
  }
}

TEST(FlowCsvReader, SeededMutationsMatchReference) {
  static const char kBytes[] = "0123456789,.\"\r\n-+ x\0\xff";
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    Rng rng(seed);
    std::string text = corpus(rng, 6);
    const std::uint64_t edits = 1 + rng.uniform(4);
    for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.uniform(text.size());
      const char byte = rng.chance(0.2) ? static_cast<char>(rng.uniform(256))
                                        : kBytes[rng.uniform(sizeof(kBytes) - 1)];
      switch (rng.uniform(3)) {
        case 0: text[at] = byte; break;
        case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte); break;
        default: text.erase(at, 1);
      }
    }
    expect_same(text);
    if (::testing::Test::HasFailure()) return;  // one reproducer is enough
  }
}

TEST(FlowCsvReader, EveryTruncationMatchesReference) {
  Rng rng(5);
  std::string text = csv_header() + "\r\n";
  for (int i = 0; i < 4; ++i) text += to_csv(random_record(rng)) + (i == 1 ? "\r\n" : "\n");
  text += "\"1\",6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0\n";
  for (std::size_t len = 0; len <= text.size(); ++len) expect_same(text.substr(0, len));
}

TEST(FlowCsvReader, RowsStraddlingTheReadBlockEdge) {
  constexpr std::size_t kBlock = std::size_t{1} << 20;  // read_csv's block size
  Rng rng(17);
  std::string bulk = csv_header() + "\n";
  while (bulk.size() < kBlock - 400) bulk += to_csv(random_record(rng)) + "\n";
  const std::string row = to_csv(random_record(rng));
  const std::size_t len = row.size();
  // Start "row\r\n" at offsets that put the block edge after its LF, on
  // its LF, on its CR, on its last byte, inside it, on its first byte and
  // just before it; blank lines pad up to the start.
  for (const std::size_t start : {kBlock - len - 3, kBlock - len - 2, kBlock - len - 1,
                                  kBlock - len, kBlock - len + 1, kBlock - len / 2,
                                  kBlock - 1, kBlock, kBlock + 1}) {
    std::string text = bulk + std::string(start - bulk.size(), '\n');
    text += row + "\r\n" + row + "\n";
    expect_same(text);
  }
  // A line longer than the block grows the carry buffer.
  std::string text = bulk + std::string(3 * kBlock, '7') + "\n" + row + "\n";
  expect_same(text);
}

TEST(FlowCsvReader, NonSeekableStreamMatchesReference) {
  Rng rng(23);
  std::string text = corpus(rng, 25000);  // > 1 MiB: several blocks
  text += "0,6,10.0.0.1,1\r2,10.0.0.2,2,1,1,1,1,0";  // inner CR, no newline
  std::istringstream ref_in(text);
  const Read want = ref_read(ref_in);
  for (std::size_t piece : {1u, 7u, 4096u, 1u << 20}) {
    PipeBuf buf(text, piece);
    std::istream in(&buf);
    std::size_t dropped = 0;
    const auto got = read_csv(in, &dropped);
    EXPECT_EQ(got.size(), 25000u);
    EXPECT_TRUE(got == want.records) << "piece " << piece;
    EXPECT_EQ(dropped, want.dropped);
    EXPECT_TRUE(in.eof() && in.fail() && !in.bad());
  }
}

TEST(FlowCsvReader, ReadsFromTheCurrentPosition) {
  Rng rng(29);
  const std::string text = corpus(rng, 40);
  std::istringstream ref_in(text);
  std::istringstream in(text);
  std::string skipped;
  std::getline(ref_in, skipped);
  std::getline(in, skipped);
  std::getline(ref_in, skipped);  // one data row, so the header is gone
  std::getline(in, skipped);
  const Read want = ref_read(ref_in);
  const std::size_t remaining = text.size() - static_cast<std::size_t>(in.tellg());
  std::size_t dropped = 0;
  const auto got = read_csv(in, &dropped);
  EXPECT_EQ(got, want.records);
  EXPECT_EQ(got.size(), 39u);
  EXPECT_EQ(dropped, want.dropped);
  EXPECT_EQ(got.capacity(), remaining / 34 + 1);
}

/// A seekable streambuf whose end lies far beyond its data, as a
/// directory's does.
class BogusLengthBuf : public std::stringbuf {
 public:
  using std::stringbuf::stringbuf;

 protected:
  pos_type seekoff(off_type off, std::ios::seekdir dir, std::ios::openmode which) override {
    if (dir == std::ios::end) return pos_type(std::numeric_limits<off_type>::max());
    return std::stringbuf::seekoff(off, dir, which);
  }
};

TEST(FlowCsvReader, LengthNoVectorCanHoldSkipsTheReservation) {
  Rng rng(37);
  const std::string text = corpus(rng, 40);
  BogusLengthBuf buf(text, std::ios::in);
  std::istream in(&buf);
  std::size_t dropped = 0;
  std::vector<ConnectionSummary> got;
  EXPECT_NO_THROW(got = read_csv(in, &dropped));
  std::istringstream ref_in(text);
  EXPECT_TRUE(got == ref_read(ref_in).records);
  EXPECT_EQ(got.size(), 40u);
}

TEST(FlowCsvReader, DirectoryReadsNothing) {
  std::ifstream in(std::filesystem::temp_directory_path());
  ASSERT_TRUE(in.is_open());
  std::size_t dropped = 0;
  std::vector<ConnectionSummary> got;
  EXPECT_NO_THROW(got = read_csv(in, &dropped));
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(dropped, 0u);
  EXPECT_TRUE(in.bad());
}

TEST(FlowCsvReader, StreamNotGoodReadsNothing) {
  std::istringstream in("0,6,10.0.0.1,1,10.0.0.2,2,1,1,1,1,0\n");
  in.setstate(std::ios::failbit);
  std::size_t dropped = 7;
  EXPECT_TRUE(read_csv(in, &dropped).empty());
  EXPECT_EQ(dropped, 0u);
  EXPECT_TRUE(in.fail());
  EXPECT_FALSE(in.eof());
}

TEST(FlowCsvReader, ThrowingStreambufSetsBadbit) {
  Rng rng(31);
  const std::string text = corpus(rng, 30000);  // ~2 MiB
  // The error strikes in the second block, with a cut line carried over.
  PipeBuf buf(text, 4096, (std::size_t{1} << 20) + 1000);
  std::istream in(&buf);
  std::size_t dropped = 0;
  std::vector<ConnectionSummary> got;
  EXPECT_NO_THROW(got = read_csv(in, &dropped));
  EXPECT_TRUE(in.bad());
  EXPECT_FALSE(in.eof());
  EXPECT_GT(got.size(), 0u);
  EXPECT_LT(got.size(), 30000u);
  EXPECT_EQ(dropped, 0u);  // the line cut by the error is not parsed
}

}  // namespace
}  // namespace ccg
