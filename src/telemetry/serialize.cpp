#include "ccg/telemetry/serialize.hpp"

#include <charconv>
#include <cstring>

#include "ccg/common/csv.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/span.hpp"

namespace ccg {

namespace {

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// The 11 Table-2 fields of one CSV row, before range checks.
struct CsvRow {
  std::int64_t time = 0;
  std::uint64_t proto = 0;
  IpAddr local_ip;
  std::uint64_t local_port = 0;
  IpAddr remote_ip;
  std::uint64_t remote_port = 0;
  std::uint64_t ps = 0, pr = 0, bs = 0, br = 0;
  std::uint64_t init = 0;
};

/// General path: RFC 4180 split, then each field must be wholly a number
/// (time may carry a '-') or a dotted quad.
bool split_row(std::string_view line, CsvRow& row) {
  const auto fields = parse_csv_line(line);
  if (fields.size() != 11) return false;
  const std::string& t = fields[0];
  std::int64_t time = 0;
  auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), time);
  if (ec != std::errc{} || ptr != t.data() + t.size()) return false;
  auto proto = parse_u64(fields[1]);
  auto local_ip = IpAddr::parse(fields[2]);
  auto local_port = parse_u64(fields[3]);
  auto remote_ip = IpAddr::parse(fields[4]);
  auto remote_port = parse_u64(fields[5]);
  auto ps = parse_u64(fields[6]);
  auto pr = parse_u64(fields[7]);
  auto bs = parse_u64(fields[8]);
  auto br = parse_u64(fields[9]);
  auto init = parse_u64(fields[10]);
  if (!proto || !local_ip || !local_port || !remote_ip || !remote_port ||
      !ps || !pr || !bs || !br || !init) {
    return false;
  }
  row = CsvRow{time, *proto, *local_ip, *local_port, *remote_ip,
               *remote_port, *ps, *pr, *bs, *br, *init};
  return true;
}

/// Consumes the maximal run of decimal digits at p. Fails on an empty run
/// or one longer than max_digits (19 always fits a u64, 18 an i64).
bool scan_digits(const char*& p, const char* end, int max_digits,
                 std::uint64_t& v) {
  const char* const start = p;
  std::uint64_t acc = 0;
  for (; p != end; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) break;
    acc = acc * 10 + d;  // may wrap past max_digits; rejected below
  }
  if (p == start || p - start > max_digits) return false;
  v = acc;
  return true;
}

bool scan_ip(const char*& p, const char* end, IpAddr& ip) {
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0 && (p == end || *p++ != '.')) return false;
    std::uint64_t octet = 0;
    if (!scan_digits(p, end, 3, octet) || octet > 255) return false;
    bits = (bits << 8) | static_cast<std::uint32_t>(octet);
  }
  ip = IpAddr(bits);
  return true;
}

/// Fast path: parses the row while scanning it once, accepting only
/// digits, an optional '-' on time, dotted quads and single commas. Any
/// other byte (quote, CR, '+', space), a missing or extra field, or a
/// number too long to be sure it fits makes it fail, and from_csv falls
/// back to split_row. So a success means the line is quote- and CR-free,
/// parse_csv_line would split it into exactly these 11 fields, and
/// from_chars / IpAddr::parse would read the same values from them.
bool scan_row(std::string_view line, CsvRow& row) {
  const char* p = line.data();
  const char* const end = p + line.size();
  auto comma = [&] { return p != end && *p++ == ','; };
  const bool negative = p != end && *p == '-';
  if (negative) ++p;
  std::uint64_t time = 0;
  if (!scan_digits(p, end, 18, time)) return false;
  row.time = negative ? -static_cast<std::int64_t>(time)
                      : static_cast<std::int64_t>(time);
  return comma() && scan_digits(p, end, 19, row.proto) &&
         comma() && scan_ip(p, end, row.local_ip) &&
         comma() && scan_digits(p, end, 19, row.local_port) &&
         comma() && scan_ip(p, end, row.remote_ip) &&
         comma() && scan_digits(p, end, 19, row.remote_port) &&
         comma() && scan_digits(p, end, 19, row.ps) &&
         comma() && scan_digits(p, end, 19, row.pr) &&
         comma() && scan_digits(p, end, 19, row.bs) &&
         comma() && scan_digits(p, end, 19, row.br) &&
         comma() && scan_digits(p, end, 19, row.init) && p == end;
}

/// read_csv's read size, and the shortest valid row with its newline:
/// "0,1,0.0.0.0,0,0.0.0.0,0,0,0,0,0,0\n" is 34 bytes.
constexpr std::size_t kReadBlockBytes = std::size_t{1} << 20;
constexpr std::uint64_t kMinRowBytes = 34;

/// Bytes between the get position and the end of a seekable streambuf;
/// 0 when it cannot seek (a pipe). The position is restored.
std::uint64_t bytes_left(std::streambuf& sb) {
  const std::streampos failed(std::streamoff(-1));
  const std::streampos here = sb.pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == failed) return 0;
  const std::streampos end = sb.pubseekoff(0, std::ios::end, std::ios::in);
  sb.pubseekpos(here, std::ios::in);
  if (end == failed || end < here) return 0;
  return static_cast<std::uint64_t>(end - here);
}

/// sgetn from the stream's buffer. A throwing streambuf (a read error, or a
/// directory opened as a file) ends the input and sets badbit, as
/// istream's own reads do.
std::streamsize read_block(std::istream& in, char* dst, std::streamsize n) {
  try {
    return in.rdbuf()->sgetn(dst, n);
  } catch (...) {
    in.setstate(std::ios::badbit);
    return 0;
  }
}

}  // namespace

std::string csv_header() {
  return "time_minute,protocol,local_ip,local_port,remote_ip,remote_port,"
         "packets_sent,packets_rcvd,bytes_sent,bytes_rcvd,initiator";
}

std::string to_csv(const ConnectionSummary& rec) {
  std::string out;
  out.reserve(96);
  out += std::to_string(rec.time.index());
  out.push_back(',');
  out += std::to_string(static_cast<int>(rec.flow.protocol));
  out.push_back(',');
  out += rec.flow.local_ip.to_string();
  out.push_back(',');
  out += std::to_string(rec.flow.local_port);
  out.push_back(',');
  out += rec.flow.remote_ip.to_string();
  out.push_back(',');
  out += std::to_string(rec.flow.remote_port);
  out.push_back(',');
  out += std::to_string(rec.counters.packets_sent);
  out.push_back(',');
  out += std::to_string(rec.counters.packets_rcvd);
  out.push_back(',');
  out += std::to_string(rec.counters.bytes_sent);
  out.push_back(',');
  out += std::to_string(rec.counters.bytes_rcvd);
  out.push_back(',');
  out += std::to_string(static_cast<int>(rec.initiator));
  return out;
}

std::optional<ConnectionSummary> from_csv(std::string_view line) {
  CsvRow row;
  if (!scan_row(line, row) && !split_row(line, row)) return std::nullopt;
  if (row.local_port > 0xFFFF || row.remote_port > 0xFFFF) return std::nullopt;
  if (row.proto != 1 && row.proto != 6 && row.proto != 17) return std::nullopt;
  if (row.init > 2) return std::nullopt;

  return ConnectionSummary{
      .time = MinuteBucket(row.time),
      .flow = FlowKey{.local_ip = row.local_ip,
                      .local_port = static_cast<std::uint16_t>(row.local_port),
                      .remote_ip = row.remote_ip,
                      .remote_port = static_cast<std::uint16_t>(row.remote_port),
                      .protocol = static_cast<Protocol>(row.proto)},
      .counters = TrafficCounters{.packets_sent = row.ps,
                                  .packets_rcvd = row.pr,
                                  .bytes_sent = row.bs,
                                  .bytes_rcvd = row.br},
      .initiator = static_cast<Initiator>(row.init)};
}

void write_csv(std::ostream& out, const std::vector<ConnectionSummary>& batch) {
  out << csv_header() << '\n';
  for (const auto& rec : batch) out << to_csv(rec) << '\n';
}

std::vector<ConnectionSummary> read_csv(std::istream& in, std::size_t* dropped) {
  CCG_OBS_SPAN("ccg.telemetry.read_csv");
  static obs::Counter& m_rows =
      obs::Registry::global().counter("ccg.telemetry.read_csv.rows");
  static obs::Counter& m_dropped =
      obs::Registry::global().counter("ccg.telemetry.read_csv.rows_dropped");
  static obs::Counter& m_bytes =
      obs::Registry::global().counter("ccg.telemetry.read_csv.bytes");

  std::vector<ConnectionSummary> out;
  std::size_t bad = 0;
  std::uint64_t bytes = 0;
  bool first = true;
  auto take = [&](std::string_view line) {
    if (first) {
      first = false;
      if (line.starts_with("time_minute")) return;  // header
    }
    if (line.empty()) return;
    if (auto rec = from_csv(line)) {
      out.push_back(*rec);
    } else {
      ++bad;
    }
  };

  // getline's rules, a block at a time: lines end at '\n', the last one
  // may lack it, and the stream is left with eofbit and failbit set.
  const std::istream::sentry ok(in, /*noskipws=*/true);
  if (ok) {
    // A length no vector can hold (a directory seeks to 2^63 - 1) only
    // means no reservation; the read itself then fails with badbit.
    if (const std::uint64_t left = bytes_left(*in.rdbuf());
        left > 0 && left / kMinRowBytes < out.max_size()) {
      out.reserve(left / kMinRowBytes + 1);
    }
    std::vector<char> buf(kReadBlockBytes);
    std::size_t held = 0;  // unfinished line carried at the front of buf
    for (;;) {
      if (held == buf.size()) buf.resize(2 * buf.size());  // line > buffer
      const auto want = static_cast<std::streamsize>(buf.size() - held);
      const std::streamsize got = read_block(in, buf.data() + held, want);
      bytes += static_cast<std::uint64_t>(got);
      const char* line = buf.data();
      const char* const end = buf.data() + held + got;
      const char* nl = buf.data() + held;  // the carried bytes hold no '\n'
      while ((nl = static_cast<const char*>(
                  std::memchr(nl, '\n', static_cast<std::size_t>(end - nl))))) {
        take(std::string_view(line, static_cast<std::size_t>(nl - line)));
        line = ++nl;
      }
      held = static_cast<std::size_t>(end - line);
      std::memmove(buf.data(), line, held);
      if (got < want) break;  // sgetn comes up short only at end of input
    }
    if (in.bad()) {
      in.setstate(std::ios::failbit);
    } else {
      if (held > 0) take(std::string_view(buf.data(), held));
      in.setstate(std::ios::eofbit | std::ios::failbit);
    }
  }

  m_rows.add(out.size());
  m_dropped.add(bad);
  m_bytes.add(bytes);
  if (dropped != nullptr) *dropped = bad;
  return out;
}

}  // namespace ccg
