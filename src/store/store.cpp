#include "ccg/store/store.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <unordered_map>

#include "ccg/obs/log.hpp"
#include "ccg/obs/span.hpp"

namespace fs = std::filesystem;

namespace ccg::store {

namespace {

constexpr char kSegmentMagic[8] = {'C', 'C', 'G', 'S', 'E', 'G', '1', '\n'};
constexpr const char* kIndexName = "index.ccgx";
constexpr const char* kIndexMagic = "ccgidx-v1";
/// Hard cap on one frame's payload; anything larger is treated as corrupt.
constexpr std::uint64_t kMaxPayload = 1ull << 30;

std::string segment_name(std::uint32_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06u.ccgs", id);
  return buf;
}

fs::path segment_path(const std::string& dir, std::uint32_t id) {
  return fs::path(dir) / segment_name(id);
}

void put_u32_le(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF)};
  out.write(bytes, 4);
}

std::optional<std::uint32_t> get_u32_le(std::istream& in) {
  unsigned char bytes[4];
  if (!in.read(reinterpret_cast<char*>(bytes), 4)) return std::nullopt;
  return std::uint32_t{bytes[0]} | (std::uint32_t{bytes[1]} << 8) |
         (std::uint32_t{bytes[2]} << 16) | (std::uint32_t{bytes[3]} << 24);
}

/// Segment ids present in `dir`, ascending.
std::vector<std::uint32_t> list_segments(const std::string& dir) {
  std::vector<std::uint32_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned id = 0;
    if (std::sscanf(name.c_str(), "seg-%06u.ccgs", &id) == 1 &&
        name == segment_name(id)) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::uint64_t file_size_or_zero(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

std::uint64_t disk_usage(const std::string& dir) {
  std::uint64_t total = file_size_or_zero(fs::path(dir) / kIndexName);
  for (const std::uint32_t id : list_segments(dir)) {
    total += file_size_or_zero(segment_path(dir, id));
  }
  return total;
}

/// Reads and CRC-validates the framed payload at `offset`.
std::optional<std::vector<std::uint8_t>> read_frame(std::istream& in,
                                                    std::uint64_t offset) {
  in.clear();
  in.seekg(static_cast<std::streamoff>(offset));
  const auto len = get_u32_le(in);
  if (!len || *len == 0 || *len > kMaxPayload) return std::nullopt;
  std::vector<std::uint8_t> payload(*len);
  if (!in.read(reinterpret_cast<char*>(payload.data()),
               static_cast<std::streamsize>(payload.size()))) {
    return std::nullopt;
  }
  const auto crc = get_u32_le(in);
  if (!crc || *crc != crc32(payload)) return std::nullopt;
  return payload;
}

/// Scans every segment, CRC-validating frames, and returns the index the
/// files actually contain. A corrupt or truncated tail ends that segment's
/// scan; later segments still load (reopened writers never touch old
/// segments, so their frames are independent chains).
std::vector<IndexEntry> scan_segments(const std::string& dir) {
  std::vector<IndexEntry> entries;
  for (const std::uint32_t id : list_segments(dir)) {
    std::ifstream in(segment_path(dir, id), std::ios::binary);
    char magic[8];
    if (!in.read(magic, 8) || std::memcmp(magic, kSegmentMagic, 8) != 0) {
      continue;
    }
    std::uint64_t offset = 8;
    while (true) {
      const auto payload = read_frame(in, offset);
      if (!payload) break;
      const auto header = peek_frame(*payload);
      if (!header) break;
      // Frames must keep the append-order invariant even across segments;
      // drop anything that violates it rather than serving bad ranges.
      if (!entries.empty() &&
          header->window_begin <= entries.back().window_begin) {
        break;
      }
      entries.push_back({header->window_begin, header->window_len, id, offset,
                         8 + payload->size(), header->kind});
      offset += 8 + payload->size();
    }
  }
  return entries;
}

std::optional<std::vector<IndexEntry>> load_index(const std::string& dir) {
  std::ifstream in(fs::path(dir) / kIndexName);
  if (!in) return std::nullopt;
  std::string magic;
  std::size_t count = 0;
  if (!(in >> magic >> count) || magic != kIndexMagic) return std::nullopt;
  std::vector<IndexEntry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string tag, kind;
    IndexEntry e;
    if (!(in >> tag >> e.window_begin >> e.window_len >> e.segment >>
          e.offset >> e.length >> kind) ||
        tag != "f" || (kind != "k" && kind != "d")) {
      return std::nullopt;
    }
    e.kind = kind == "k" ? FrameKind::kKeyframe : FrameKind::kDelta;
    if (!entries.empty() && e.window_begin <= entries.back().window_begin) {
      return std::nullopt;
    }
    entries.push_back(e);
  }
  return entries;
}

/// An index is trustworthy iff it accounts for every byte of every segment
/// on disk; otherwise (crashed writer, stale cache) the caller rescans.
bool index_matches_segments(const std::string& dir,
                            const std::vector<IndexEntry>& entries) {
  std::unordered_map<std::uint32_t, std::uint64_t> extent;
  for (const auto& e : entries) {
    auto& end = extent[e.segment];
    if (e.offset + e.length > end) end = e.offset + e.length;
  }
  const auto ids = list_segments(dir);
  if (ids.size() != extent.size()) return false;
  for (const std::uint32_t id : ids) {
    const auto it = extent.find(id);
    if (it == extent.end() ||
        it->second != file_size_or_zero(segment_path(dir, id))) {
      return false;
    }
  }
  return true;
}

std::vector<IndexEntry> load_or_scan(const std::string& dir) {
  if (auto entries = load_index(dir)) {
    if (index_matches_segments(dir, *entries)) return std::move(*entries);
  }
  return scan_segments(dir);
}

StoreStats stats_of(const std::string& dir,
                    const std::vector<IndexEntry>& entries) {
  StoreStats s;
  s.windows = entries.size();
  for (const auto& e : entries) {
    ++(e.kind == FrameKind::kKeyframe ? s.keyframes : s.deltas);
  }
  s.segments = list_segments(dir).size();
  s.bytes_on_disk = disk_usage(dir);
  if (!entries.empty()) {
    s.first_window_begin = entries.front().window_begin;
    s.last_window_begin = entries.back().window_begin;
  }
  return s;
}

}  // namespace

std::string StoreStats::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu windows (%zu keyframes + %zu deltas) in %zu segments, "
                "%llu bytes on disk (%.0f bytes/window), span [%lld, %lld]",
                windows, keyframes, deltas, segments,
                static_cast<unsigned long long>(bytes_on_disk),
                bytes_per_window(), static_cast<long long>(first_window_begin),
                static_cast<long long>(last_window_begin));
  return buf;
}

// --- writer -----------------------------------------------------------------

StoreWriter::StoreWriter(std::string dir, WriterOptions options)
    : dir_(std::move(dir)), options_(options) {
  obs::Registry& registry = obs::Registry::global();
  m_append_ = &obs::span_histogram("ccg.store.append");
  m_keyframes_ = &registry.counter("ccg.store.frames.keyframe");
  m_deltas_ = &registry.counter("ccg.store.frames.delta");
  m_bytes_written_ = &registry.counter("ccg.store.bytes_written");
  m_bytes_on_disk_ = &registry.gauge("ccg.store.bytes_on_disk");
  m_windows_ = &registry.gauge("ccg.store.windows");
}

std::optional<StoreWriter> StoreWriter::open(const std::string& dir,
                                             WriterOptions options) {
  if (options.keyframe_interval == 0 || options.segment_bytes == 0) {
    return std::nullopt;
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return std::nullopt;

  StoreWriter writer(dir, options);
  writer.entries_ = load_or_scan(dir);
  const auto ids = list_segments(dir);
  writer.segment_id_ = ids.empty() ? 0 : ids.back() + 1;
  for (const std::uint32_t id : ids) {
    writer.prior_bytes_ += file_size_or_zero(segment_path(dir, id));
  }
  return writer;
}

StoreWriter::~StoreWriter() {
  if (!closed_ && !dir_.empty()) close();
}

bool StoreWriter::roll_segment() {
  if (segment_) segment_->flush();
  prior_bytes_ += segment_offset_;
  segment_ = std::make_unique<std::ofstream>(segment_path(dir_, segment_id_),
                                             std::ios::binary);
  if (!*segment_) return false;
  segment_->write(kSegmentMagic, sizeof(kSegmentMagic));
  segment_offset_ = sizeof(kSegmentMagic);
  return static_cast<bool>(*segment_);
}

bool StoreWriter::append(const CommGraph& graph) {
  if (closed_) {
    obs::log_warn("store append rejected: writer closed",
                  {obs::field("window_begin", graph.window().begin().index())});
    return false;
  }
  obs::ScopedSpan span(*m_append_, "ccg.store.append");

  const std::int64_t begin = graph.window().begin().index();
  if (!entries_.empty() && begin <= entries_.back().window_begin) {
    obs::log_warn("store append rejected: window out of order",
                  {obs::field("window_begin", begin),
                   obs::field("last_begin", entries_.back().window_begin)});
    return false;
  }

  // Segments roll (and therefore re-keyframe) at the size threshold; a
  // fresh session's first frame is always a keyframe because no base graph
  // is in memory.
  bool keyframe =
      !last_graph_ || frames_since_keyframe_ >= options_.keyframe_interval;
  if (!segment_ || segment_offset_ >= options_.segment_bytes) {
    keyframe = true;
    if (!segment_) {
      if (!roll_segment()) return false;
    } else {
      ++segment_id_;
      if (!roll_segment()) return false;
    }
  }

  const FrameKind kind = keyframe ? FrameKind::kKeyframe : FrameKind::kDelta;
  const std::vector<std::uint8_t> payload =
      encode_frame(kind, last_graph_ ? *last_graph_ : CommGraph{}, graph);

  const std::uint64_t offset = segment_offset_;
  put_u32_le(*segment_, static_cast<std::uint32_t>(payload.size()));
  segment_->write(reinterpret_cast<const char*>(payload.data()),
                  static_cast<std::streamsize>(payload.size()));
  put_u32_le(*segment_, crc32(payload));
  if (!*segment_) return false;

  const std::uint64_t framed = 8 + payload.size();
  segment_offset_ += framed;
  entries_.push_back({begin, graph.window().length(), segment_id_, offset,
                      framed, kind});
  frames_since_keyframe_ = keyframe ? 1 : frames_since_keyframe_ + 1;
  last_graph_ = graph;
  ++windows_appended_;

  (keyframe ? m_keyframes_ : m_deltas_)->add();
  m_bytes_written_->add(framed);
  m_bytes_on_disk_->set(static_cast<double>(prior_bytes_ + segment_offset_));
  m_windows_->set(static_cast<double>(entries_.size()));
  return true;
}

bool StoreWriter::write_index() const {
  const fs::path path = fs::path(dir_) / kIndexName;
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << kIndexMagic << ' ' << entries_.size() << '\n';
    for (const auto& e : entries_) {
      out << "f " << e.window_begin << ' ' << e.window_len << ' ' << e.segment
          << ' ' << e.offset << ' ' << e.length << ' '
          << (e.kind == FrameKind::kKeyframe ? 'k' : 'd') << '\n';
    }
    if (!out) return false;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  return !ec;
}

bool StoreWriter::flush() {
  if (closed_) return false;
  if (segment_) {
    segment_->flush();
    if (!*segment_) return false;
  }
  return write_index();
}

void StoreWriter::close() {
  if (closed_) return;
  flush();
  segment_.reset();
  closed_ = true;
}

StoreStats StoreWriter::stats() const { return stats_of(dir_, entries_); }

// --- reader -----------------------------------------------------------------

std::optional<StoreReader> StoreReader::open(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return std::nullopt;
  StoreReader reader(dir);
  reader.entries_ = load_or_scan(dir);
  reader.segment_count_ = list_segments(dir).size();
  reader.bytes_on_disk_ = disk_usage(dir);
  obs::Registry& registry = obs::Registry::global();
  registry.counter("ccg.store.opens").add();
  registry.gauge("ccg.store.windows_indexed")
      .set(static_cast<double>(reader.entries_.size()));
  registry.gauge("ccg.store.bytes_on_disk")
      .set(static_cast<double>(reader.bytes_on_disk_));
  return reader;
}

StoreReader::Range::Range(const StoreReader* reader, std::size_t index,
                          std::size_t end)
    : reader_(reader), index_(index), end_(end) {}

StoreReader::Range StoreReader::range(std::int64_t t0, std::int64_t t1) const {
  const auto lower = [this](std::int64_t t) {
    return static_cast<std::size_t>(
        std::lower_bound(entries_.begin(), entries_.end(), t,
                         [](const IndexEntry& e, std::int64_t v) {
                           return e.window_begin < v;
                         }) -
        entries_.begin());
  };
  return Range(this, lower(t0), lower(t1));
}

std::optional<CommGraph> StoreReader::Range::next() {
  static obs::Histogram& materialize_hist =
      obs::span_histogram("ccg.store.materialize");
  static obs::Counter& windows_read =
      obs::Registry::global().counter("ccg.store.windows_read");
  static obs::Counter& frame_errors =
      obs::Registry::global().counter("ccg.store.frame_errors");

  if (index_ >= end_) return std::nullopt;
  obs::ScopedSpan span(materialize_hist, "ccg.store.materialize");

  const auto& entries = reader_->entries_;
  // Without a rolling base (first call), restart the delta chain at the
  // governing keyframe; afterwards base_ is always entries[index_ - 1].
  std::size_t from = index_;
  if (!base_) {
    while (from > 0 && entries[from].kind != FrameKind::kKeyframe) --from;
    if (entries[from].kind != FrameKind::kKeyframe) {
      frame_errors.add();
      return std::nullopt;  // no keyframe governs this range
    }
  }

  for (std::size_t i = from; i <= index_; ++i) {
    const IndexEntry& entry = entries[i];
    if (!stream_ || stream_segment_ != entry.segment) {
      stream_ = std::make_unique<std::ifstream>(
          segment_path(reader_->dir_, entry.segment), std::ios::binary);
      stream_segment_ = entry.segment;
    }
    const auto payload = read_frame(*stream_, entry.offset);
    if (!payload) {
      frame_errors.add();
      return std::nullopt;
    }
    auto graph = decode_frame(*payload, base_ ? *base_ : CommGraph{});
    if (!graph) {
      frame_errors.add();
      return std::nullopt;
    }
    base_ = std::move(*graph);
  }
  ++index_;
  windows_read.add();
  return *base_;
}

StoreStats StoreReader::stats() const { return stats_of(dir_, entries_); }

// --- compaction -------------------------------------------------------------

std::optional<StoreStats> compact_store(const std::string& dir,
                                        CompactOptions options) {
  static obs::Histogram& compact_hist =
      obs::span_histogram("ccg.store.compact");
  obs::ScopedSpan span(compact_hist, "ccg.store.compact");

  auto reader = StoreReader::open(dir);
  if (!reader) return std::nullopt;

  const fs::path tmp_dir = fs::path(dir) / ".compact-tmp";
  std::error_code ec;
  fs::remove_all(tmp_dir, ec);
  {
    auto writer = StoreWriter::open(tmp_dir.string(),
                                    {.keyframe_interval = options.keyframe_interval,
                                     .segment_bytes = options.segment_bytes});
    if (!writer) return std::nullopt;
    auto range = reader->range(options.retain_from);
    while (auto graph = range.next()) {
      if (!writer->append(*graph)) return std::nullopt;
    }
    writer->close();
  }

  // Swap the rewritten files in. Not crash-atomic (documented): a torn
  // swap leaves a readable tmp dir to recover from by hand.
  for (const std::uint32_t id : list_segments(dir)) {
    fs::remove(segment_path(dir, id), ec);
    if (ec) return std::nullopt;
  }
  fs::remove(fs::path(dir) / kIndexName, ec);
  for (const auto& entry : fs::directory_iterator(tmp_dir)) {
    fs::rename(entry.path(), fs::path(dir) / entry.path().filename(), ec);
    if (ec) return std::nullopt;
  }
  fs::remove_all(tmp_dir, ec);

  auto compacted = StoreReader::open(dir);
  if (!compacted) return std::nullopt;
  const StoreStats stats = compacted->stats();
  obs::Registry::global()
      .gauge("ccg.store.bytes_on_disk")
      .set(static_cast<double>(stats.bytes_on_disk));
  obs::Registry::global()
      .gauge("ccg.store.windows")
      .set(static_cast<double>(stats.windows));
  return stats;
}

}  // namespace ccg::store
