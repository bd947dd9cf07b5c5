#include "ccg/obs/prof.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>

#include "json_escape.hpp"

namespace ccg::obs::prof {

namespace {

const std::string kUntracked = "(untracked)";

/// One weighted stack: frame names outermost first, the window it belongs
/// to, and the self time it carries.
struct Stack {
  std::vector<const std::string*> frames;
  std::uint64_t trace_id = 0;
  std::uint64_t weight_ns = 0;
};

/// One stack per span, plus `(untracked)` for interval time outside every
/// root span.
std::vector<Stack> stacks(const Profile& profile) {
  const std::vector<TraceEvent>& spans = profile.spans;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id.emplace(spans[i].span_id, i);

  // A span whose parent is not in the ring — a trace root, or a parent that
  // was evicted or is still open — is a root.
  constexpr std::size_t kRoot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parent(spans.size(), kRoot);
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = by_id.find(spans[i].parent_id);
    if (spans[i].parent_id == 0 || it == by_id.end()) continue;
    parent[i] = it->second;
    child_ns[it->second] += spans[i].duration_ns;
  }

  const std::uint64_t end_ns = profile.start_ns + profile.wall_ns;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> roots;  // clipped
  std::vector<Stack> out;
  out.reserve(spans.size() + 1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceEvent& e = spans[i];
    Stack s;
    s.trace_id = e.trace_id;
    s.weight_ns = e.duration_ns > child_ns[i] ? e.duration_ns - child_ns[i] : 0;
    // The length bound stops a malformed parent cycle.
    for (std::size_t j = i; j != kRoot && s.frames.size() <= spans.size();
         j = parent[j]) {
      s.frames.push_back(&spans[j].name);
    }
    std::reverse(s.frames.begin(), s.frames.end());
    out.push_back(std::move(s));
    if (parent[i] == kRoot) {
      const std::uint64_t begin = std::max(e.start_ns, profile.start_ns);
      const std::uint64_t end = std::min(e.start_ns + e.duration_ns, end_ns);
      if (begin < end) roots.emplace_back(begin, end);
    }
  }

  // Roots on different threads overlap: count their union once.
  std::sort(roots.begin(), roots.end());
  std::uint64_t covered = 0;
  std::uint64_t cursor = profile.start_ns;
  for (const auto& [begin, end] : roots) {
    const std::uint64_t from = std::max(begin, cursor);
    if (end > from) {
      covered += end - from;
      cursor = end;
    }
  }
  if (profile.wall_ns > covered) {
    out.push_back({{&kUntracked}, 0, profile.wall_ns - covered});
  }
  return out;
}

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace

Profile capture(std::chrono::steady_clock::time_point start) {
  const auto now = std::chrono::steady_clock::now();
  const TraceRing& ring = TraceRing::global();
  Profile profile;
  profile.spans = ring.events();
  profile.dropped = ring.dropped();
  profile.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  profile.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
          .count());
  return profile;
}

std::vector<std::pair<std::string, std::uint64_t>> Profile::folded() const {
  std::map<std::string, std::uint64_t> weights;
  std::string key;
  for (const Stack& s : stacks(*this)) {
    key.clear();
    for (std::size_t i = 0; i < s.frames.size(); ++i) {
      if (i > 0) key.push_back(';');
      key += *s.frames[i];
    }
    weights[key] += s.weight_ns;
  }
  return {weights.begin(), weights.end()};
}

std::vector<FrameCost> Profile::frame_costs() const {
  std::map<std::string, FrameCost> by_name;
  std::set<std::string_view> seen;  // per-stack dedupe for total
  for (const Stack& s : stacks(*this)) {
    seen.clear();
    for (std::size_t i = 0; i < s.frames.size(); ++i) {
      const std::string& name = *s.frames[i];
      FrameCost& cost = by_name[name];
      if (cost.name.empty()) cost.name = name;
      if (seen.insert(name).second) cost.total_ns += s.weight_ns;
      if (i + 1 == s.frames.size()) cost.self_ns += s.weight_ns;
    }
  }
  std::vector<FrameCost> out;
  out.reserve(by_name.size());
  for (auto& [name, cost] : by_name) out.push_back(std::move(cost));
  std::sort(out.begin(), out.end(), [](const FrameCost& a, const FrameCost& b) {
    return a.self_ns != b.self_ns ? a.self_ns > b.self_ns : a.name < b.name;
  });
  return out;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> Profile::window_costs()
    const {
  std::map<std::uint64_t, std::uint64_t> weights;
  for (const Stack& s : stacks(*this)) weights[s.trace_id] += s.weight_ns;
  return {weights.begin(), weights.end()};
}

std::string Profile::folded_text() const {
  std::string out;
  for (const auto& [stack, ns] : folded()) {
    out += stack;
    out.push_back(' ');
    out += std::to_string(ns);
    out.push_back('\n');
  }
  return out;
}

std::string Profile::table_text() const {
  const std::vector<FrameCost> costs = frame_costs();
  std::uint64_t weight_ns = 0;
  for (const FrameCost& cost : costs) weight_ns += cost.self_ns;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%zu spans over %.3f s wall (%zu dropped)\n",
                spans.size(), seconds(wall_ns), dropped);
  std::string out = buf;
  std::snprintf(buf, sizeof(buf), "%-44s %10s %10s %7s\n", "stage", "self(s)",
                "total(s)", "self%");
  out += buf;
  for (const FrameCost& cost : costs) {
    std::snprintf(buf, sizeof(buf), "%-44s %10.3f %10.3f %6.1f%%\n",
                  cost.name.c_str(), seconds(cost.self_ns),
                  seconds(cost.total_ns),
                  weight_ns > 0 ? 100.0 * static_cast<double>(cost.self_ns) /
                                      static_cast<double>(weight_ns)
                                : 0.0);
    out += buf;
  }
  return out;
}

std::string Profile::to_json() const {
  char buf[160];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf),
                "  \"spans\": %zu,\n  \"dropped\": %zu,\n"
                "  \"wall_seconds\": %.6f,\n",
                spans.size(), dropped, seconds(wall_ns));
  out += buf;

  out += "  \"stages\": [";
  bool first = true;
  for (const FrameCost& cost : frame_costs()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    json_escape_into(out, cost.name);
    std::snprintf(buf, sizeof(buf),
                  "\", \"self_seconds\": %.6f, \"total_seconds\": %.6f}",
                  seconds(cost.self_ns), seconds(cost.total_ns));
    out += buf;
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"windows\": [";
  first = true;
  for (const auto& [trace, ns] : window_costs()) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(buf, sizeof(buf), "    {\"trace\": \"0x%llx\", \"seconds\": %.6f}",
                  static_cast<unsigned long long>(trace), seconds(ns));
    out += buf;
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"folded\": [";
  first = true;
  for (const auto& [stack, ns] : folded()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"stack\": \"";
    json_escape_into(out, stack);
    out += "\", \"ns\": " + std::to_string(ns) + "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace ccg::obs::prof
