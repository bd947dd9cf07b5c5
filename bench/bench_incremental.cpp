// Incremental analytics vs full per-window recompute (ISSUE 9 tentpole).
//
// Synthetic community graphs at several sizes evolve through a fixed
// number of windows under three churn profiles:
//
//   low  — byte drift on ~5% of edges, one edge rewired per window: the
//          paper's Fig. 5 steady state, where ≤5% of endpoints are touched
//          and incremental updates should beat full recompute by a margin
//          that *grows* with graph size (full pair scoring is O(n²),
//          patch-driven rescoring O(dirty·n)).
//   mid  — byte drift on 20% of edges plus proportional rewiring.
//   high — heavy rewiring; the engine's churn threshold sends most windows
//          to full recompute, so this profile measures fallback overhead.
//
// Emits BENCH_incremental.json: per-config mean window latency for full
// vs incremental, the log-log latency exponent in n for the low-churn
// profile (sublinearity evidence), and a verify_against_full matrix at
// 1/2/4 threads × scalar/auto SIMD tiers. Exit code is nonzero if any
// verification failed — CI treats this bench as a correctness gate.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "ccg/common/rng.hpp"
#include "ccg/graph/csr.hpp"
#include "ccg/incremental/engine.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/simd/simd.hpp"
#include "bench_util.hpp"

namespace {

using namespace ccg;
using namespace ccg::bench;

struct EdgeSpec {
  std::uint32_t a, b;
  std::uint64_t bytes_ab, bytes_ba;
  std::int32_t port;
};

struct GraphSpec {
  std::size_t nodes = 0;
  std::vector<EdgeSpec> edges;

  CommGraph build(int step) const {
    CommGraph g(TimeWindow::minutes(step * 5, (step + 1) * 5));
    for (std::size_t i = 0; i < nodes; ++i) {
      const NodeId id = g.add_node(
          NodeKey::for_ip(IpAddr(static_cast<std::uint32_t>(i + 1))));
      g.set_monitored(id, true);
    }
    for (const EdgeSpec& e : edges) {
      g.add_edge_volume(e.a, e.b, e.bytes_ab, e.bytes_ba, e.bytes_ab / 200 + 1,
                        e.bytes_ba / 200 + 1, 10, 5, 4, 4, e.port);
    }
    return g;
  }
};

/// Communities of 20 with ~4 intra-edges per node plus sparse bridges —
/// the degree structure of a µsegmented deployment, at a chosen size.
GraphSpec community_spec(std::size_t nodes, Rng& rng) {
  GraphSpec spec;
  spec.nodes = nodes;
  const std::size_t community = 20;
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::size_t base = (i / community) * community;
    for (std::size_t k = 1; k <= 4; ++k) {
      const std::size_t j = base + (i - base + k) % community;
      if (j <= i || j >= nodes) continue;
      spec.edges.push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j),
                            2000 + rng.uniform(4000), 300 + rng.uniform(400),
                            static_cast<std::int32_t>(8000 + i / community)});
    }
  }
  for (std::size_t c = 0; c + community < nodes; c += community) {
    spec.edges.push_back({static_cast<std::uint32_t>(c + rng.uniform(community)),
                          static_cast<std::uint32_t>(c + community +
                                                     rng.uniform(community)),
                          700, 700, 443});
  }
  return spec;
}

struct ChurnProfile {
  const char* name;
  double byte_rate;       // fraction of edges restated (bytes only)
  double rewire_rate;     // fraction of edges removed+replaced
  std::size_t min_rewires;
};

void evolve(GraphSpec& spec, const ChurnProfile& profile, Rng& rng) {
  const std::size_t m = spec.edges.size();
  const auto byte_edits = static_cast<std::size_t>(profile.byte_rate *
                                                   static_cast<double>(m));
  for (std::size_t k = 0; k < byte_edits; ++k) {
    spec.edges[rng.uniform(m)].bytes_ab += 500 + rng.uniform(1000);
  }
  const std::size_t rewires =
      std::max(profile.min_rewires,
               static_cast<std::size_t>(profile.rewire_rate *
                                        static_cast<double>(m)));
  for (std::size_t k = 0; k < rewires; ++k) {
    EdgeSpec& e = spec.edges[rng.uniform(spec.edges.size())];
    // Re-point one endpoint inside its community: structural churn without
    // degenerating the topology.
    const std::uint32_t base = (e.b / 20) * 20;
    const auto nb = static_cast<std::uint32_t>(
        base + rng.uniform(std::min<std::size_t>(20, spec.nodes - base)));
    if (nb != e.a) e.b = nb;
    if (e.a > e.b) std::swap(e.a, e.b);
    if (e.a == e.b) e.b = e.a + 1 < spec.nodes ? e.b + 1 : e.b - 1;
  }
}

std::vector<CommGraph> window_sequence(std::size_t nodes,
                                       const ChurnProfile& profile,
                                       int windows, std::uint64_t seed) {
  Rng rng(seed);
  GraphSpec spec = community_spec(nodes, rng);
  std::vector<CommGraph> out;
  for (int step = 0; step < windows; ++step) {
    if (step > 0) evolve(spec, profile, rng);
    out.push_back(spec.build(step));
  }
  return out;
}

struct ConfigResult {
  std::size_t nodes = 0, edges = 0;
  const char* profile = "";
  double full_ms = 0.0, incr_ms = 0.0;
  double mean_dirty = 0.0;
  std::uint64_t carried = 0, rescored = 0, full_recomputes = 0;
};

ConfigResult run_config(std::size_t nodes, const ChurnProfile& profile,
                        int windows) {
  const auto seq = window_sequence(nodes, profile, windows, 1234);
  ConfigResult r;
  r.nodes = seq.back().node_count();
  r.edges = seq.back().edge_count();
  r.profile = profile.name;

  {  // full recompute baseline, CSR rebuilt per window like auto_segment
    Stopwatch watch;
    for (const CommGraph& w : seq)
      auto_segment(w, SegmentationMethod::kJaccardLouvain);
    r.full_ms = watch.seconds() * 1000.0 / windows;
  }
  {
    incremental::IncrementalEngine engine;
    engine.observe(seq[0]);  // warm-up window is a full recompute by contract
    Stopwatch watch;
    for (int i = 1; i < windows; ++i) {
      engine.observe(seq[i]);
      r.mean_dirty += static_cast<double>(engine.last().dirty_nodes);
      r.carried += engine.last().carried_pairs;
      r.rescored += engine.last().rescored_pairs;
      r.full_recomputes += engine.last().full_recompute ? 1 : 0;
    }
    r.incr_ms = watch.seconds() * 1000.0 / (windows - 1);
    r.mean_dirty /= (windows - 1);
  }
  return r;
}

struct VerifyResult {
  int threads;
  const char* tier;
  bool ok;
  std::string error;
};

VerifyResult run_verify(std::size_t nodes, const ChurnProfile& profile,
                        int windows, int threads, const char* tier) {
  simd::set_tier(tier);
  parallel::set_thread_count(threads);
  incremental::IncrementalOptions opts;
  opts.verify_against_full = true;
  incremental::IncrementalEngine engine(opts);
  VerifyResult v{threads, tier, true, ""};
  for (const CommGraph& w : window_sequence(nodes, profile, windows, 99)) {
    engine.observe(w);
    if (!engine.last().verified) {
      v.ok = false;
      v.error = engine.last().verify_error;
      break;
    }
  }
  parallel::set_thread_count(0);
  simd::set_tier("auto");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_incremental.json";
  int windows = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--windows") == 0 && i + 1 < argc) {
      windows = std::atoi(argv[++i]);
    }
  }

  const ChurnProfile kLow{"low", 0.05, 0.0, 1};
  const ChurnProfile kMid{"mid", 0.20, 0.01, 2};
  const ChurnProfile kHigh{"high", 0.50, 0.10, 4};
  const std::size_t kSizes[] = {300, 600, 1200};

  print_header("Incremental vs full per-window recompute");
  std::printf("%6s %8s %8s  %10s %10s %8s %8s %10s\n", "nodes", "edges",
              "churn", "full ms/w", "incr ms/w", "speedup", "dirty/w",
              "full falls");
  std::vector<ConfigResult> results;
  for (const std::size_t n : kSizes) {
    for (const ChurnProfile& p : {kLow, kMid, kHigh}) {
      const ConfigResult r = run_config(n, p, windows);
      results.push_back(r);
      std::printf("%6zu %8zu %8s  %10.2f %10.2f %8.2f %8.1f %10llu\n",
                  r.nodes, r.edges, r.profile, r.full_ms, r.incr_ms,
                  r.incr_ms > 0 ? r.full_ms / r.incr_ms : 0.0, r.mean_dirty,
                  static_cast<unsigned long long>(r.full_recomputes));
    }
  }

  // Latency growth exponents on the low-churn profile: fit t ~ n^p between
  // the smallest and largest size. Sublinearity claim: the incremental
  // path's exponent sits below the full recompute's (full pair scoring is
  // quadratic; patch-driven rescoring tracks the dirty frontier).
  const auto low_of = [&](std::size_t n) {
    for (const ConfigResult& r : results)
      if (r.nodes == n && std::strcmp(r.profile, "low") == 0) return r;
    return ConfigResult{};
  };
  const ConfigResult small = low_of(kSizes[0]);
  const ConfigResult large = low_of(kSizes[2]);
  const double dn = std::log(static_cast<double>(large.nodes) /
                             static_cast<double>(small.nodes));
  const double exp_full = std::log(large.full_ms / small.full_ms) / dn;
  const double exp_incr = std::log(large.incr_ms / small.incr_ms) / dn;
  const bool sublinear = exp_incr < exp_full && exp_incr < 1.5;
  std::printf("\nlow-churn latency exponents (t ~ n^p): full %.2f, "
              "incremental %.2f -> %s\n",
              exp_full, exp_incr, sublinear ? "sublinear" : "NOT sublinear");

  std::printf("\nverify_against_full (exact MinHash/Louvain), "
              "%zu nodes, low churn:\n", kSizes[1]);
  std::vector<VerifyResult> verifies;
  bool verify_ok = true;
  for (const char* tier : {"scalar", "auto"}) {
    for (const int threads : {1, 2, 4}) {
      const VerifyResult v = run_verify(kSizes[1], kLow, windows, threads, tier);
      verifies.push_back(v);
      verify_ok = verify_ok && v.ok;
      std::printf("  %6s x %d threads: %s%s%s\n", v.tier, v.threads,
                  v.ok ? "ok" : "FAIL", v.ok ? "" : " — ",
                  v.error.c_str());
    }
  }

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"incremental\",\n  \"windows\": " << windows
      << ",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    out << "    {\"nodes\": " << r.nodes << ", \"edges\": " << r.edges
        << ", \"churn\": \"" << r.profile << "\", \"full_ms_per_window\": "
        << r.full_ms << ", \"incremental_ms_per_window\": " << r.incr_ms
        << ", \"speedup\": " << (r.incr_ms > 0 ? r.full_ms / r.incr_ms : 0.0)
        << ", \"mean_dirty_nodes\": " << r.mean_dirty
        << ", \"carried_pairs\": " << r.carried << ", \"rescored_pairs\": "
        << r.rescored << ", \"full_recomputes\": " << r.full_recomputes
        << "}" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"low_churn_exponent_full\": " << exp_full
      << ",\n  \"low_churn_exponent_incremental\": " << exp_incr
      << ",\n  \"sublinear\": " << (sublinear ? "true" : "false")
      << ",\n  \"verify\": [\n";
  for (std::size_t i = 0; i < verifies.size(); ++i) {
    out << "    {\"threads\": " << verifies[i].threads << ", \"tier\": \""
        << verifies[i].tier << "\", \"ok\": "
        << (verifies[i].ok ? "true" : "false") << "}"
        << (i + 1 < verifies.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"verify_ok\": " << (verify_ok ? "true" : "false")
      << "\n}\n";
  if (!out) {
    std::fprintf(stderr, "bench: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  return verify_ok ? 0 : 1;
}
