// Micro-benchmarks of the analysis kernels — the §3.2 question ("can
// complex analyses be factored to meet the COGS constraints?") needs
// per-kernel costs, and these guard against performance regressions.
//
// Six kernels (similarity, SimRank, Jacobi, PCA, k-means, MinHash) are
// timed in a sweep after the google-benchmark tables, printed as a
// delimited JSON block (and written to --kernels-json PATH when given, for
// the CI baseline artifact). The two that run on parallel_for (similarity,
// SimRank) are swept across thread counts. Only the two that reach a
// tiered primitive — Jacobi's rotations, also inside PCA's
// eigendecomposition — are swept across simd tiers and report the
// scalar-vs-simd serial speedup; the others run the same code at every
// tier, so they run once, at the dispatched tier, and report no speedup.
// Determinism makes the comparison honest: every thread count and tier
// produces byte-identical results, so the sweep times identical work.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ccg/graph/csr.hpp"
#include "ccg/graph/delta.hpp"
#include "ccg/linalg/eigen.hpp"
#include "ccg/linalg/kmeans.hpp"
#include "ccg/parallel/parallel.hpp"
#include "ccg/segmentation/auto_segment.hpp"
#include "ccg/segmentation/similarity.hpp"
#include "ccg/segmentation/simrank.hpp"
#include "ccg/simd/simd.hpp"
#include "ccg/summarize/graph_pca.hpp"
#include "ccg/summarize/patterns.hpp"
#include "bench_util.hpp"

namespace {

using namespace ccg;
using namespace ccg::bench;

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Registers the thread sweep for a parallel kernel: serial plus the full
/// hardware thread count (deduplicated on single-core machines).
void ThreadArg(benchmark::internal::Benchmark* b) {
  b->ArgName("threads");
  b->Arg(1);
  if (hardware_threads() > 1) b->Arg(hardware_threads());
  b->Unit(benchmark::kMillisecond);
}

/// Scoped pool-size override driven by the benchmark's last range value.
struct BenchThreads {
  explicit BenchThreads(const benchmark::State& state, int index = 0) {
    parallel::set_thread_count(static_cast<int>(state.range(index)));
  }
  ~BenchThreads() { parallel::set_thread_count(0); }
};

/// One shared K8s PaaS hour (scaled down so SimRank fits the budget).
const CommGraph& k8s_graph() {
  static const CommGraph graph = [] {
    const auto sim = simulate(presets::k8s_paas(0.25), {.hours = 1});
    return sim.hourly_graphs.at(0);
  }();
  return graph;
}

void BM_SimilarityClique(benchmark::State& state) {
  const CommGraph& g = k8s_graph();
  const BenchThreads threads(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity_clique(g).total_weight());
  }
  state.counters["nodes"] = static_cast<double>(g.node_count());
}
BENCHMARK(BM_SimilarityClique)->Apply(ThreadArg);

void BM_LouvainOnSimilarityClique(benchmark::State& state) {
  // The resolution and seed the segment tracker runs with.
  const SegmentationOptions product;
  const WeightedGraph clique =
      similarity_clique(k8s_graph(), {.min_score = product.min_similarity});
  const LouvainOptions options{.resolution = product.louvain_resolution,
                               .seed = product.seed};
  for (auto _ : state) {
    benchmark::DoNotOptimize(louvain_cluster(clique, options).community_count);
  }
}
BENCHMARK(BM_LouvainOnSimilarityClique)->Unit(benchmark::kMillisecond);

void BM_FullAutoSegment(benchmark::State& state) {
  const CommGraph& g = k8s_graph();
  const BenchThreads threads(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        auto_segment(g, SegmentationMethod::kJaccardLouvain).segment_count);
  }
}
BENCHMARK(BM_FullAutoSegment)->Apply(ThreadArg);

void BM_SimRank(benchmark::State& state) {
  const CommGraph& g = k8s_graph();
  const BenchThreads threads(state, /*index=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simrank_scores(g, {.iterations = static_cast<int>(state.range(0))}).size());
  }
}
BENCHMARK(BM_SimRank)
    ->ArgNames({"iters", "threads"})
    ->ArgsProduct({{1, 3}, {1, hardware_threads()}})
    ->Unit(benchmark::kMillisecond);

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      m(i, j) = m(j, i) = rng.normal();
    }
  }
  return m;
}

void BM_JacobiEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix m = random_symmetric(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jacobi_eigen(m).values.size());
  }
}
BENCHMARK(BM_JacobiEigen)
    ->ArgName("n")
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_PcaReconstructionCurve(benchmark::State& state) {
  const NodeIndex index = NodeIndex::from_graph(k8s_graph());
  const Matrix m = adjacency_matrix(k8s_graph(), index);
  const PcaSummary pca(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pca.error_curve(25).back());
  }
}
BENCHMARK(BM_PcaReconstructionCurve)->Unit(benchmark::kMillisecond);

void BM_PatternMining(benchmark::State& state) {
  const CommGraph& g = k8s_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mine_patterns(g).patterns.size());
  }
}
BENCHMARK(BM_PatternMining)->Unit(benchmark::kMillisecond);

void BM_GraphDiff(benchmark::State& state) {
  const auto sim = simulate(presets::k8s_paas(0.25), {.hours = 2});
  const CommGraph& a = sim.hourly_graphs.at(0);
  const CommGraph& b = sim.hourly_graphs.at(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diff_graphs(a, b).edge_jaccard);
  }
}
BENCHMARK(BM_GraphDiff)->Unit(benchmark::kMillisecond);

// --- tier × thread speedup sweep --------------------------------------------

/// Best-of-3 wall time of `fn` at a fixed pool size.
template <typename Fn>
double time_at_threads(int threads, Fn&& fn) {
  parallel::set_thread_count(threads);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    fn();
    const double s = watch.seconds();
    if (rep == 0 || s < best) best = s;
  }
  parallel::set_thread_count(0);
  return best;
}

/// One simd tier's thread sweep.
struct TierSweep {
  std::string tier;
  std::vector<std::pair<int, double>> seconds_by_threads;
};

struct KernelSweep {
  std::string name;
  bool tiered = false;           // reaches a tiered simd primitive
  std::vector<TierSweep> tiers;  // "scalar" first, dispatched tier last
};

int online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string json_timings(const std::vector<std::pair<int, double>>& by_threads) {
  const double serial = by_threads.front().second;
  std::string json = "[";
  for (std::size_t j = 0; j < by_threads.size(); ++j) {
    const auto& [t, s] = by_threads[j];
    if (j > 0) json += ", ";
    json += "{\"threads\": " + std::to_string(t) +
            ", \"seconds\": " + fmt(s, 6) +
            ", \"speedup\": " + fmt(s > 0.0 ? serial / s : 0.0, 3) + "}";
  }
  return json + "]";
}

double best_speedup(const std::vector<std::pair<int, double>>& by_threads) {
  const double serial = by_threads.front().second;
  double fastest = serial;
  for (const auto& [t, s] : by_threads) fastest = std::min(fastest, s);
  return fastest > 0.0 ? serial / fastest : 0.0;
}

/// Emits the sweep as a delimited JSON block (same convention as the
/// metrics snapshot) and optionally into `json_path` for CI artifacts.
///
/// Every kernel is swept across simd tiers (scalar plus the dispatched
/// tier when different), the pooled ones × thread counts. Because every
/// tier is byte-identical, the scalar-vs-simd ratio at threads=1 is a pure
/// vectorization speedup — same work — for kernels that call a tiered
/// primitive, and run-to-run noise for the rest.
void emit_kernel_speedups(const std::string& json_path) {
  const int hw = hardware_threads();
  const int cpus = online_cpus();
  std::vector<int> sweep{1};
  for (const int t : {2, 4, hw}) {
    if (t > 1 && t <= hw && t != sweep.back()) sweep.push_back(t);
  }

  // The tier the runtime dispatcher picked (honouring CCG_SIMD / --simd);
  // restored after the sweep so google-benchmark tables and the sweep see
  // the same configuration.
  const std::string dispatched(simd::tier_name(simd::active_tier()));
  std::vector<std::string> tiers{"scalar"};
  if (dispatched != "scalar") tiers.push_back(dispatched);

  const CommGraph& g = k8s_graph();
  const CsrAdjacency csr(g);
  const Matrix jacobi_m = random_symmetric(300, 5);
  const NodeIndex index = NodeIndex::from_graph(g);
  const Matrix adj = adjacency_matrix(g, index);
  const Matrix km_data = [] {
    Rng rng(11);
    Matrix m(1500, 64);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = 0; j < m.cols(); ++j) m(i, j) = rng.normal();
    }
    return m;
  }();

  // Only the pooled kernels get a thread axis, and only the tiered ones a
  // tier axis; the rest run serially, at the dispatched tier.
  std::vector<KernelSweep> kernels;
  const auto run = [&](const std::string& name, bool pooled, bool tiered,
                       auto&& fn) {
    KernelSweep k{name, tiered, {}};
    for (const std::string& tier :
         tiered ? tiers : std::vector<std::string>{dispatched}) {
      simd::set_tier(tier);
      TierSweep ts{tier, {}};
      for (const int t : pooled ? sweep : std::vector<int>{1}) {
        ts.seconds_by_threads.emplace_back(t, time_at_threads(t, fn));
      }
      k.tiers.push_back(std::move(ts));
    }
    simd::set_tier(dispatched);
    kernels.push_back(std::move(k));
  };
  run("similarity_clique", true, false, [&] { similarity_clique(g, csr); });
  run("simrank", true, false,
      [&] { simrank_scores(g, csr, {.iterations = 2}); });
  run("jacobi_eigen_300", false, true, [&] { jacobi_eigen(jacobi_m); });
  run("pca_error_curve", false, true, [&] {
    const PcaSummary pca(adj);
    pca.error_curve(25);
  });
  run("kmeans", false, false, [&] {
    kmeans(km_data, 8, {.max_iterations = 15, .restarts = 2});
  });
  run("minhash", false, false, [&] {
    // Synthetic signature stream: the per-neighbor update is the whole
    // kernel, so drive it directly instead of through a graph.
    constexpr std::size_t kHashes = 96;
    std::uint64_t salts[kHashes];
    for (std::size_t h = 0; h < kHashes; ++h) {
      salts[h] = static_cast<std::uint64_t>(
          static_cast<std::uint32_t>(h * 0x9E3779B9u));
    }
    std::uint64_t sig[kHashes];
    std::uint64_t checksum = 0;
    for (int node = 0; node < 64; ++node) {
      std::fill(std::begin(sig), std::end(sig), ~0ull);
      for (std::uint32_t f = 0; f < 2048; ++f) {
        const std::uint64_t feature =
            (static_cast<std::uint64_t>(f) * 0x9E3779B97F4A7C15ull) ^
            static_cast<std::uint64_t>(node);
        simd::minhash_update(feature << 8, salts, sig, kHashes);
      }
      checksum ^= sig[0];
    }
    benchmark::DoNotOptimize(checksum);
  });

  std::string json =
      "{\"hardware_threads\": " + std::to_string(hw) +
      ", \"online_cpus\": " + std::to_string(cpus) +
      ", \"simd\": {\"dispatched\": \"" + dispatched +
      "\", \"capabilities\": \"" + simd::capability_string() +
      "\"}, \"kernels\": [";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelSweep& k = kernels[i];
    const TierSweep& active = k.tiers.back();
    if (i > 0) json += ", ";
    // Legacy top-level timings/best_speedup describe the dispatched tier
    // (what production runs use); the per-tier detail lives under "tiers".
    json += "{\"name\": \"" + k.name + "\", \"simd_tier\": \"" + active.tier +
            "\", \"online_cpus\": " + std::to_string(cpus);
    if (k.tiered) {
      const double scalar_serial =
          k.tiers.front().seconds_by_threads.front().second;
      const double active_serial = active.seconds_by_threads.front().second;
      json += ", \"simd_speedup\": " +
              fmt(active_serial > 0.0 ? scalar_serial / active_serial : 0.0, 3);
    }
    json += ", \"timings\": " + json_timings(active.seconds_by_threads) +
            ", \"best_speedup\": " + fmt(best_speedup(active.seconds_by_threads), 3) +
            ", \"tiers\": [";
    for (std::size_t j = 0; j < k.tiers.size(); ++j) {
      const TierSweep& ts = k.tiers[j];
      if (j > 0) json += ", ";
      json += "{\"tier\": \"" + ts.tier +
              "\", \"timings\": " + json_timings(ts.seconds_by_threads) +
              ", \"best_speedup\": " + fmt(best_speedup(ts.seconds_by_threads), 3) + "}";
    }
    json += "]}";
  }
  json += "]}\n";

  std::printf("\n==== kernel tier/thread sweep (json) ====\n%s", json.c_str());
  std::fflush(stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --kernels-json[=| ]PATH before google-benchmark sees the args.
  std::string kernels_json;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    char* arg = argv[i];
    if (std::strncmp(arg, "--kernels-json=", 15) == 0) {
      kernels_json = arg + 15;
    } else if (std::strcmp(arg, "--kernels-json") == 0 && i + 1 < argc) {
      kernels_json = argv[++i];
    } else {
      passthrough.push_back(arg);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_kernel_speedups(kernels_json);
  return 0;
}
