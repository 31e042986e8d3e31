// Fig. 6: sequential G(n,m) running time, KaGen vs the Batagelj–Brandes /
// Boost-style baseline, for two vertex counts and growing edge counts.
// Paper scale: n in {2^22, 2^24}, m in 2^16..2^28. Here: n in {2^18, 2^20},
// m in 2^14..2^22 (memory/time budget; the *shape* is the claim).
//
// Expected shape (paper §8.3): KaGen's time per edge is independent of n;
// the baseline's grows with n; KaGen is roughly an order of magnitude
// faster at the largest m.
#include "baselines/sequential_er.hpp"
#include "bench_common.hpp"

namespace {

using namespace kagen;

/// G(n,m) with n = 2^range(0), m = 2^range(1), seed 1, on one PE.
GraphSpec gnm_spec(const benchmark::State& state, Model model) {
    GraphSpec spec;
    spec.model = model;
    spec.n     = u64{1} << state.range(0);
    spec.m     = u64{1} << state.range(1);
    spec.seed  = 1;
    return spec;
}

void KaGen_Directed(benchmark::State& state) {
    const GraphSpec spec = gnm_spec(state, Model::GnmDirected);
    for (auto _ : state) {
        benchmark::DoNotOptimize(generate(spec, 0, 1).edges);
    }
    state.counters["edges"] = static_cast<double>(spec.m);
}

void Baseline_Directed(benchmark::State& state) {
    const u64 n = u64{1} << state.range(0);
    const u64 m = u64{1} << state.range(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(baselines::bb_gnm_directed(n, m, 1));
    }
    state.counters["edges"] = static_cast<double>(m);
}

void KaGen_Undirected(benchmark::State& state) {
    const GraphSpec spec = gnm_spec(state, Model::GnmUndirected);
    for (auto _ : state) {
        benchmark::DoNotOptimize(generate(spec, 0, 1).edges);
    }
    state.counters["edges"] = static_cast<double>(spec.m);
}

void Baseline_Undirected(benchmark::State& state) {
    const u64 n = u64{1} << state.range(0);
    const u64 m = u64{1} << state.range(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(baselines::bb_gnm_undirected(n, m, 1));
    }
    state.counters["edges"] = static_cast<double>(m);
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_n : {18, 20}) {
        for (int log_m = 14; log_m <= 22; log_m += 2) b->Args({log_n, log_m});
    }
    b->Unit(benchmark::kMillisecond)->MinTime(0.05)->MinWarmUpTime(0.05);
}

BENCHMARK(KaGen_Directed)->Apply(args);
BENCHMARK(Baseline_Directed)->Apply(args);
BENCHMARK(KaGen_Undirected)->Apply(args);
BENCHMARK(Baseline_Undirected)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 6 — sequential Erdos-Renyi G(n,m): KaGen vs Batagelj-Brandes "
    "baseline.\n"
    "# Args: {log2 n, log2 m}. Scaled down from the paper (n 2^22/2^24 -> "
    "2^18/2^20); see EXPERIMENTS.md.")
