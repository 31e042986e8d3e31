// Fig. 9: 2D RGG — communication-free KaGen vs the Holtgrewe et al.
// sort-and-exchange baseline, fixed n/P per PE, r = 0.55*sqrt(ln n/n)/sqrt(P).
// Paper scale: P = p^2 up to 2^11, n/P in {2^16..2^20}. Here: P in
// {1,4,9,16}, n/P in {2^14, 2^16}.
//
// The baseline's exchange is simulated in-process; its reported time is
// measured local work plus the latency/bandwidth model of
// baselines::simulated_comm_seconds (constants documented there and in
// EXPERIMENTS.md). Expected shape: Holtgrewe wins at small P (KaGen pays
// ~2x border recomputation); once communication dominates, KaGen wins.
#include <cmath>

#include "baselines/holtgrewe_rgg.hpp"
#include "bench_common.hpp"

namespace {

using namespace kagen;

double radius_for(u64 n, u64 pes) {
    return 0.55 * std::sqrt(std::log(static_cast<double>(n)) / static_cast<double>(n)) /
           std::sqrt(static_cast<double>(pes));
}

void KaGen_Rgg2D(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 n   = (u64{1} << state.range(1)) * pes;
    GraphSpec spec;
    spec.model = Model::Rgg2D;
    spec.n     = n;
    spec.r     = radius_for(n, pes);
    spec.seed  = 1;
    bench::scaling_run(state, pes, [&](u64 rank, u64 size) {
        return generate(spec, rank, size).edges;
    });
}

void Holtgrewe_Rgg2D(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    const u64 n   = (u64{1} << state.range(1)) * pes;
    const baselines::HoltgreweParams params{n, radius_for(n, pes), 1};
    double comm = 0.0;
    u64 edges   = 0;
    for (auto _ : state) {
        const auto result = baselines::holtgrewe_generate(params, pes);
        comm = baselines::simulated_comm_seconds(result.messages, result.bytes);
        // The simulation executes all PEs sequentially; a real job runs them
        // concurrently, so the makespan is compute/P + communication.
        state.SetIterationTime(result.compute_seconds / static_cast<double>(pes) + comm);
        edges = 0;
        for (const auto& part : result.per_pe) edges += part.size();
    }
    state.counters["PEs"]       = static_cast<double>(pes);
    state.counters["edges"]     = static_cast<double>(edges);
    state.counters["comm_ms"]   = comm * 1e3;
}

void args(benchmark::internal::Benchmark* b) {
    for (const int log_n : {14, 16}) {
        for (const int pes : {1, 4, 9, 16}) b->Args({pes, log_n});
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(KaGen_Rgg2D)->Apply(args);
BENCHMARK(Holtgrewe_Rgg2D)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 9 — 2D RGG comparison: KaGen (communication-free) vs Holtgrewe "
    "(sort-and-exchange, simulated network).\n"
    "# Args: {P, log2 n/P}; r = 0.55*sqrt(ln n/n)/sqrt(P).")
