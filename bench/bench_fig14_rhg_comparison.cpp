// Fig. 14: RHG generator comparison — NkGen-like baseline vs RHG (in-memory)
// vs sRHG (streaming; HyperGen's algorithmic sibling, see DESIGN.md), as a
// function of n for gamma in {2.2, 3.0} and average degree in {16, 64}.
// Paper scale: n up to 10^9 on 39 threads, degree up to 256. Here: n up to
// 2^16 on 8 simulated PEs, degree up to 64.
//
// Expected shape (paper §8.6): NkGen-like slowest per edge (raw
// trigonometric distance tests, unstructured scans), RHG in the middle,
// sRHG fastest; the gap widens with the edge count.
#include "baselines/nkgen_like.hpp"
#include "bench_common.hpp"

namespace {

using namespace kagen;

constexpr u64 kPes = 8;

hyp::Params params_for(const benchmark::State& state) {
    hyp::Params p;
    p.n       = u64{1} << state.range(0);
    p.avg_deg = static_cast<double>(state.range(1));
    p.gamma   = static_cast<double>(state.range(2)) / 10.0;
    p.seed    = 1;
    return p;
}

/// The same (n, avg_deg, gamma, seed) as `params_for`, for the facade.
GraphSpec spec_for(const benchmark::State& state, Model model) {
    const hyp::Params p = params_for(state);
    GraphSpec spec;
    spec.model   = model;
    spec.n       = p.n;
    spec.avg_deg = p.avg_deg;
    spec.gamma   = p.gamma;
    spec.seed    = p.seed;
    return spec;
}

void NkGenLike(benchmark::State& state) {
    const auto params = params_for(state);
    bench::scaling_run(state, kPes, [&](u64 rank, u64 size) {
        return baselines::nkgen_like_generate(params, rank, size);
    });
}

void Rhg_InMemory(benchmark::State& state) {
    const GraphSpec spec = spec_for(state, Model::Rhg);
    bench::scaling_run(state, kPes, [&](u64 rank, u64 size) {
        return generate(spec, rank, size).edges;
    });
}

void Srhg_Streaming(benchmark::State& state) {
    const GraphSpec spec = spec_for(state, Model::RhgStreaming);
    bench::scaling_run(state, kPes, [&](u64 rank, u64 size) {
        return generate(spec, rank, size).edges;
    });
}

void args(benchmark::internal::Benchmark* b) {
    for (const int gamma10 : {22, 30}) {
        for (const int deg : {16, 64}) {
            for (const int log_n : {12, 14, 16}) b->Args({log_n, deg, gamma10});
        }
    }
    b->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

BENCHMARK(NkGenLike)->Apply(args);
BENCHMARK(Rhg_InMemory)->Apply(args);
BENCHMARK(Srhg_Streaming)->Apply(args);

} // namespace

KAGEN_BENCH_MAIN(
    "# Fig. 14 — RHG comparison: NkGen-like vs RHG vs sRHG.\n"
    "# Args: {log2 n, avg_deg, gamma*10}. Expected ranking: NkGen-like > RHG "
    "> sRHG in time.")
