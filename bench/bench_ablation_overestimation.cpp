// Ablation (Lemma 10 / Corollary 11): the in-memory RHG query reads one
// window per (source annulus, target annulus) pair, taken from both lower
// boundaries. Against the true neighbourhood it overestimates on both
// sides: from the target's boundary by at most OE(ln2/alpha, alpha) <=
// sqrt(e) ~ 1.64 per annulus for the chosen annulus height (Lemma 10), and,
// as the window is symmetric in the two radii, by the same factor from the
// source's, so at most OE^2 <= e per annulus pair. This benchmark *measures*
// the realized overestimation of the library generator
// (`rhg::generate_inmemory`) — rhg.candidates per emitted edge of an
// as_generated run, from the metrics registry — alongside the generation
// time. On the rhg_ranks_dedup graph (n = 2^18, d = 16, gamma = 2.6,
// C = 64) it is about 1.65; per-vertex windows, from the source vertex's
// own radius, read 1.28 there.
//
// Expected: candidates/edge stays a small constant (the Cor. 11 regime),
// independent of n — which is what makes the query phase O(m).
#include "bench_common.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "obs/metrics.hpp"
#include "rhg/rhg.hpp"

namespace {

using namespace kagen;

void CandidateOverestimation(benchmark::State& state) {
    const hyp::Params params{u64{1} << state.range(0), 16.0,
                             static_cast<double>(state.range(1)) / 10.0, 1};
    const auto chunks  = static_cast<u64>(state.range(2));
    obs::Registry& reg = obs::Registry::global();

    u64 candidates = 0;
    u64 edges      = 0;
    for (auto _ : state) {
        const obs::Snapshot base = reg.snapshot();
        CountingSink sink;
        for (u64 rank = 0; rank < chunks; ++rank) {
            rhg::generate_inmemory(params, rank, chunks, sink);
        }
        sink.finish();
        candidates = reg.snapshot().subtract(base).counter_or("rhg.candidates");
        edges      = sink.num_edges();
    }
    state.counters["candidates_per_edge"] =
        static_cast<double>(candidates) / static_cast<double>(std::max<u64>(edges, 1));
    state.counters["edges"] = static_cast<double>(edges);
}

BENCHMARK(CandidateOverestimation)
    ->Args({10, 30, 1})
    ->Args({12, 30, 1})
    ->Args({13, 30, 1})
    ->Args({12, 22, 1})
    ->Args({18, 26, 64}) // the rhg_ranks_dedup graph
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

KAGEN_BENCH_MAIN(
    "# Ablation (Lemma 10 / Cor. 11) — measured candidate overestimation of "
    "the library's in-memory RHG query.\n"
    "# Args: {log2 n, gamma*10, chunks}. candidates_per_edge should stay a "
    "small constant as n grows (<= e per annulus pair: sqrt(e) from each "
    "lower boundary).")
