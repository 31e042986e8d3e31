// Weak and strong scaling of every model (paper §8: Figs. 7, 8, 10–13,
// 15–18), one table row per (figure, model). Every run goes through the
// chunked engine into a counting sink with one chunk per PE, so a chunk
// plays a PE, and the as_generated stream keeps the cross-PE duplicates
// the figures include (undirected ER: at most 2m).
//
// Sizes: ER and R-MAT rows grow m (n = m/16, Graph 500 R-MAT parameters);
// RGG, RDG and RHG rows grow n (RGG r = 0.55·(ln n/n)^(1/d), divided by
// sqrt(P) in the weak rows; RHG average degree 16, gamma 3). A weak row
// fixes the size per PE, a strong row the total. The paper runs up to 2^15
// MPI ranks; here P is at most 16 thread-simulated PEs and every size is
// scaled down (see EXPERIMENTS.md).
//
// Expected shapes (paper §8): weak rows stay flat after a rise of up to 2x
// while the redundant chunk work appears (undirected ER, RGG, RDG, the
// in-memory RHG's inward recomputation); strong rows fall as 1/P. R-MAT
// pays log2(n) variates per edge. The rmat_over_gnm_directed row reports
// that cost as one ratio: R-MAT makespan over directed G(n,m) makespan at
// equal n and m (the paper's "order of magnitude over R-MAT" claim).
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace kagen;

enum class Scaling { weak, strong };

struct Row {
    const char* figure; ///< the paper figure the row regenerates
    Model model;
    Scaling scaling;
    std::vector<int> pes;       ///< simulated PE counts P
    std::vector<int> log_sizes; ///< log2 m (ER, R-MAT) or log2 n; per PE if weak
    int iterations;
};

const std::vector<Row> kRows = {
    {"fig07", Model::GnmDirected, Scaling::weak, {1, 2, 4, 8, 16}, {18, 20}, 2},
    {"fig07", Model::GnmUndirected, Scaling::weak, {1, 2, 4, 8, 16}, {18, 20}, 2},
    {"fig08", Model::GnmDirected, Scaling::strong, {1, 2, 4, 8, 16}, {22, 24}, 2},
    {"fig08", Model::GnmUndirected, Scaling::strong, {1, 2, 4, 8, 16}, {22, 24}, 2},
    {"fig10", Model::Rgg2D, Scaling::weak, {1, 2, 4, 8, 16}, {14, 16}, 2},
    {"fig10", Model::Rgg3D, Scaling::weak, {1, 2, 4, 8, 16}, {14, 16}, 2},
    {"fig11", Model::Rgg2D, Scaling::strong, {1, 2, 4, 8, 16}, {18, 20}, 1},
    {"fig11", Model::Rgg3D, Scaling::strong, {1, 2, 4, 8, 16}, {18, 20}, 1},
    {"fig12", Model::Rdg2D, Scaling::weak, {1, 2, 4, 8}, {12, 14}, 1},
    {"fig12", Model::Rdg3D, Scaling::weak, {1, 2, 4, 8}, {11, 13}, 1},
    {"fig13", Model::Rdg2D, Scaling::strong, {1, 2, 4, 8}, {14, 16}, 1},
    {"fig13", Model::Rdg3D, Scaling::strong, {1, 2, 4, 8}, {13, 15}, 1},
    {"fig15", Model::Rhg, Scaling::weak, {1, 2, 4, 8, 16}, {13, 15}, 1},
    {"fig15", Model::RhgStreaming, Scaling::weak, {1, 2, 4, 8, 16}, {13, 15}, 1},
    {"fig16", Model::Rhg, Scaling::strong, {1, 2, 4, 8, 16}, {16, 18}, 1},
    {"fig16", Model::RhgStreaming, Scaling::strong, {1, 2, 4, 8, 16}, {16, 18}, 1},
    {"fig17", Model::Rmat, Scaling::weak, {1, 2, 4, 8, 16}, {18, 20}, 2},
    {"fig18", Model::Rmat, Scaling::strong, {1, 2, 4, 8, 16}, {22, 24}, 1},
};

Config row_config(const Row& row, u64 pes, int log_size) {
    const u64 size  = (u64{1} << log_size) * (row.scaling == Scaling::weak ? pes : 1);
    Config cfg;
    cfg.model         = row.model;
    cfg.seed          = 1;
    cfg.chunks_per_pe = 1;
    cfg.n             = size;
    switch (row.model) {
        case Model::GnmDirected:
        case Model::GnmUndirected:
        case Model::Rmat:
            cfg.m = size;
            cfg.n = size / 16;
            break;
        case Model::Rgg2D:
        case Model::Rgg3D: {
            const double n   = static_cast<double>(size);
            const double dim = row.model == Model::Rgg2D ? 2.0 : 3.0;
            cfg.r            = 0.55 * std::pow(std::log(n) / n, 1.0 / dim);
            if (row.scaling == Scaling::weak) cfg.r /= std::sqrt(static_cast<double>(pes));
            break;
        }
        case Model::Rhg:
        case Model::RhgStreaming:
            cfg.avg_deg = 16.0;
            cfg.gamma   = 3.0;
            break;
        default: // RDG: n alone
            break;
    }
    return cfg;
}

/// R-MAT against directed G(n,m) at equal n = m/16 and m. Both emit exactly
/// m edges, so the makespan ratio is the per-edge cost ratio.
void rmat_over_gnm(benchmark::State& state) {
    const u64 pes = static_cast<u64>(state.range(0));
    Config gnm;
    gnm.model         = Model::GnmDirected;
    gnm.m             = u64{1} << state.range(1);
    gnm.n             = gnm.m / 16;
    gnm.seed          = 1;
    gnm.chunks_per_pe = 1;
    Config rmat       = gnm;
    rmat.model        = Model::Rmat;

    bench::engine_run(gnm, pes); // untimed warmup: pool spin-up, page faults
    bench::engine_run(rmat, pes);
    double gnm_seconds  = 0.0;
    double rmat_seconds = 0.0;
    for (auto _ : state) {
        const double g = bench::engine_run(gnm, pes).seconds;
        const double r = bench::engine_run(rmat, pes).seconds;
        gnm_seconds += g;
        rmat_seconds += r;
        state.SetIterationTime(g + r);
    }
    state.counters["PEs"]           = static_cast<double>(pes);
    state.counters["edges"]         = static_cast<double>(gnm.m);
    state.counters["rmat_over_gnm"] = rmat_seconds / gnm_seconds;
}

const bool kRegistered = [] {
    for (const Row& row : kRows) {
        const std::string name = std::string(row.figure) +
                                 (row.scaling == Scaling::weak ? "_weak/" : "_strong/") +
                                 model_name(row.model);
        auto* b = benchmark::RegisterBenchmark(
            name.c_str(), [&row](benchmark::State& state) {
                const u64 pes = static_cast<u64>(state.range(0));
                bench::engine_scaling_run(
                    state, row_config(row, pes, static_cast<int>(state.range(1))), pes);
            });
        for (const int log_size : row.log_sizes) {
            for (const int pes : row.pes) b->Args({pes, log_size});
        }
        b->UseManualTime()->Iterations(row.iterations)->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark("rmat_over_gnm_directed", rmat_over_gnm)
        ->ArgsProduct({{1, 4}, {20, 22}})
        ->UseManualTime()
        ->Iterations(2)
        ->Unit(benchmark::kMillisecond);
    return true;
}();

} // namespace

KAGEN_BENCH_MAIN(
    "# Figs. 7, 8, 10-13, 15-18 — weak/strong scaling of every model through "
    "the chunked engine (one chunk per PE, counting sink).\n"
    "# Rows: figNN_{weak,strong}/<model>; Args: {P, log2 size} (size = m for "
    "ER/R-MAT, n otherwise; per PE in weak rows).\n"
    "# rmat_over_gnm_directed: Args {P, log2 m}, counter rmat_over_gnm = "
    "R-MAT / directed G(n,m) makespan.")
