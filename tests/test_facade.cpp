// Public facade + cross-module integration: every model generates through
// kagen::generate, respects (rank, size) purity, and downstream graph
// utilities (CSR, BFS, components) consume the outputs.
#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "pe/pe.hpp"

namespace kagen {
namespace {

Config small_config(Model model) {
    Config cfg;
    cfg.model     = model;
    cfg.n         = 600;
    cfg.m         = 3000;
    cfg.p         = 0.01;
    cfg.r         = 0.08;
    cfg.avg_deg   = 8;
    cfg.gamma     = 2.8;
    cfg.ba_degree = 3;
    cfg.seed      = 99;
    return cfg;
}

class AllModels : public ::testing::TestWithParam<Model> {};

TEST_P(AllModels, GeneratesAndIsPure) {
    const Config cfg = small_config(GetParam());
    const Result a   = generate(cfg, 1, 4);
    const Result b   = generate(cfg, 1, 4);
    EXPECT_EQ(a.edges, b.edges) << model_name(cfg.model);
    EXPECT_GE(a.n, cfg.n);
    for (const auto& [u, v] : a.edges) {
        EXPECT_LT(u, a.n);
        EXPECT_LT(v, a.n);
    }
}

TEST_P(AllModels, UnionAcrossPesIsNonEmptyAndConsumable) {
    const Config cfg  = small_config(GetParam());
    const auto per_pe = pe::run_all(4, [&](u64 rank, u64 size) {
        return generate(cfg, rank, size).edges;
    });
    const EdgeList all = pe::union_undirected(per_pe);
    ASSERT_FALSE(all.empty()) << model_name(cfg.model);
    const u64 n = generate(cfg, 0, 1).n;
    // Downstream pipeline: CSR + components must both work.
    const Csr csr = build_csr(all, n, /*symmetrize=*/true);
    EXPECT_EQ(csr.num_vertices(), n);
    EXPECT_GE(connected_components(all, n), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllModels,
    ::testing::Values(Model::GnmDirected, Model::GnmUndirected, Model::GnpDirected,
                      Model::GnpUndirected, Model::Rgg2D, Model::Rgg3D, Model::Rdg2D,
                      Model::Rdg3D, Model::Rhg, Model::RhgStreaming, Model::Ba,
                      Model::Rmat),
    [](const ::testing::TestParamInfo<Model>& info) {
        return model_name(info.param);
    });

TEST(Facade, RmatRoundsVertexCount) {
    Config cfg = small_config(Model::Rmat);
    cfg.n      = 1000; // not a power of two
    EXPECT_EQ(generate(cfg, 0, 1).n, 1024u);
    EXPECT_EQ(num_vertices(cfg), 1024u);
}

TEST(Facade, RmatHandlesDegenerateVertexCounts) {
    // Regression: the old round-up loop turned n = 0 into a 1-vertex graph
    // and relied on iterating a shift towards overflow; n <= 1 must yield
    // exactly n vertices and no edges (the 2^0-vertex "graph" has no
    // non-trivial adjacency matrix to recurse on).
    Config cfg = small_config(Model::Rmat);
    cfg.m      = 50;
    for (const u64 n : {u64{0}, u64{1}}) {
        cfg.n          = n;
        const Result r = generate(cfg, 0, 1);
        EXPECT_EQ(r.n, n);
        EXPECT_TRUE(r.edges.empty());
    }
    cfg.n = 2; // smallest non-degenerate instance: one recursion level
    const Result r2 = generate(cfg, 0, 1);
    EXPECT_EQ(r2.n, 2u);
    EXPECT_EQ(r2.edges.size(), cfg.m);
    for (const auto& [u, v] : r2.edges) {
        EXPECT_LT(u, 2u);
        EXPECT_LT(v, 2u);
    }
    // Powers of two must not round up further.
    cfg.n = 512;
    EXPECT_EQ(num_vertices(cfg), 512u);
    // Beyond 2^63 the power-of-two round-up cannot be represented — both
    // the EdgeList path and the streaming path must refuse up front.
    cfg.n = (u64{1} << 63) + 1;
    EXPECT_THROW(num_vertices(cfg), std::invalid_argument);
    MemorySink sink;
    EXPECT_THROW(generate(cfg, 0, 1, sink), std::invalid_argument);
    EXPECT_THROW(generate_chunked(cfg, 2, sink), std::invalid_argument);
}

TEST(Facade, InvalidRankThrows) {
    const Config cfg = small_config(Model::GnmDirected);
    EXPECT_THROW(generate(cfg, 4, 4), std::invalid_argument);
    EXPECT_THROW(generate(cfg, 0, 0), std::invalid_argument);
}

TEST(PeHarness, ThreadedAndSequentialAgree) {
    const Config cfg = small_config(Model::Rgg2D);
    const auto seq = pe::run_all(8, [&](u64 r, u64 s) { return generate(cfg, r, s).edges; },
                                 /*threaded=*/false);
    const auto thr = pe::run_all(8, [&](u64 r, u64 s) { return generate(cfg, r, s).edges; },
                                 /*threaded=*/true);
    EXPECT_EQ(seq, thr);
}

TEST(PeHarness, RunTimedReturnsPositive) {
    const Config cfg = small_config(Model::GnmDirected);
    const double t = pe::run_timed(4, [&](u64 r, u64 s) { return generate(cfg, r, s).edges; });
    EXPECT_GT(t, 0.0);
}

TEST(GraphStats, CsrAndComponentsOnKnownGraph) {
    // Path 0-1-2-3 plus isolated 4.
    const EdgeList edges{{0, 1}, {1, 2}, {2, 3}};
    const Csr g = build_csr(edges, 5, true);
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_EQ(connected_components(edges, 5), 2u);
}

TEST(GraphStats, ClusteringCoefficientKnownValues) {
    // Triangle: coefficient 1. Star: coefficient 0.
    EXPECT_DOUBLE_EQ(global_clustering_coefficient({{0, 1}, {1, 2}, {0, 2}}, 3), 1.0);
    EXPECT_DOUBLE_EQ(global_clustering_coefficient({{0, 1}, {0, 2}, {0, 3}}, 4), 0.0);
}

} // namespace
} // namespace kagen
