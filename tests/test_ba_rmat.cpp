// Barabási–Albert and R-MAT generators: PE-count invariance (the BA output
// is bit-identical for every P), preferential-attachment statistics,
// R-MAT quadrant distribution and skew.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "ba/ba.hpp"
#include "graph/stats.hpp"
#include "pe/pe.hpp"
#include "rmat/rmat.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

class BaPeCounts : public ::testing::TestWithParam<u64> {};

TEST_P(BaPeCounts, OutputIndependentOfPeCount) {
    const u64 P = GetParam();
    const ba::Params params{500, 3, 7};
    const EdgeList sequential = collect([&](EdgeSink& sink) {
        ba::generate(params, 0, 1, sink);
    });
    EdgeList combined;
    for (u64 rank = 0; rank < P; ++rank) {
        append(combined, collect([&](EdgeSink& sink) {
            ba::generate(params, rank, P, sink);
        }));
    }
    EXPECT_EQ(combined, sequential) << "BA must be invariant under P";
}

INSTANTIATE_TEST_SUITE_P(PeCounts, BaPeCounts, ::testing::Values(2, 3, 8, 16));

TEST(Ba, ExactEdgeCountAndSources) {
    const ba::Params params{1000, 5, 3};
    const auto edges = collect([&](EdgeSink& sink) { ba::generate(params, 0, 1, sink); });
    ASSERT_EQ(edges.size(), params.n * params.degree);
    for (u64 v = 0; v < params.n; ++v) {
        for (u64 i = 0; i < params.degree; ++i) {
            EXPECT_EQ(edges[v * params.degree + i].first, v);
        }
    }
}

TEST(Ba, TargetsAreEarlierOrEqualVertices) {
    // Edge i of vertex v resolves through positions < 2(vd+i)+1, so the
    // target can never exceed v.
    const ba::Params params{2000, 4, 11};
    const EdgeList edges = collect([&](EdgeSink& sink) {
        ba::generate(params, 0, 1, sink);
    });
    for (const auto& [v, target] : edges) {
        EXPECT_LE(target, v);
    }
}

TEST(Ba, ResolveIsDeterministic) {
    const ba::Params params{100, 2, 13};
    for (u64 pos = 0; pos < 400; ++pos) {
        EXPECT_EQ(ba::resolve(params, pos), ba::resolve(params, pos));
    }
    // Even positions decode directly.
    EXPECT_EQ(ba::resolve(params, 2 * 42), 42 / params.degree);
}

TEST(Ba, DegreeDistributionIsHeavyTailed) {
    // BB preferential attachment yields gamma ~ 3; at minimum the max
    // degree must far exceed the average and early vertices must dominate.
    const ba::Params params{50000, 4, 17};
    const auto edges = collect([&](EdgeSink& sink) { ba::generate(params, 0, 1, sink); });
    std::vector<u64> degs(params.n, 0);
    for (const auto& [u, v] : edges) {
        ++degs[u];
        ++degs[v];
    }
    const double avg = average_degree(degs);
    EXPECT_NEAR(avg, 2.0 * params.degree, 0.02 * avg);
    EXPECT_GT(max_degree(degs), static_cast<u64>(20 * avg));
    const double gamma = power_law_exponent_mle(degs, 20);
    EXPECT_NEAR(gamma, 3.0, 0.6);
    // The earliest decile must hold a disproportionate share of the degree.
    u128 early = 0, total = 0;
    for (u64 v = 0; v < params.n; ++v) {
        total += degs[v];
        if (v < params.n / 10) early += degs[v];
    }
    EXPECT_GT(static_cast<double>(early) / static_cast<double>(total), 0.2);
}

class RmatPeCounts : public ::testing::TestWithParam<u64> {};

TEST_P(RmatPeCounts, OutputIndependentOfPeCount) {
    const u64 P = GetParam();
    const rmat::Params params{10, 4000, 0.57, 0.19, 0.19, 5};
    const EdgeList sequential = collect([&](EdgeSink& sink) {
        rmat::generate(params, 0, 1, sink);
    });
    EdgeList combined;
    for (u64 rank = 0; rank < P; ++rank) {
        append(combined, collect([&](EdgeSink& sink) {
            rmat::generate(params, rank, P, sink);
        }));
    }
    EXPECT_EQ(combined, sequential);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, RmatPeCounts, ::testing::Values(2, 5, 8, 32));

TEST(Rmat, EdgesWithinVertexRange) {
    const rmat::Params params{8, 10000, 0.57, 0.19, 0.19, 9};
    const EdgeList edges = collect([&](EdgeSink& sink) {
        rmat::generate(params, 0, 1, sink);
    });
    for (const auto& [u, v] : edges) {
        EXPECT_LT(u, u64{1} << params.log_n);
        EXPECT_LT(v, u64{1} << params.log_n);
    }
}

TEST(Rmat, TopLevelQuadrantProportions) {
    // The first recursion level splits edges among quadrants with
    // probabilities (a, b, c, d); chi-square over the observed split.
    const rmat::Params params{12, 200000, 0.5, 0.2, 0.2, 21};
    const u64 half = u64{1} << (params.log_n - 1);
    std::vector<double> counts(4, 0.0);
    const EdgeList edges = collect([&](EdgeSink& sink) {
        rmat::generate(params, 0, 1, sink);
    });
    for (const auto& [u, v] : edges) {
        const int q = (u >= half ? 2 : 0) + (v >= half ? 1 : 0);
        counts[q] += 1.0;
    }
    const double m = static_cast<double>(params.m);
    const std::vector<double> expected{0.5 * m, 0.2 * m, 0.2 * m, 0.1 * m};
    EXPECT_LT(testing::chi_square(counts, expected), testing::chi_square_critical(3));
}

TEST(Rmat, SkewedParametersProduceSkewedDegrees) {
    const rmat::Params params{14, 1u << 18, 0.57, 0.19, 0.19, 33};
    const auto edges = collect([&](EdgeSink& sink) {
        rmat::generate(params, 0, 1, sink);
    });
    const auto degs  = out_degrees(edges, u64{1} << params.log_n);
    const double avg = average_degree(degs);
    EXPECT_GT(max_degree(degs), static_cast<u64>(30 * avg))
        << "R-MAT with Graph500 parameters must produce heavy hubs";
}

TEST(Rmat, UniformParametersApproximateEr) {
    // a = b = c = d = 0.25 degenerates R-MAT to uniform edge sampling.
    const rmat::Params params{10, 100000, 0.25, 0.25, 0.25, 41};
    const auto edges = collect([&](EdgeSink& sink) {
        rmat::generate(params, 0, 1, sink);
    });
    const u64 n      = u64{1} << params.log_n;
    std::vector<double> row_counts(16, 0.0);
    for (const auto& e : edges) row_counts[e.first / (n / 16)] += 1.0;
    const std::vector<double> expected(16, static_cast<double>(params.m) / 16);
    EXPECT_LT(testing::chi_square(row_counts, expected),
              testing::chi_square_critical(15));
}

TEST(Rmat, EdgeAtMatchesGenerate) {
    const rmat::Params params{9, 500, 0.57, 0.19, 0.19, 55};
    const auto edges = collect([&](EdgeSink& sink) {
        rmat::generate(params, 0, 1, sink);
    });
    for (u64 i = 0; i < params.m; i += 37) {
        EXPECT_EQ(edges[i], rmat::edge_at(params, i));
    }
}

} // namespace
} // namespace kagen
