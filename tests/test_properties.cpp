// Cross-module property tests: model-level invariants swept over PE counts,
// seeds and parameters — the "communication-freedom" guarantees the paper's
// abstract promises, checked wholesale.
#include <gtest/gtest.h>

#include <set>

#include "common/math.hpp"
#include "er/er.hpp"
#include "graph/stats.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "pe/pe.hpp"
#include "rdg/rdg.hpp"
#include "rgg/rgg.hpp"
#include "rhg/rhg.hpp"
#include "sampling/sampling.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

// ---- Distributed sampler: the per-chunk counts across *any* chunking
// follow the multivariate hypergeometric marginals.
class ChunkedSamplerSweep : public ::testing::TestWithParam<u64> {};

TEST_P(ChunkedSamplerSweep, MarginalMeansMatch) {
    const u64 chunks = GetParam();
    constexpr u64 kRows = 996, kWidth = 7, kSamples = 2000, kRuns = 600;
    std::vector<double> sums(chunks, 0.0);
    for (u64 seed = 0; seed < kRuns; ++seed) {
        ChunkedSampler sampler(seed, make_row_universe(kRows, chunks, kWidth), kSamples);
        for (u64 c = 0; c < chunks; ++c) {
            sums[c] += static_cast<double>(sampler.samples_in_chunk(c));
        }
    }
    const double total = static_cast<double>(kRows) * kWidth;
    for (u64 c = 0; c < chunks; ++c) {
        const double frac =
            static_cast<double>(block_size(kRows, chunks, c)) * kWidth / total;
        const double expected = kSamples * frac;
        const double sd       = std::sqrt(expected * (1 - frac));
        EXPECT_NEAR(sums[c] / kRuns, expected, 6 * sd / std::sqrt(double(kRuns)))
            << "chunk " << c << " of " << chunks;
    }
}

INSTANTIATE_TEST_SUITE_P(Chunkings, ChunkedSamplerSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 32));

// ---- Sorted sampling agrees with Floyd sampling in distribution
// (cross-validation of two independent implementations).
TEST(SamplerCrossValidation, VitterAndFloydInclusionAgree) {
    constexpr u64 kUniverse = 5000, kK = 200, kRuns = 3000, kBuckets = 25;
    Rng rng_v(1), rng_f(2);
    std::vector<double> vitter(kBuckets, 0.0), floyd(kBuckets, 0.0);
    const u64 width = kUniverse / kBuckets;
    for (u64 r = 0; r < kRuns; ++r) {
        sorted_sample(rng_v, kUniverse, kK, [&](u64 x) { vitter[x / width] += 1.0; });
        for (const u64 x : floyd_sample(rng_f, kUniverse, kK)) {
            floyd[x / width] += 1.0;
        }
    }
    // Both should be uniform; compare each against the common expectation.
    const std::vector<double> expected(kBuckets,
                                       static_cast<double>(kRuns * kK) / kBuckets);
    EXPECT_LT(testing::chi_square(vitter, expected),
              testing::chi_square_critical(kBuckets - 1));
    EXPECT_LT(testing::chi_square(floyd, expected),
              testing::chi_square_critical(kBuckets - 1));
}

// ---- G(n,m): degree distribution is exchangeable — every vertex has the
// same expected degree regardless of which PE owns it.
TEST(ErProperties, DegreesAreExchangeableAcrossChunkBoundaries) {
    constexpr u64 n = 60, m = 200, P = 4, kRuns = 3000;
    std::vector<double> sums(n, 0.0);
    for (u64 seed = 0; seed < kRuns; ++seed) {
        const auto per_pe = pe::run_all(P, [&](u64 r, u64 s) {
            return collect([&](EdgeSink& sink) {
                er::gnm_undirected(n, m, seed, r, s, sink);
            });
        });
        for (const auto& [u, v] : pe::union_undirected(per_pe)) {
            sums[u] += 1.0;
            sums[v] += 1.0;
        }
    }
    const double expected = 2.0 * m / n * kRuns;
    const std::vector<double> exp_vec(n, expected);
    EXPECT_LT(testing::chi_square(sums, exp_vec), testing::chi_square_critical(n - 1));
}

// ---- The three spatial/hyperbolic models: union equality holds for a
// sweep of seeds (not just the single fixed seed of the per-module tests).
class SeedSweep : public ::testing::TestWithParam<u64> {};

TEST_P(SeedSweep, RggUnionExactness) {
    const u64 seed = GetParam();
    const rgg::Params params{400, 0.07, seed};
    const auto per_pe = pe::run_all(5, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { rgg::generate<2>(params, r, s, sink); });
    });
    EXPECT_EQ(pe::union_undirected(per_pe), undirected_set(rgg::brute_force<2>(params, 5)));
}

TEST_P(SeedSweep, RdgUnionExactness) {
    const u64 seed = GetParam();
    const rdg::Params params{250, seed};
    const auto per_pe = pe::run_all(4, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { rdg::generate<2>(params, r, s, sink); });
    });
    EXPECT_EQ(pe::union_undirected(per_pe), rdg::reference<2>(params, 4));
}

TEST_P(SeedSweep, RhgStreamingMatchesInMemory) {
    const u64 seed = GetParam();
    const hyp::Params params{700, 10, 2.7, seed};
    const auto a = pe::union_undirected(pe::run_all(3, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) {
            rhg::generate_inmemory(params, r, s, sink);
        });
    }));
    const auto b = pe::union_undirected(pe::run_all(3, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) {
            rhg::generate_streaming(params, r, s, sink);
        });
    }));
    EXPECT_EQ(a, b) << "the two generators must produce the same graph";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11, 223, 3117, 48221, 591133));

// ---- Hyperbolic utilities.
TEST(HyperbolicSpace, RadialCdfIsAProperCdf) {
    const hyp::Space space(hyp::Params{10000, 12, 2.6, 1});
    EXPECT_NEAR(space.radial_cdf(0.0), 0.0, 1e-12);
    EXPECT_NEAR(space.radial_cdf(space.radius()), 1.0, 1e-9);
    double prev = -1.0;
    for (int i = 0; i <= 20; ++i) {
        const double c = space.radial_cdf(space.radius() * i / 20);
        EXPECT_GE(c, prev);
        prev = c;
    }
}

TEST(HyperbolicSpace, InverseRadialInvertsCdf) {
    const hyp::Space space(hyp::Params{5000, 8, 3.0, 1});
    const double a = 2.0, b = space.radius();
    for (const double u : {0.0, 0.1, 0.5, 0.9, 0.999}) {
        const double r = space.inv_radial(a, b, u);
        EXPECT_GE(r, a - 1e-9);
        EXPECT_LE(r, b + 1e-9);
        // F(r | [a,b]) == u
        const double fa = space.radial_cdf(a), fb = space.radial_cdf(b);
        EXPECT_NEAR((space.radial_cdf(r) - fa) / (fb - fa), u, 1e-6);
    }
}

TEST(HyperbolicSpace, DeltaThetaMonotoneDecreasingInRadius) {
    const hyp::Space space(hyp::Params{100000, 16, 2.9, 1});
    const double r = 0.7 * space.radius();
    double prev    = std::numbers::pi + 1e-9;
    for (int i = 1; i <= 10; ++i) {
        const double b  = space.radius() * i / 10.0;
        const double dt = space.delta_theta(r, b);
        EXPECT_LE(dt, prev + 1e-12) << "wider targets shrink the window";
        prev = dt;
    }
}

TEST(HyperbolicSpace, TriangleShortcutConsistent) {
    // r_p + r_q < R must imply edge under both predicates.
    const hyp::Space space(hyp::Params{10000, 16, 2.9, 1});
    const auto p = space.make_point(0, 0.3 * space.radius(), 1.0);
    const auto q = space.make_point(1, 0.5 * space.radius(), 4.0);
    EXPECT_TRUE(space.edge(p, q));
    EXPECT_LT(space.distance(p, q), space.radius());
}

// ---- PE harness contracts.
TEST(PeHarness, UnionHelpersDeduplicate) {
    const std::vector<EdgeList> parts{{{1, 2}, {3, 1}}, {{2, 1}, {1, 3}}};
    const auto undirected = pe::union_undirected(parts);
    EXPECT_EQ(undirected, (EdgeList{{1, 2}, {1, 3}}));
    const auto directed = pe::union_directed(parts);
    EXPECT_EQ(directed, (EdgeList{{1, 2}, {1, 3}, {2, 1}, {3, 1}}));
}

TEST(PeHarness, SingleRank) {
    const auto parts = pe::run_all(1, [](u64 rank, u64 size) {
        EXPECT_EQ(rank, 0u);
        EXPECT_EQ(size, 1u);
        return EdgeList{{0, 1}};
    });
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0].size(), 1u);
}

// ---- Graph statistics on analytically known inputs.
TEST(GraphStats, PowerLawMleOnSyntheticParetoTail) {
    // Degrees drawn from an exact discrete power law via inverse transform.
    Rng rng(5);
    constexpr double kGamma = 2.5;
    std::vector<u64> degs;
    for (int i = 0; i < 200000; ++i) {
        const double u = rng.uniform_pos();
        degs.push_back(static_cast<u64>(10.0 * std::pow(u, -1.0 / (kGamma - 1.0))));
    }
    // The CSN estimator is a continuous approximation of the discrete MLE;
    // flooring the Pareto draws biases it slightly low.
    EXPECT_NEAR(power_law_exponent_mle(degs, 10), kGamma, 0.12);
}

TEST(GraphStats, ClusteringOfCompleteGraph) {
    EdgeList k5;
    for (u64 u = 0; u < 5; ++u) {
        for (u64 v = u + 1; v < 5; ++v) k5.emplace_back(u, v);
    }
    EXPECT_DOUBLE_EQ(global_clustering_coefficient(k5, 5), 1.0);
}

TEST(GraphStats, DegreeHelpersConsistent) {
    const EdgeList edges{{0, 1}, {0, 2}, {0, 3}, {1, 2}};
    const auto degs = degrees(edges, 4);
    EXPECT_EQ(degs, (std::vector<u64>{3, 2, 2, 1}));
    EXPECT_EQ(max_degree(degs), 3u);
    EXPECT_DOUBLE_EQ(average_degree(degs), 2.0);
    const auto outs = out_degrees(edges, 4);
    EXPECT_EQ(outs, (std::vector<u64>{3, 1, 0, 0}));
}

} // namespace
} // namespace kagen
