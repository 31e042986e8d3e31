// Stochastic block model (the paper's §9 future-work extension): density
// per block pair, degeneration to G(n,p), cross-PE redundancy, determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/math.hpp"
#include "er/er.hpp"
#include "graph/stats.hpp"
#include "pe/pe.hpp"
#include "sbm/sbm.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

class SbmPeCounts : public ::testing::TestWithParam<u64> {};

TEST_P(SbmPeCounts, UnionIndependentOfPeCount) {
    const u64 P       = GetParam();
    const auto params = sbm::planted_partition(300, 4, 0.1, 0.01, 7);
    const auto seq    = pe::union_undirected(pe::run_all(1, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
    }));
    const auto par    = pe::union_undirected(pe::run_all(P, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
    }));
    // Region seeds depend only on global matrix coordinates of the overlay,
    // but the overlay itself depends on P; equality therefore holds at the
    // *distribution* level, not bitwise. Here we check the structural
    // invariants that must hold for every P.
    EXPECT_FALSE(has_self_loop(par));
    for (const auto& [u, v] : par) { // canonical form after union
        EXPECT_LT(u, v);
        EXPECT_LT(v, sbm::num_vertices(params));
    }
    // The raw per-PE outputs use the lower-triangle convention (u > v).
    for (const auto& part : pe::run_all(P, [&](u64 r, u64 s) {
             return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
         })) {
        for (const auto& [u, v] : part) EXPECT_GT(u, v);
    }
    // Densities should be statistically close (same model): compare total
    // edge counts loosely.
    const double tol = 6 * std::sqrt(static_cast<double>(seq.size()));
    EXPECT_NEAR(static_cast<double>(par.size()), static_cast<double>(seq.size()), tol);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, SbmPeCounts, ::testing::Values(2, 3, 8));

TEST(Sbm, BlockPairDensitiesMatchProbabilities) {
    // 3 blocks with a full probability matrix; measure each pair's density.
    sbm::Params params;
    params.block_sizes = {200, 300, 100};
    params.probs       = {{0.20, 0.02, 0.05},
                          {0.02, 0.10, 0.01},
                          {0.05, 0.01, 0.30}};
    params.seed        = 3;
    const u64 n        = sbm::num_vertices(params);

    // Average counts over several seeds for tight bounds.
    constexpr int kRuns = 30;
    double counts[3][3] = {};
    for (int run = 0; run < kRuns; ++run) {
        params.seed       = 100 + run;
        const auto per_pe = pe::run_all(4, [&](u64 r, u64 s) {
            return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
        });
        auto block_of = [&](u64 v) { return v < 200 ? 0 : (v < 500 ? 1 : 2); };
        for (const auto& [u, v] : pe::union_undirected(per_pe)) {
            const int bu = block_of(u);
            const int bv = block_of(v);
            counts[std::max(bu, bv)][std::min(bu, bv)] += 1.0;
        }
    }
    const double sizes[3] = {200, 300, 100};
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j <= i; ++j) {
            const double pairs =
                i == j ? sizes[i] * (sizes[i] - 1) / 2 : sizes[i] * sizes[j];
            const double expected = pairs * params.probs[i][j];
            const double tol      = 6 * std::sqrt(expected / kRuns) + 1;
            EXPECT_NEAR(counts[i][j] / kRuns, expected, tol)
                << "block pair (" << i << "," << j << ")";
        }
    }
}

TEST(Sbm, SingleBlockMatchesGnpDistribution) {
    // One block with probability p is exactly G(n,p); compare mean counts.
    constexpr u64 n    = 400;
    constexpr double p = 0.03;
    double sbm_sum = 0, gnp_sum = 0;
    constexpr int kRuns = 40;
    for (int run = 0; run < kRuns; ++run) {
        sbm::Params params;
        params.block_sizes = {n};
        params.probs       = {{p}};
        params.seed        = 500 + run;
        sbm_sum += static_cast<double>(
            pe::union_undirected(pe::run_all(3, [&](u64 r, u64 s) {
                return collect([&](EdgeSink& sink) {
                    sbm::generate(params, r, s, sink);
                });
            })).size());
        gnp_sum += static_cast<double>(
            pe::union_undirected(pe::run_all(3, [&](u64 r, u64 s) {
                return collect([&](EdgeSink& sink) {
                    er::gnp_undirected(n, p, 500 + run, r, s, sink);
                });
            })).size());
    }
    const double expected = static_cast<double>(n) * (n - 1) / 2 * p;
    const double tol      = 6 * std::sqrt(expected / kRuns);
    EXPECT_NEAR(sbm_sum / kRuns, expected, tol);
    EXPECT_NEAR(gnp_sum / kRuns, expected, tol);
}

TEST(Sbm, RedundancyAcrossOwners) {
    const auto params = sbm::planted_partition(240, 3, 0.2, 0.02, 11);
    const u64 n       = sbm::num_vertices(params);
    constexpr u64 P   = 5;
    const auto per_pe = pe::run_all(P, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
    });
    // Compare in canonical (min, max) form: the generator emits (u > v).
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) {
        for (const auto& [u, v] : per_pe[r]) {
            sets[r].insert({std::min(u, v), std::max(u, v)});
        }
    }
    for (const auto& e : pe::union_undirected(per_pe)) {
        EXPECT_TRUE(sets[block_owner(n, P, e.first)].count(e));
        EXPECT_TRUE(sets[block_owner(n, P, e.second)].count(e));
    }
}

TEST(Sbm, CommunityStructureIsDetectable) {
    // Strong planted partition: intra-block degree must dominate.
    const auto params = sbm::planted_partition(600, 3, 0.2, 0.002, 13);
    const auto edges  = pe::union_undirected(pe::run_all(4, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
    }));
    u64 intra = 0, inter = 0;
    for (const auto& [u, v] : edges) {
        (u / 200 == v / 200 ? intra : inter) += 1;
    }
    EXPECT_GT(intra, 10 * inter);
}

TEST(Sbm, ZeroAndOneProbabilities) {
    sbm::Params params;
    params.block_sizes = {10, 10};
    params.probs       = {{1.0, 0.0}, {0.0, 1.0}};
    params.seed        = 1;
    const auto edges   = pe::union_undirected(pe::run_all(2, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
    }));
    // Two disjoint cliques of 10: 2 * C(10,2) = 90 edges, none crossing.
    EXPECT_EQ(edges.size(), 90u);
    for (const auto& [u, v] : edges) EXPECT_EQ(u / 10, v / 10);
}

TEST(Sbm, DeterministicPerRank) {
    const auto params = sbm::planted_partition(500, 5, 0.05, 0.01, 21);
    const auto rank2 = [&](EdgeSink& sink) { sbm::generate(params, 2, 4, sink); };
    EXPECT_EQ(collect(rank2), collect(rank2));
}

TEST(Sbm, UnevenBlockAndChunkBoundaries) {
    // Blocks that straddle chunk boundaries in awkward ways.
    sbm::Params params;
    params.block_sizes = {7, 13, 31, 5};
    params.probs.assign(4, std::vector<double>(4, 0.15));
    params.seed = 9;
    const u64 n = sbm::num_vertices(params);
    const auto edges = pe::union_undirected(pe::run_all(7, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { sbm::generate(params, r, s, sink); });
    }));
    EXPECT_FALSE(has_self_loop(edges));
    for (const auto& [u, v] : edges) {
        EXPECT_LT(u, n);
        EXPECT_LT(v, n);
    }
    // Uniform 0.15 over all pairs == G(n, 0.15): sanity-check the count.
    const double expected = static_cast<double>(n) * (n - 1) / 2 * 0.15;
    EXPECT_NEAR(static_cast<double>(edges.size()), expected, 6 * std::sqrt(expected));
}

} // namespace
} // namespace kagen
