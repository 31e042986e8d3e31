// RDG generator: exact equivalence with the periodic (3^D replication)
// reference triangulation, torus Euler identity, cross-PE invariants.
#include <gtest/gtest.h>

#include <set>

#include "common/math.hpp"
#include "graph/stats.hpp"
#include "pe/pe.hpp"
#include "rdg/rdg.hpp"
#include "rgg/rgg.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

struct RdgCase {
    u64 n;
    u64 P;
};

class Rdg2D : public ::testing::TestWithParam<RdgCase> {};
class Rdg3D : public ::testing::TestWithParam<RdgCase> {};

TEST_P(Rdg2D, UnionEqualsPeriodicReference) {
    const auto [n, P] = GetParam();
    const rdg::Params params{n, /*seed=*/11};
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rdg::generate<2>(params, rank, size, sink);
        });
    });
    const EdgeList got  = pe::union_undirected(per_pe);
    const EdgeList want = rdg::reference<2>(params, P);
    EXPECT_EQ(got, want);
}

TEST_P(Rdg3D, UnionEqualsPeriodicReference) {
    const auto [n, P] = GetParam();
    const rdg::Params params{n, /*seed=*/12};
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rdg::generate<3>(params, rank, size, sink);
        });
    });
    const EdgeList got  = pe::union_undirected(per_pe);
    const EdgeList want = rdg::reference<3>(params, P);
    EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, Rdg2D,
    ::testing::Values(RdgCase{60, 1},   //
                      RdgCase{60, 4},   //
                      RdgCase{300, 4},  //
                      RdgCase{300, 7},  // non-power-of-two PEs
                      RdgCase{800, 16}, //
                      RdgCase{12, 4},   // few points: halo wraps fully
                      RdgCase{3, 2}     // degenerate torus
                      ));

INSTANTIATE_TEST_SUITE_P(
    Spectrum, Rdg3D,
    ::testing::Values(RdgCase{50, 1},  //
                      RdgCase{50, 8},  //
                      RdgCase{200, 8}, //
                      RdgCase{200, 5}  // non-power-of-eight PEs
                      ));

TEST(Rdg, TorusEulerIdentity2D) {
    // A triangulated torus satisfies V - E + F = 0 and 3F = 2E, hence
    // E = 3V exactly (assuming no collapsed parallel edges, which holds
    // w.h.p. for uniform points at this size).
    for (u64 seed : {1u, 2u, 3u}) {
        const rdg::Params params{500, seed};
        const auto per_pe = pe::run_all(4, [&](u64 rank, u64 size) {
            return collect([&](EdgeSink& sink) {
                rdg::generate<2>(params, rank, size, sink);
            });
        });
        EXPECT_EQ(pe::union_undirected(per_pe).size(), 3 * params.n) << "seed " << seed;
    }
}

TEST(Rdg, MinimumDegreeOnTorus) {
    // Every vertex of a 2D triangulation has degree >= 3; in 3D >= 4.
    const rdg::Params params{400, 9};
    const auto e2 = pe::union_undirected(pe::run_all(4, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { rdg::generate<2>(params, r, s, sink); });
    }));
    for (const u64 d : degrees(e2, params.n)) EXPECT_GE(d, 3u);
    const rdg::Params params3{200, 9};
    const auto e3 = pe::union_undirected(pe::run_all(8, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { rdg::generate<3>(params3, r, s, sink); });
    }));
    for (const u64 d : degrees(e3, params3.n)) EXPECT_GE(d, 4u);
}

TEST(Rdg, TorusGraphIsConnected) {
    const rdg::Params params{600, 21};
    const auto edges = pe::union_undirected(pe::run_all(4, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { rdg::generate<2>(params, r, s, sink); });
    }));
    EXPECT_EQ(connected_components(edges, params.n), 1u);
}

TEST(Rdg, DeterministicPerRank) {
    const rdg::Params params{300, 5};
    const auto rdg2 = [&](EdgeSink& sink) { rdg::generate<2>(params, 1, 4, sink); };
    const auto rdg3 = [&](EdgeSink& sink) { rdg::generate<3>(params, 3, 8, sink); };
    EXPECT_EQ(collect(rdg2), collect(rdg2));
    EXPECT_EQ(collect(rdg3), collect(rdg3));
}

TEST(Rdg, CrossPeEdgesAppearOnBothOwners) {
    const rdg::Params params{400, 33};
    constexpr u64 P = 4;
    const auto grid = rdg::point_grid<2>(params, P);
    const u32 b       = rgg::chunk_levels<2>(P);
    const u32 shift   = (grid.levels() - b) * 2;
    const u64 nchunks = u64{1} << (2 * b);
    std::vector<u64> owner(params.n);
    for (u64 cell = 0; cell < grid.num_cells(); ++cell) {
        const u64 pe = block_owner(nchunks, P, cell >> shift);
        for (const auto& p : grid.cell_points(cell)) owner[p.id] = pe;
    }
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rdg::generate<2>(params, rank, size, sink);
        });
    });
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) sets[r].insert(per_pe[r].begin(), per_pe[r].end());
    for (const auto& e : pe::union_undirected(per_pe)) {
        EXPECT_TRUE(sets[owner[e.first]].count(e));
        EXPECT_TRUE(sets[owner[e.second]].count(e));
    }
}

TEST(Rdg, AverageDegreeNearSixOnTorus2D) {
    // E = 3V  =>  average degree exactly 6 on the torus.
    const rdg::Params params{1000, 77};
    const auto edges = pe::union_undirected(pe::run_all(9, [&](u64 r, u64 s) {
        return collect([&](EdgeSink& sink) { rdg::generate<2>(params, r, s, sink); });
    }));
    const auto degs = degrees(edges, params.n);
    EXPECT_NEAR(average_degree(degs), 6.0, 0.05);
}

} // namespace
} // namespace kagen
