// Random hyperbolic graphs: both generators must reproduce the brute-force
// edge set on the identical point structure (the in-memory one rank by
// rank); model-level statistics (average degree, power-law exponent) must
// match the parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "graph/stats.hpp"
#include "hyperbolic/hyperbolic.hpp"
#include "obs/metrics.hpp"
#include "pe/pe.hpp"
#include "rhg/rhg.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

struct RhgCase {
    u64 n;
    double avg_deg;
    double gamma;
    u64 P;
};

class RhgBoth : public ::testing::TestWithParam<RhgCase> {};

// §7.1's contract per rank, not just for the union: chunk `rank` of P emits
// exactly the brute-force edges with at least one endpoint it owns, sorted
// and each once — no missing cross-chunk edge, no stray or repeated one.
TEST_P(RhgBoth, InMemoryRankEmitsExactlyItsIncidentEdges) {
    const auto [n, d, g, P] = GetParam();
    const hyp::Params params{n, d, g, /*seed=*/5};
    const hyp::HypGrid grid(params, P);
    std::vector<u64> owner(n);
    for (u32 a = 0; a < grid.num_annuli(); ++a) {
        for (u64 c = 0; c < P; ++c) {
            for (const auto& p : grid.chunk_points(a, c)) owner[p.id] = c;
        }
    }
    const EdgeList all = rhg::brute_force(params, P);
    for (u64 rank = 0; rank < P; ++rank) {
        EdgeList expect;
        for (const auto& e : all) {
            if (owner[e.first] == rank || owner[e.second] == rank) expect.push_back(e);
        }
        EXPECT_EQ(collect([&](EdgeSink& sink) {
                      rhg::generate_inmemory(params, rank, P, sink);
                  }),
                  expect)
            << "rank " << rank;
    }
}

TEST_P(RhgBoth, StreamingUnionEqualsBruteForce) {
    const auto [n, d, g, P] = GetParam();
    const hyp::Params params{n, d, g, /*seed=*/5};
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rhg::generate_streaming(params, rank, size, sink);
        });
    });
    EXPECT_EQ(pe::union_undirected(per_pe), rhg::brute_force(params, P));
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, RhgBoth,
    ::testing::Values(RhgCase{500, 8, 3.0, 1},    //
                      RhgCase{500, 8, 3.0, 4},    //
                      RhgCase{500, 8, 3.0, 7},    // non-power-of-two PEs
                      RhgCase{1500, 16, 2.6, 1},  // one chunk: all pairs local
                      RhgCase{1500, 16, 2.6, 7},  //
                      RhgCase{1500, 16, 2.6, 8},  //
                      RhgCase{1500, 16, 2.2, 8},  // heavy tail
                      RhgCase{1500, 16, 2.1, 7},  // heavier: windows reach π
                      RhgCase{2000, 8, 2.9, 64},  // many empty chunks
                      RhgCase{2000, 8, 2.1, 64},  //
                      RhgCase{1000, 64, 3.0, 4},  // dense
                      RhgCase{2000, 4, 4.0, 16},  // sparse, light tail
                      RhgCase{50, 8, 3.0, 4},     // tiny: everything global
                      RhgCase{2, 4, 3.0, 2}       // degenerate
                      ));

TEST(RhgPoints, StructureIsDeterministicAndComplete) {
    const hyp::Params params{3000, 12, 2.8, 9};
    const hyp::HypGrid a(params, 4), b(params, 4);
    ASSERT_EQ(a.num_annuli(), b.num_annuli());
    u64 total = 0;
    std::set<VertexId> ids;
    for (u32 an = 0; an < a.num_annuli(); ++an) {
        EXPECT_EQ(a.annulus_count(an), b.annulus_count(an));
        for (u64 c = 0; c < 4; ++c) {
            const auto pa = a.chunk_points(an, c);
            const auto pb = b.chunk_points(an, c);
            ASSERT_EQ(pa.size(), pb.size());
            for (std::size_t i = 0; i < pa.size(); ++i) {
                EXPECT_EQ(pa[i].id, pb[i].id);
                EXPECT_EQ(pa[i].r, pb[i].r);
                EXPECT_EQ(pa[i].theta, pb[i].theta);
                ids.insert(pa[i].id);
                ++total;
            }
        }
    }
    EXPECT_EQ(total, params.n);
    EXPECT_EQ(ids.size(), params.n); // ids are a permutation of [0, n)
    EXPECT_EQ(*ids.rbegin(), params.n - 1);
}

TEST(RhgPoints, PointsLieInTheirAnnulusAndChunk) {
    const hyp::Params params{2000, 10, 3.0, 3};
    const hyp::HypGrid grid(params, 5);
    for (u32 a = 0; a < grid.num_annuli(); ++a) {
        for (u64 c = 0; c < 5; ++c) {
            double prev_theta = -1.0;
            for (const auto& p : grid.chunk_points(a, c)) {
                EXPECT_GE(p.r, grid.annulus_lower(a));
                EXPECT_LT(p.r, grid.annulus_upper(a) + 1e-12);
                EXPECT_GE(p.theta, grid.chunk_begin(c));
                EXPECT_LT(p.theta, grid.chunk_begin(c + 1));
                EXPECT_GE(p.theta, prev_theta) << "angle order within chunk";
                prev_theta = p.theta;
            }
        }
    }
}

TEST(RhgPoints, AngularDistributionIsUniform) {
    const hyp::Params params{100000, 8, 2.9, 77};
    const hyp::HypGrid grid(params, 8);
    std::vector<double> bins(16, 0.0);
    for (const auto& p : grid.all_points()) {
        const auto b = static_cast<std::size_t>(p.theta / (2 * std::numbers::pi) * 16);
        bins[std::min<std::size_t>(b, 15)] += 1.0;
    }
    const std::vector<double> expected(16, static_cast<double>(params.n) / 16);
    EXPECT_LT(testing::chi_square(bins, expected), testing::chi_square_critical(15));
}

TEST(RhgPoints, RadialDistributionMatchesDensity) {
    // Bin radii and compare against the analytic cdf (Eq. 3/A.2).
    const hyp::Params params{200000, 8, 2.5, 3};
    const hyp::HypGrid grid(params, 4);
    const auto& space = grid.space();
    constexpr int kBins = 12;
    std::vector<double> observed(kBins, 0.0);
    for (const auto& p : grid.all_points()) {
        const auto b =
            static_cast<std::size_t>(p.r / space.radius() * kBins);
        observed[std::min<std::size_t>(b, kBins - 1)] += 1.0;
    }
    std::vector<double> expected(kBins);
    for (int b = 0; b < kBins; ++b) {
        const double lo = space.radius() * b / kBins;
        const double hi = space.radius() * (b + 1) / kBins;
        expected[b] = (space.radial_cdf(hi) - space.radial_cdf(lo)) *
                      static_cast<double>(params.n);
    }
    // Merge tiny inner bins (tail mass) into one.
    std::vector<double> obs_m, exp_m;
    double oa = 0, ea = 0;
    for (int b = 0; b < kBins; ++b) {
        oa += observed[b];
        ea += expected[b];
        if (ea >= 8.0) {
            obs_m.push_back(oa);
            exp_m.push_back(ea);
            oa = ea = 0;
        }
    }
    EXPECT_LT(testing::chi_square(obs_m, exp_m),
              testing::chi_square_critical(static_cast<double>(obs_m.size() - 1)));
}

TEST(RhgSpace, EdgePredicateMatchesDistance) {
    // The trig-free Eq. 9 test must agree with the direct Eq. 4 distance.
    const hyp::Params params{5000, 16, 2.7, 13};
    const hyp::HypGrid grid(params, 2);
    const auto& space = grid.space();
    const auto pts    = grid.all_points();
    Rng rng(99);
    for (int t = 0; t < 200000; ++t) {
        const auto& p = pts[rng.range(pts.size())];
        const auto& q = pts[rng.range(pts.size())];
        if (p.id == q.id) continue;
        const bool fast = space.edge(p, q);
        const bool slow = space.distance(p, q) < space.radius();
        EXPECT_EQ(fast, slow) << "r_p=" << p.r << " r_q=" << q.r;
    }
}

TEST(RhgStats, AverageDegreeTracksTarget) {
    // Eq. (2) is asymptotic; allow a generous band but require the right
    // scale and monotonicity in the target degree.
    const u64 n = 30000;
    double prev = 0.0;
    for (const double target : {8.0, 16.0, 32.0}) {
        const hyp::Params params{n, target, 2.9, 4242};
        const auto per_pe = pe::run_all(8, [&](u64 rank, u64 size) {
            return collect([&](EdgeSink& sink) {
                rhg::generate_streaming(params, rank, size, sink);
            });
        });
        const auto edges  = pe::union_undirected(per_pe);
        const double mean = 2.0 * static_cast<double>(edges.size()) /
                            static_cast<double>(n);
        EXPECT_GT(mean, 0.55 * target);
        EXPECT_LT(mean, 1.8 * target);
        EXPECT_GT(mean, prev); // monotone in the target
        prev = mean;
    }
}

TEST(RhgStats, PowerLawExponentNearGamma) {
    const hyp::Params params{60000, 12, 2.6, 31};
    const auto per_pe = pe::run_all(8, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rhg::generate_streaming(params, rank, size, sink);
        });
    });
    const auto degs = degrees(pe::union_undirected(per_pe), params.n);
    const double est = power_law_exponent_mle(degs, 12);
    EXPECT_NEAR(est, params.gamma, 0.45);
}

TEST(RhgStats, HighDegreeVerticesSitAtSmallRadii) {
    const hyp::Params params{20000, 16, 2.5, 7};
    const hyp::HypGrid grid(params, 4);
    const auto per_pe = pe::run_all(4, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rhg::generate_inmemory(params, rank, size, sink);
        });
    });
    const auto degs = degrees(pe::union_undirected(per_pe), params.n);
    // Compare mean radius of the top-decile degree vertices vs the rest.
    std::vector<double> radius(params.n);
    for (const auto& p : grid.all_points()) radius[p.id] = p.r;
    std::vector<u64> order(params.n);
    std::iota(order.begin(), order.end(), u64{0});
    std::sort(order.begin(), order.end(),
              [&](u64 a, u64 b) { return degs[a] > degs[b]; });
    double hub_r = 0, rest_r = 0;
    const u64 top = params.n / 10;
    for (u64 i = 0; i < params.n; ++i) {
        (i < top ? hub_r : rest_r) += radius[order[i]];
    }
    hub_r /= static_cast<double>(top);
    rest_r /= static_cast<double>(params.n - top);
    EXPECT_LT(hub_r, rest_r - 1.0) << "hubs must concentrate near the center";
}

TEST(RhgGenerators, DeterministicPerRank) {
    const hyp::Params params{2000, 8, 2.8, 3};
    const auto inmemory = [&](EdgeSink& sink) {
        rhg::generate_inmemory(params, 2, 4, sink);
    };
    const auto streaming = [&](EdgeSink& sink) {
        rhg::generate_streaming(params, 2, 4, sink);
    };
    EXPECT_EQ(collect(inmemory), collect(inmemory));
    EXPECT_EQ(collect(streaming), collect(streaming));
}

// The in-memory bytes at the benchmark's scale, where the fixtures (n ≤ 3000)
// and the brute-force spectrum (n ≤ 2000) do not reach: a 64-bit FNV-1a
// digest of every chunk's stream, in chunk order, and the edge total. Any
// change to the query, the recompute or the sort that moves one byte
// changes a digest.
struct RhgDigestCase {
    double avg_deg;
    double gamma;
    u64 chunks;
    EdgeSemantics semantics;
    u64 edges;
    u64 digest;
};

TEST(RhgDigest, InMemoryStreamsAtBenchmarkScale) {
    const RhgDigestCase cases[] = {
        {16, 2.6, 64, EdgeSemantics::as_generated, 585932, 0x405cf06da5f9d111ull},
        {16, 2.6, 64, EdgeSemantics::exact_once, 527221, 0xa1539e9b068bcf20ull},
        // Windows reach π:
        {8, 2.1, 7, EdgeSemantics::as_generated, 141629, 0x975c3979ee584659ull},
        {8, 2.1, 7, EdgeSemantics::exact_once, 121516, 0x1047465c62e261f7ull},
    };
    for (const auto& c : cases) {
        const hyp::Params params{u64{1} << 16, c.avg_deg, c.gamma, /*seed=*/1};
        u64 edges  = 0;
        u64 digest = 0xcbf29ce484222325ull;
        for (u64 rank = 0; rank < c.chunks; ++rank) {
            for (const auto& [u, v] : collect([&](EdgeSink& sink) {
                     rhg::generate_inmemory(params, rank, c.chunks, sink, c.semantics);
                 })) {
                for (const u64 id : {u, v}) {
                    for (int b = 0; b < 64; b += 8) {
                        digest = (digest ^ ((id >> b) & 0xff)) * 0x100000001b3ull;
                    }
                }
                ++edges;
            }
        }
        SCOPED_TRACE(::testing::Message() << "d=" << c.avg_deg << " gamma=" << c.gamma
                                          << " C=" << c.chunks << " "
                                          << semantics_name(c.semantics));
        EXPECT_EQ(edges, c.edges);
        EXPECT_EQ(digest, c.digest) << "digest 0x" << std::hex << digest;
    }
}

TEST(RhgCounters, CountQueriesCandidatesAndRecomputedPoints) {
    // The live §7.1 cost counters: one query per (vertex, target annulus)
    // — every annulus as_generated; under exact_once only the annuli
    // j >= a of a vertex in annulus a, as the lower ones hold only lower
    // ids — at least one candidate per emitted edge (Lemma 10 only
    // overestimates), and no recomputation when a single chunk holds every
    // point.
    const hyp::Params params{3000, 12, 2.6, 21};
    for (const EdgeSemantics semantics :
         {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
        for (const u64 P : {u64{1}, u64{8}}) {
            SCOPED_TRACE(::testing::Message() << semantics_name(semantics) << " P=" << P);
            const hyp::HypGrid grid(params, P);
            const bool exact_once = semantics == EdgeSemantics::exact_once;
            const u32 k           = grid.num_annuli();
            u64 queries           = 0;
            for (u32 a = 0; a < k; ++a) {
                queries += grid.annulus_count(a) * (exact_once ? k - a : k);
            }
            obs::Registry& reg       = obs::Registry::global();
            const obs::Snapshot base = reg.snapshot();
            u64 emitted              = 0;
            for (u64 rank = 0; rank < P; ++rank) {
                emitted += collect([&](EdgeSink& sink) {
                               rhg::generate_inmemory(params, rank, P, sink, semantics);
                           }).size();
            }
            const obs::Snapshot delta = reg.snapshot().subtract(base);
            EXPECT_EQ(delta.counter_or("rhg.queries"), queries);
            EXPECT_GE(delta.counter_or("rhg.candidates"), emitted);
            if (P == 1) {
                EXPECT_EQ(delta.counter_or("rhg.points_recomputed"), 0u);
            } else {
                EXPECT_GT(delta.counter_or("rhg.points_recomputed"), 0u);
            }
        }
    }
}

TEST(RhgGrid, GlobalStreamingSplitRespondsToPeCount) {
    // More PEs -> narrower chunks -> more annuli classified as global.
    const hyp::Params params{100000, 16, 2.9, 1};
    const hyp::HypGrid g2(params, 2);
    const hyp::HypGrid g64(params, 64);
    EXPECT_LE(rhg::first_streaming_annulus(g2), rhg::first_streaming_annulus(g64));
    EXPECT_LT(rhg::first_streaming_annulus(g64), g64.num_annuli())
        << "some annuli must stream at this size";
}

} // namespace
} // namespace kagen
