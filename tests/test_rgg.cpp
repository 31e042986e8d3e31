// RGG generator: exact equivalence with the brute-force reference on the
// same deterministic point set, structural invariants, expected degree.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <set>

#include "common/math.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "obs/metrics.hpp"
#include "pe/pe.hpp"
#include "rgg/rgg.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

struct RggCase {
    u64 n;
    double r;
    u64 P;
};

class Rgg2D : public ::testing::TestWithParam<RggCase> {};
class Rgg3D : public ::testing::TestWithParam<RggCase> {};

TEST_P(Rgg2D, UnionEqualsBruteForce) {
    const auto [n, r, P] = GetParam();
    const rgg::Params params{n, r, /*seed=*/42};
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rgg::generate<2>(params, rank, size, sink);
        });
    });
    const EdgeList got  = pe::union_undirected(per_pe);
    const EdgeList want = undirected_set(rgg::brute_force<2>(params, P));
    EXPECT_EQ(got, want);
}

TEST_P(Rgg3D, UnionEqualsBruteForce) {
    const auto [n, r, P] = GetParam();
    const rgg::Params params{n, r, /*seed=*/43};
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rgg::generate<3>(params, rank, size, sink);
        });
    });
    const EdgeList got  = pe::union_undirected(per_pe);
    const EdgeList want = undirected_set(rgg::brute_force<3>(params, P));
    EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Spectrum, Rgg2D,
    ::testing::Values(RggCase{500, 0.05, 1},   //
                      RggCase{500, 0.05, 4},   //
                      RggCase{500, 0.05, 7},   // non-power-of-two PEs
                      RggCase{1000, 0.02, 16}, //
                      RggCase{200, 0.5, 4},    // r wider than a chunk: big halo
                      RggCase{100, 1.5, 3},    // r > 1: complete graph
                      RggCase{50, 0.001, 8},   // ultra sparse
                      RggCase{0, 0.1, 2},      // empty graph
                      RggCase{1, 0.1, 2}       // single vertex
                      ));

INSTANTIATE_TEST_SUITE_P(
    Spectrum, Rgg3D,
    ::testing::Values(RggCase{400, 0.1, 1},  //
                      RggCase{400, 0.1, 8},  //
                      RggCase{400, 0.1, 5},  // non-power-of-eight PEs
                      RggCase{800, 0.3, 16}, // halo spans chunks
                      RggCase{100, 2.0, 3}   // complete graph
                      ));

TEST(Rgg, EdgesRespectRadiusExactly) {
    const rgg::Params params{800, 0.07, 7};
    const auto grid = rgg::point_grid<2>(params, 4);
    std::vector<Vec2> pos(params.n);
    for (const auto& p : grid.all_points()) pos[p.id] = p.pos;
    const auto per_pe = pe::run_all(4, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rgg::generate<2>(params, rank, size, sink);
        });
    });
    for (const auto& [u, v] : pe::union_undirected(per_pe)) {
        EXPECT_LE(distance(pos[u], pos[v]), params.r * 1.0000001);
    }
}

TEST(Rgg, NoSelfLoopsNoDuplicatesPerPe) {
    const rgg::Params params{2000, 0.03, 123};
    const auto per_pe = pe::run_all(8, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rgg::generate<2>(params, rank, size, sink);
        });
    });
    for (const auto& part : per_pe) {
        EXPECT_FALSE(has_self_loop(part));
        std::set<Edge> set(part.begin(), part.end());
        EXPECT_EQ(set.size(), part.size()) << "intra-PE duplicate edges";
    }
}

TEST(Rgg, CrossPeEdgesAppearOnBothOwners) {
    const rgg::Params params{1000, 0.08, 5};
    constexpr u64 P = 4;
    const auto grid = rgg::point_grid<2>(params, P);
    // vertex -> owning PE, derived from the chunk/Morton assignment.
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
            rgg::generate<2>(params, rank, size, sink);
        });
    });
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) sets[r].insert(per_pe[r].begin(), per_pe[r].end());
    for (const auto& e : pe::union_undirected(per_pe)) {
        EXPECT_TRUE(sets[owner[e.first]].count(e));
        EXPECT_TRUE(sets[owner[e.second]].count(e));
    }
}

TEST(Rgg, DeterministicPerRank) {
    const rgg::Params params{3000, 0.02, 77};
    const auto rgg2 = [&](EdgeSink& sink) { rgg::generate<2>(params, 2, 8, sink); };
    const auto rgg3 = [&](EdgeSink& sink) { rgg::generate<3>(params, 3, 8, sink); };
    EXPECT_EQ(collect(rgg2), collect(rgg2));
    EXPECT_EQ(collect(rgg3), collect(rgg3));
}

TEST(Rgg, ExpectedDegreeMatchesTheory2D) {
    // Interior vertices have expected degree n*pi*r^2 (paper §2.1.2).
    const rgg::Params params{20000, 0.02, 9};
    const auto per_pe = pe::run_all(4, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rgg::generate<2>(params, rank, size, sink);
        });
    });
    const auto edges = pe::union_undirected(per_pe);
    const auto grid  = rgg::point_grid<2>(params, 4);
    const auto degs  = degrees(edges, params.n);
    // Average over interior vertices only (border effects shrink degrees).
    double sum = 0.0;
    u64 count  = 0;
    for (const auto& p : grid.all_points()) {
        bool interior = true;
        for (int d = 0; d < 2; ++d) {
            if (p.pos[d] < params.r || p.pos[d] > 1 - params.r) interior = false;
        }
        if (interior) {
            sum += static_cast<double>(degs[p.id]);
            ++count;
        }
    }
    const double mean     = sum / static_cast<double>(count);
    const double expected = static_cast<double>(params.n) * std::numbers::pi *
                            params.r * params.r;
    EXPECT_NEAR(mean, expected, 0.05 * expected);
}

TEST(Rgg, ExpectedDegreeMatchesTheory3D) {
    // d_bar = n * (4/3) pi r^3 for interior vertices.
    const rgg::Params params{20000, 0.06, 11};
    const auto per_pe = pe::run_all(8, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rgg::generate<3>(params, rank, size, sink);
        });
    });
    const auto edges = pe::union_undirected(per_pe);
    const auto grid  = rgg::point_grid<3>(params, 8);
    const auto degs  = degrees(edges, params.n);
    double sum = 0.0;
    u64 count  = 0;
    for (const auto& p : grid.all_points()) {
        bool interior = true;
        for (int d = 0; d < 3; ++d) {
            if (p.pos[d] < params.r || p.pos[d] > 1 - params.r) interior = false;
        }
        if (interior) {
            sum += static_cast<double>(degs[p.id]);
            ++count;
        }
    }
    const double mean     = sum / static_cast<double>(count);
    const double expected = static_cast<double>(params.n) * (4.0 / 3.0) *
                            std::numbers::pi * std::pow(params.r, 3);
    EXPECT_NEAR(mean, expected, 0.08 * expected);
}

TEST(Rgg, GiantComponentAtThresholdRadius) {
    // r = 0.55*sqrt(ln n / n) is the paper's benchmark radius (§8.4, [45]).
    // At n = 5000 the graph sits right at the connectivity threshold, so we
    // assert the robust consequence: a dominating giant component (few
    // leftover components, all tiny).
    constexpr u64 n = 5000;
    const double r  = 0.55 * std::sqrt(std::log(static_cast<double>(n)) / n);
    const rgg::Params params{n, r, 2024};
    const auto per_pe = pe::run_all(4, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            rgg::generate<2>(params, rank, size, sink);
        });
    });
    const u64 components = connected_components(pe::union_undirected(per_pe), n);
    EXPECT_LE(components, n / 500) << "expected a giant component plus stragglers";
}

// The stream bytes at the benchmark's scale, where the fixtures (two rgg2d
// files at n = 4096) and the brute-force spectrum (sets, not order) do not
// reach: a 64-bit FNV-1a digest of every chunk's stream, in chunk order, and
// the edge total, under both semantics. C = 7 gives Morton ranges that are
// not squares; the last case has r wider than a cell (a halo of 2 cells).
// Any change to the sweep, the emission order or the point variates that
// moves one byte changes a digest. At one cell depth the exact_once chunk
// streams concatenate to the same stream for every C, so those pairs agree.
struct RggDigestCase {
    int dim;
    u64 n;
    double r;
    u64 chunks;
    EdgeSemantics semantics;
    u64 edges;
    u64 digest;
};

template <int D>
void digest_chunks(const RggDigestCase& c, u64& edges, u64& digest) {
    const rgg::Params params{c.n, c.r, /*seed=*/1};
    for (u64 chunk = 0; chunk < c.chunks; ++chunk) {
        for (const auto& [u, v] : collect([&](EdgeSink& sink) {
                 rgg::generate<D>(params, chunk, c.chunks, sink, c.semantics);
             })) {
            for (const u64 id : {u, v}) {
                for (int b = 0; b < 64; b += 8) {
                    digest = (digest ^ ((id >> b) & 0xff)) * 0x100000001b3ull;
                }
            }
            ++edges;
        }
    }
}

TEST(RggDigest, StreamsAtBenchmarkScale) {
    constexpr u64 n2 = u64{1} << 18;
    // kagen_tool's default radius for -n 2^18.
    const double r2 = 0.6 * std::sqrt(std::log(static_cast<double>(n2)) / n2);
    constexpr auto as_generated = EdgeSemantics::as_generated;
    constexpr auto exact_once   = EdgeSemantics::exact_once;
    const RggDigestCase cases[] = {
        {2, n2, r2, 256, as_generated, 1937962, 0x50c53a63d86f9b25ull},
        {2, n2, r2, 256, exact_once, 1841858, 0x6649e8b5fc4ce38eull},
        {2, n2, r2, 7, as_generated, 1855198, 0x2d2e066ff80e31a8ull},
        {2, n2, r2, 7, exact_once, 1841858, 0x6649e8b5fc4ce38eull},
        {3, u64{1} << 17, 0.03, 64, as_generated, 1032747, 0x395b889becadf565ull},
        {3, u64{1} << 17, 0.03, 64, exact_once, 938627, 0xe033ca6de008c934ull},
        {3, u64{1} << 17, 0.03, 7, as_generated, 968050, 0x69c31338ce7e4e41ull},
        {3, u64{1} << 17, 0.03, 7, exact_once, 938627, 0xe033ca6de008c934ull},
        {3, 800, 0.3, 16, as_generated, 39545, 0x36cfcb2b243f981dull},
        {3, 800, 0.3, 16, exact_once, 25618, 0xb5e1141b3c184793ull},
    };
    for (const auto& c : cases) {
        u64 edges  = 0;
        u64 digest = 0xcbf29ce484222325ull;
        if (c.dim == 2) {
            digest_chunks<2>(c, edges, digest);
        } else {
            digest_chunks<3>(c, edges, digest);
        }
        SCOPED_TRACE(::testing::Message() << "rgg" << c.dim << "d n=" << c.n
                                          << " r=" << c.r << " C=" << c.chunks << " "
                                          << semantics_name(c.semantics));
        EXPECT_EQ(edges, c.edges);
        EXPECT_EQ(digest, c.digest) << "digest 0x" << std::hex << digest;
    }
}

TEST(RggCounters, CountPairTestsAndHaloCells) {
    // The live §5.1 cost counters, added once per chunk: the distance tests
    // made and the halo cells recomputed. Both depend on the chunk
    // decomposition alone, so a pinned C gives the same counts at any PE or
    // thread count; exact_once never scans the cells below a chunk, so it
    // tests no more pairs; and one chunk holding the whole grid recomputes
    // no cell.
    for (const Model model : {Model::Rgg2D, Model::Rgg3D}) {
        Config cfg;
        cfg.model = model;
        cfg.n     = 4000;
        cfg.r     = model == Model::Rgg2D ? 0.03 : 0.08;
        cfg.seed  = 9;
        for (const u64 C : {u64{1}, u64{16}}) {
            cfg.total_chunks = C;
            u64 tests[2]     = {0, 0};
            u64 halo[2]      = {0, 0};
            for (const EdgeSemantics semantics :
                 {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
                cfg.edge_semantics = semantics;
                const int s        = semantics == EdgeSemantics::exact_once;
                for (const u64 pes : {u64{1}, u64{4}}) {
                    SCOPED_TRACE(::testing::Message() << model_name(model) << " C=" << C
                                                      << " " << semantics_name(semantics)
                                                      << " pes=" << pes);
                    obs::Registry& reg       = obs::Registry::global();
                    const obs::Snapshot base = reg.snapshot();
                    CountingSink sink;
                    if (pes == 1) {
                        generate_chunked(cfg, 1, sink, 1);
                    } else {
                        pe::ThreadPool pool(pes - 1);
                        generate_chunked(cfg, pes, sink, pes, &pool);
                    }
                    const obs::Snapshot delta = reg.snapshot().subtract(base);
                    const u64 t = delta.counter_or("rgg.pair_tests");
                    const u64 h = delta.counter_or("rgg.halo_cells");
                    EXPECT_GE(t, sink.num_edges());
                    if (pes == 1) {
                        tests[s] = t;
                        halo[s]  = h;
                    } else {
                        EXPECT_EQ(t, tests[s]);
                        EXPECT_EQ(h, halo[s]);
                    }
                }
            }
            SCOPED_TRACE(::testing::Message() << model_name(model) << " C=" << C);
            EXPECT_LE(tests[1], tests[0]);
            EXPECT_LE(halo[1], halo[0]);
            if (C == 1) {
                EXPECT_EQ(halo[0], 0u);
                EXPECT_EQ(halo[1], 0u);
            } else {
                EXPECT_GT(halo[1], 0u);
                EXPECT_LT(tests[1], tests[0]);
            }
        }
    }
}

} // namespace
} // namespace kagen
