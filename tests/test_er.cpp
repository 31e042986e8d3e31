// Erdős–Rényi generators: exact edge counts, structural invariants,
// cross-PE redundancy consistency, uniformity over the pair universe.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "common/math.hpp"
#include "er/er.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "pe/pe.hpp"
#include "sink/ownership.hpp"
#include "sink/sinks.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

/// The edges of undirected chunk (i, j) alone (i >= j), exactly as PE i
/// generates them: the full recursion of PE i, then only chunk (i, j)'s
/// edges. Cheap at test scale; exercises the identical code path.
EdgeList gnm_undirected_chunk(u64 n, u64 m, u64 seed, u64 size, u64 i, u64 j) {
    EdgeList chunk;
    const EdgeList pe_edges = collect([&](EdgeSink& sink) {
        er::gnm_undirected(n, m, seed, i, size, sink);
    });
    for (const auto& [u, v] : pe_edges) {
        const bool in_rows = u >= block_begin(n, size, i) && u < block_begin(n, size, i + 1);
        const bool in_cols = v >= block_begin(n, size, j) && v < block_begin(n, size, j + 1);
        if (in_rows && in_cols) chunk.push_back({u, v});
    }
    return chunk;
}

class GnmDirected : public ::testing::TestWithParam<u64> {};

TEST_P(GnmDirected, ExactCountNoLoopsDisjointChunks) {
    const u64 P = GetParam();
    constexpr u64 n = 200, m = 3000;
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            er::gnm_directed(n, m, /*seed=*/7, rank, size, sink);
        });
    });
    u64 total = 0;
    std::set<Edge> all;
    for (u64 rank = 0; rank < P; ++rank) {
        const u64 row_lo = block_begin(n, P, rank);
        const u64 row_hi = block_begin(n, P, rank + 1);
        for (const auto& [u, v] : per_pe[rank]) {
            EXPECT_NE(u, v);
            EXPECT_LT(u, n);
            EXPECT_LT(v, n);
            EXPECT_GE(u, row_lo); // edges start at local rows only
            EXPECT_LT(u, row_hi);
            all.insert({u, v});
            ++total;
        }
    }
    EXPECT_EQ(total, m);            // chunk counts sum to m
    EXPECT_EQ(all.size(), m);       // and no duplicates anywhere
}

INSTANTIATE_TEST_SUITE_P(PeCounts, GnmDirected, ::testing::Values(1, 2, 3, 8, 16));

TEST(GnmDirectedStat, UniformOverPairUniverse) {
    // Every ordered pair must be sampled equally often across seeds.
    constexpr u64 n = 20, m = 40, kRuns = 20000;
    std::map<Edge, double> hits;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        const EdgeList edges =
            collect([&](EdgeSink& sink) { er::gnm_directed(n, m, seed, 0, 1, sink); });
        for (const auto& e : edges) hits[e] += 1.0;
    }
    std::vector<double> observed;
    for (u64 u = 0; u < n; ++u) {
        for (u64 v = 0; v < n; ++v) {
            if (u == v) continue;
            observed.push_back(hits[{u, v}]);
        }
    }
    const double per_pair = static_cast<double>(kRuns) * m / (n * (n - 1));
    const std::vector<double> expected(observed.size(), per_pair);
    EXPECT_LT(testing::chi_square(observed, expected),
              testing::chi_square_critical(static_cast<double>(observed.size() - 1)));
}

TEST(GnmDirected, DeterministicPerRank) {
    const auto a = collect([&](EdgeSink& sink) {
        er::gnm_directed(500, 2000, 3, 2, 4, sink);
    });
    const auto b = collect([&](EdgeSink& sink) {
        er::gnm_directed(500, 2000, 3, 2, 4, sink);
    });
    EXPECT_EQ(a, b);
}

TEST(GnmDirected, FullUniverse) {
    // m = n(n-1): every ordered pair exactly once.
    constexpr u64 n = 40;
    const u64 m     = n * (n - 1);
    const auto edges = collect([&](EdgeSink& sink) {
        er::gnm_directed(n, m, 1, 0, 1, sink);
    });
    std::set<Edge> set(edges.begin(), edges.end());
    EXPECT_EQ(set.size(), m);
}

class GnmUndirected : public ::testing::TestWithParam<u64> {};

TEST_P(GnmUndirected, UnionHasExactlyMEdges) {
    const u64 P = GetParam();
    constexpr u64 n = 150, m = 2000;
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            er::gnm_undirected(n, m, 11, rank, size, sink);
        });
    });
    const auto uni = pe::union_undirected(per_pe);
    EXPECT_EQ(uni.size(), m);
    EXPECT_FALSE(has_self_loop(uni));
    for (const auto& [u, v] : uni) {
        EXPECT_LT(u, n);
        EXPECT_LT(v, n);
    }
}

INSTANTIATE_TEST_SUITE_P(PeCounts, GnmUndirected, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_P(GnmUndirected, EveryEdgeOnBothOwners) {
    const u64 P = GetParam();
    if (P == 1) GTEST_SKIP() << "redundancy only exists for P > 1";
    constexpr u64 n = 120, m = 1500;
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            er::gnm_undirected(n, m, 13, rank, size, sink);
        });
    });
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) sets[r].insert(per_pe[r].begin(), per_pe[r].end());
    for (u64 r = 0; r < P; ++r) {
        for (const auto& e : per_pe[r]) {
            const u64 owner_u = block_owner(n, P, e.first);
            const u64 owner_v = block_owner(n, P, e.second);
            EXPECT_TRUE(sets[owner_u].count(e)) << "missing on owner of u";
            EXPECT_TRUE(sets[owner_v].count(e)) << "missing on owner of v";
        }
    }
}

TEST(GnmUndirected, ChunkIdenticalFromBothOwners) {
    constexpr u64 n = 100, m = 1200, P = 5;
    for (u64 i = 0; i < P; ++i) {
        for (u64 j = 0; j <= i; ++j) {
            // Extract chunk (i, j) from PE i's run and PE j's run; the
            // pseudorandom recomputation must give identical edges.
            const auto from_i = gnm_undirected_chunk(n, m, 17, P, i, j);
            EdgeList from_j_all = collect([&](EdgeSink& sink) {
                er::gnm_undirected(n, m, 17, j, P, sink);
            });
            EdgeList from_j;
            for (const auto& [u, v] : from_j_all) {
                if (block_owner(n, P, u) == i && block_owner(n, P, v) == j) {
                    from_j.push_back({u, v});
                }
            }
            sort_unique(from_j);
            EdgeList lhs = from_i;
            sort_unique(lhs);
            EXPECT_EQ(lhs, from_j) << "chunk (" << i << "," << j << ")";
        }
    }
}

TEST(GnmUndirected, LowerTriangleConvention) {
    const auto edges = collect([&](EdgeSink& sink) {
        er::gnm_undirected(300, 4000, 23, 0, 1, sink);
    });
    for (const auto& [u, v] : edges) EXPECT_GT(u, v);
}

TEST(GnmUndirectedStat, UniformOverPairUniverse) {
    constexpr u64 n = 20, m = 30, kRuns = 20000, P = 3;
    std::map<Edge, double> hits;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
            return collect([&](EdgeSink& sink) {
                er::gnm_undirected(n, m, seed, rank, size, sink);
            });
        });
        for (const auto& e : pe::union_undirected(per_pe)) hits[e] += 1.0;
    }
    std::vector<double> observed;
    for (u64 v = 0; v < n; ++v) {
        for (u64 u = v + 1; u < n; ++u) observed.push_back(hits[{v, u}]);
    }
    const double per_pair = static_cast<double>(kRuns) * m / (n * (n - 1) / 2);
    const std::vector<double> expected(observed.size(), per_pair);
    EXPECT_LT(testing::chi_square(observed, expected),
              testing::chi_square_critical(static_cast<double>(observed.size() - 1)));
}

TEST(GnmUndirected, SaturatedGraphIsComplete) {
    constexpr u64 n = 30;
    const u64 m = static_cast<u64>(er::undirected_universe(n));
    const auto per_pe = pe::run_all(4, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            er::gnm_undirected(n, m, 1, rank, size, sink);
        });
    });
    EXPECT_EQ(pe::union_undirected(per_pe).size(), m);
}

// Exact-once is a property of generation: rank r's native exact_once stream
// must be the bytes the lower-endpoint rule keeps of its as_generated stream,
// for both models, both samplers and every rank. The shapes cover one chunk,
// non-power-of-two chunk counts, more chunks than vertices (empty blocks)
// and m equal to the whole undirected universe.
struct SkipShape {
    u64 n;
    u64 m;
    double p;
    u64 chunks;
};

constexpr SkipShape kSkipShapes[] = {
    {200, 3000, 0.05, 1}, {200, 3000, 0.05, 3},  {200, 3000, 0.05, 7},
    {200, 3000, 0.05, 64}, {5, 10, 0.5, 7},      {5, 10, 0.5, 64},
    {40, 780, 1.0, 7},    {40, 780, 1.0, 64},
};

/// `expected_total` (if nonzero) is the edge count of the whole graph.
template <typename Generate>
void expect_skip_equals_filter(const SkipShape& s, u64 expected_total, Generate generate) {
    for (const SamplerVersion version : {SamplerVersion::v1, SamplerVersion::v2}) {
        u64 total = 0;
        for (u64 rank = 0; rank < s.chunks; ++rank) {
            MemorySink native;
            generate(rank, native, version, EdgeSemantics::exact_once);

            MemorySink as_gen;
            generate(rank, as_gen, version, EdgeSemantics::as_generated);
            const EdgeList kept = testing::keep_owned_lower_endpoints(
                as_gen.take(), testing::block_interval(s.n, rank, s.chunks));

            const EdgeList edges = native.take();
            ASSERT_EQ(edges, kept)
                << "n=" << s.n << " C=" << s.chunks << " rank=" << rank
                << " v" << (version == SamplerVersion::v1 ? 1 : 2);
            total += edges.size();
        }
        if (expected_total != 0) EXPECT_EQ(total, expected_total) << "n=" << s.n;
    }
}

// Count contract of in-place delivery: the edge count a G(n,m) chunk
// advertises before generating (kagen::chunk_edge_counts, one pass over
// the count layer) is exactly what generate() then emits for it — for
// both kinds, both semantics, both samplers, dense and sparse graphs, and
// whether or not the undirected pass runs its subtrees on a pool.
TEST(GnmChunkCounts, AdvertisedCountsEqualEmittedEdges) {
    pe::ThreadPool pool(3);
    const ForEachTask on_pool = [&pool](u64 tasks, const std::function<void(u64)>& task) {
        pool.parallel_for(tasks, 0, task);
    };
    for (const Model model : {Model::GnmDirected, Model::GnmUndirected}) {
        for (const EdgeSemantics semantics :
             {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
            for (const SamplerVersion version : {SamplerVersion::v1, SamplerVersion::v2}) {
                for (const auto& [n, m] : {std::pair<u64, u64>{3000, 20000}, {5000, 50}}) {
                    for (const u64 chunks : {1, 7, 64}) {
                        GraphSpec cfg;
                        cfg.model           = model;
                        cfg.n               = n;
                        cfg.m               = m;
                        cfg.seed            = 11;
                        cfg.sampler_version = version;
                        cfg.edge_semantics  = semantics;
                        const std::vector<u64> counts = chunk_edge_counts(cfg, chunks);
                        ASSERT_EQ(counts.size(), chunks);
                        EXPECT_EQ(chunk_edge_counts(cfg, chunks, on_pool), counts);
                        for (u64 c = 0; c < chunks; ++c) {
                            CountingSink emitted;
                            generate(cfg, c, chunks, emitted);
                            emitted.finish();
                            EXPECT_EQ(emitted.num_edges(), counts[c])
                                << model_name(model) << " " << semantics_name(semantics)
                                << " v" << (version == SamplerVersion::v1 ? 1 : 2)
                                << " m=" << m << " chunk " << c << " of " << chunks;
                        }
                    }
                }
            }
        }
    }
}

TEST(ErExactOnce, GnmSkipEqualsFilter) {
    for (const SkipShape& s : kSkipShapes) {
        expect_skip_equals_filter(s, s.m, [&](u64 rank, EdgeSink& sink, SamplerVersion v,
                                              EdgeSemantics semantics) {
            er::gnm_undirected(s.n, s.m, 41, rank, s.chunks, sink, v, semantics);
        });
    }
}

TEST(ErExactOnce, GnpSkipEqualsFilter) {
    for (const SkipShape& s : kSkipShapes) {
        const u64 all = s.p == 1.0 ? static_cast<u64>(er::undirected_universe(s.n)) : 0;
        expect_skip_equals_filter(s, all, [&](u64 rank, EdgeSink& sink, SamplerVersion v,
                                              EdgeSemantics semantics) {
            er::gnp_undirected(s.n, s.p, 43, rank, s.chunks, sink, v, semantics);
        });
    }
}

class GnpBothKinds : public ::testing::TestWithParam<u64> {};

TEST_P(GnpBothKinds, EdgeCountConcentratesAroundMean) {
    const u64 P = GetParam();
    constexpr u64 n = 400;
    constexpr double p = 0.01;
    double dir_sum = 0.0, undir_sum = 0.0;
    constexpr u64 kRuns = 60;
    for (u64 seed = 0; seed < kRuns; ++seed) {
        const auto dir = pe::run_all(P, [&](u64 rank, u64 size) {
            return collect([&](EdgeSink& sink) {
                er::gnp_directed(n, p, seed, rank, size, sink);
            });
        });
        u64 dir_edges = 0;
        for (const auto& part : dir) dir_edges += part.size();
        dir_sum += static_cast<double>(dir_edges);
        const auto undir = pe::run_all(P, [&](u64 rank, u64 size) {
            return collect([&](EdgeSink& sink) {
                er::gnp_undirected(n, p, seed, rank, size, sink);
            });
        });
        undir_sum += static_cast<double>(pe::union_undirected(undir).size());
    }
    const double dir_mean    = dir_sum / kRuns;
    const double undir_mean  = undir_sum / kRuns;
    const double dir_expect  = static_cast<double>(n) * (n - 1) * p;
    const double undir_expect = dir_expect / 2;
    EXPECT_NEAR(dir_mean, dir_expect, 6 * std::sqrt(dir_expect / kRuns) + 1);
    EXPECT_NEAR(undir_mean, undir_expect, 6 * std::sqrt(undir_expect / kRuns) + 1);
}

INSTANTIATE_TEST_SUITE_P(PeCounts, GnpBothKinds, ::testing::Values(1, 4, 7));

TEST(GnpUndirected, RedundancyAcrossOwners) {
    constexpr u64 n = 90, P = 6;
    const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
        return collect([&](EdgeSink& sink) {
            er::gnp_undirected(n, 0.1, 99, rank, size, sink);
        });
    });
    std::vector<std::set<Edge>> sets(P);
    for (u64 r = 0; r < P; ++r) sets[r].insert(per_pe[r].begin(), per_pe[r].end());
    for (u64 r = 0; r < P; ++r) {
        for (const auto& e : per_pe[r]) {
            EXPECT_TRUE(sets[block_owner(n, P, e.first)].count(e));
            EXPECT_TRUE(sets[block_owner(n, P, e.second)].count(e));
        }
    }
}

TEST(GnpDirected, NoSelfLoopsNoDuplicates) {
    const auto edges = collect([&](EdgeSink& sink) {
        er::gnp_directed(1000, 0.01, 5, 0, 1, sink);
    });
    EXPECT_FALSE(has_self_loop(edges));
    std::set<Edge> set(edges.begin(), edges.end());
    EXPECT_EQ(set.size(), edges.size());
}

TEST(ErDegrees, GnmDegreeDistributionIsBinomialLike) {
    // In G(n,m) the expected average degree is 2m/n.
    constexpr u64 n = 4000, m = 40000;
    const auto edges = collect([&](EdgeSink& sink) {
        er::gnm_undirected(n, m, 21, 0, 1, sink);
    });
    const auto degs  = degrees(undirected_set(edges), n);
    EXPECT_NEAR(average_degree(degs), 2.0 * m / n, 0.01);
}

} // namespace
} // namespace kagen
