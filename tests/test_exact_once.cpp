// Exact-once edge ownership: the cross-model property-test harness.
//
// The duplicate-carrying models (undirected ER/Gnp, RGG, RDG, in-memory
// RHG, and the sbm module) intentionally emit every cross-chunk edge on both
// owning chunks; `EdgeSemantics::exact_once` tie-breaks each edge to the
// chunk owning its canonical lower endpoint, and each generator applies
// that rule while generating. This suite pins the whole contract:
//   * per rank, every such generator's native exact_once stream is its
//     as_generated stream filtered to the owned lower endpoints
//     (testing::owned_vertex_intervals), byte for byte, order included;
//   * for every duplicate-carrying model x (P, K) shape, the exact-once
//     engine stream — counts, degree stats, binary file — equals the
//     canonicalized union_undirected of the legacy per-chunk outputs;
//   * non-duplicating models (directed ER/Gnp, streaming RHG, BA, R-MAT)
//     are byte-identical under both semantics;
//   * exact-once output is bit-deterministic across PE counts, chunks-per-
//     PE, and thread counts once total_chunks is pinned;
//   * the ownership interval tables partition the vertex ids;
//   * io::stream_edge_list_binary round-trips exact-once files, including
//     the empty-graph and single-chunk edge cases;
//   * the non-facade sbm module's exact_once streams partition its graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <tuple>

#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "kagen.hpp"
#include "pe/pe.hpp"
#include "sbm/sbm.hpp"
#include "sink/sinks.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

Config property_config(Model model, u64 n = 420) {
    Config cfg;
    cfg.model     = model;
    cfg.n         = n;
    cfg.m         = 4 * n;
    cfg.p         = 0.012;
    cfg.r         = 0.09;
    cfg.avg_deg   = 8;
    cfg.gamma     = 2.8;
    cfg.ba_degree = 3;
    cfg.seed      = 31;
    return cfg;
}

constexpr Model kDuplicateCarrying[] = {
    Model::GnmUndirected, Model::GnpUndirected, Model::Rgg2D, Model::Rgg3D,
    Model::Rdg2D,         Model::Rdg3D,         Model::Rhg};

constexpr Model kExactByConstruction[] = {Model::GnmDirected, Model::GnpDirected,
                                          Model::RhgStreaming, Model::Ba,
                                          Model::Rmat};

/// The (P, K) shape matrix of the ISSUE: every P in {1, 2, 5} crossed with
/// every K in {1, 3}; C = P·K canonical chunks when total_chunks is unset.
struct Shape {
    u64 P;
    u64 K;
};
constexpr Shape kShapes[] = {{1, 1}, {1, 3}, {2, 1}, {2, 3}, {5, 1}, {5, 3}};

/// Legacy per-chunk outputs: generate(cfg, c, C) under as_generated — the
/// pre-ownership streams whose canonicalized union is the reference graph.
std::vector<EdgeList> legacy_per_chunk(Config cfg, u64 num_chunks) {
    cfg.edge_semantics = EdgeSemantics::as_generated;
    std::vector<EdgeList> out;
    out.reserve(num_chunks);
    for (u64 c = 0; c < num_chunks; ++c) {
        out.push_back(generate(cfg, c, num_chunks).edges);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Tentpole property: exact_once == union_undirected(legacy), per shape
// ---------------------------------------------------------------------------

class ExactOnceProperty : public ::testing::TestWithParam<Model> {};

TEST_P(ExactOnceProperty, EngineStreamEqualsCanonicalizedLegacyUnion) {
    Config cfg = property_config(GetParam());
    for (const auto& [P, K] : kShapes) {
        cfg.chunks_per_pe = K;
        const u64 C       = P * K;
        SCOPED_TRACE(std::string(model_name(cfg.model)) + " P=" + std::to_string(P) +
                     " K=" + std::to_string(K));

        const auto legacy       = legacy_per_chunk(cfg, C);
        const EdgeList reference = pe::union_undirected(legacy);
        ASSERT_FALSE(reference.empty());
        const u64 duplicates = testing::duplicate_excess(legacy);

        cfg.edge_semantics = EdgeSemantics::exact_once;
        MemorySink mem;
        generate_chunked(cfg, P, mem);
        mem.finish();

        // Multiset equality with the reference: same size (no duplicate
        // survived, nothing was dropped) and same canonical set.
        EXPECT_TRUE(testing::total_matches_semantics(mem.edges().size(),
                                                     reference.size(), 0));
        EXPECT_EQ(undirected_set(mem.edges()), reference);

        // The as_generated stream must still carry exactly the legacy
        // duplicates — the exact-once rule must not leak into the default
        // semantics.
        cfg.edge_semantics = EdgeSemantics::as_generated;
        CountingSink as_gen(EdgeSemantics::as_generated);
        generate_chunked(cfg, P, as_gen);
        as_gen.finish();
        EXPECT_TRUE(testing::total_matches_semantics(as_gen.num_edges(),
                                                     reference.size(), duplicates));
        cfg.edge_semantics = EdgeSemantics::exact_once;

        // Streaming statistic sinks see the true graph: counts and the full
        // degree sequence agree with the materialized reference.
        CountingSink count(EdgeSemantics::exact_once);
        generate_chunked(cfg, P, count);
        count.finish();
        EXPECT_EQ(count.num_edges(), reference.size());

        DegreeStatsSink stats(num_vertices(cfg), EdgeSemantics::exact_once);
        generate_chunked(cfg, P, stats);
        stats.finish();
        EXPECT_EQ(stats.num_edges(), reference.size());
        EXPECT_EQ(stats.degrees(), degrees(reference, num_vertices(cfg)));
    }
}

TEST_P(ExactOnceProperty, PerRankStreamsArePartitioned) {
    // Under exact_once the per-rank API emits globally disjoint streams
    // whose concatenation is the graph — the partitioned output an MPI
    // consumer would want from each rank.
    Config cfg         = property_config(GetParam(), 300);
    cfg.edge_semantics = EdgeSemantics::exact_once;
    const u64 P        = 4;
    std::vector<EdgeList> per_pe;
    u64 total = 0;
    for (u64 r = 0; r < P; ++r) {
        per_pe.push_back(generate(cfg, r, P).edges);
        total += per_pe.back().size();
    }
    EXPECT_EQ(testing::duplicate_excess(per_pe), 0u);
    EXPECT_EQ(total, pe::union_undirected(per_pe).size());
}

INSTANTIATE_TEST_SUITE_P(DuplicateCarrying, ExactOnceProperty,
                         ::testing::ValuesIn(kDuplicateCarrying),
                         [](const ::testing::TestParamInfo<Model>& info) {
                             return model_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Per rank: native exact_once == the owned-lower-endpoint filter of
// as_generated, byte for byte and in order
// ---------------------------------------------------------------------------

/// One duplicate-carrying generator: its per-rank stream under either
/// semantics, and the ids each rank owns.
struct SkipCase {
    std::string name;
    std::function<void(u64 rank, u64 size, EdgeSemantics, EdgeSink&)> generate;
    std::function<testing::IdIntervals(u64 rank, u64 size)> owned;
};

std::vector<SkipCase> skip_cases() {
    std::vector<SkipCase> cases;
    for (const Model model : kDuplicateCarrying) {
        const Config cfg = property_config(model);
        cases.push_back({model_name(model),
                         [cfg](u64 rank, u64 size, EdgeSemantics semantics,
                               EdgeSink& sink) {
                             Config c         = cfg;
                             c.edge_semantics = semantics;
                             generate(c, rank, size, sink);
                         },
                         [cfg](u64 rank, u64 size) {
                             return testing::owned_vertex_intervals(cfg, rank, size);
                         }});
    }
    const sbm::Params sbm_params = sbm::planted_partition(420, 4, 0.05, 0.004, 17);
    cases.push_back({"sbm",
                     [sbm_params](u64 rank, u64 size, EdgeSemantics semantics,
                                  EdgeSink& sink) {
                         sbm::generate(sbm_params, rank, size, sink, semantics);
                     },
                     [sbm_params](u64 rank, u64 size) {
                         return testing::block_interval(sbm::num_vertices(sbm_params),
                                                        rank, size);
                     }});
    return cases;
}

void PrintTo(const SkipCase& c, std::ostream* os) { *os << c.name; }

class ExactOnceSkip : public ::testing::TestWithParam<SkipCase> {};

TEST_P(ExactOnceSkip, NativeStreamEqualsFilteredAsGenerated) {
    const SkipCase& c = GetParam();
    for (const u64 C : {u64{1}, u64{3}, u64{7}, u64{64}}) {
        u64 dropped = 0;
        for (u64 rank = 0; rank < C; ++rank) {
            MemorySink native, as_gen;
            c.generate(rank, C, EdgeSemantics::exact_once, native);
            c.generate(rank, C, EdgeSemantics::as_generated, as_gen);
            const EdgeList all  = as_gen.take();
            const EdgeList kept = testing::keep_owned_lower_endpoints(all, c.owned(rank, C));
            ASSERT_EQ(native.take(), kept) << c.name << " C=" << C << " rank=" << rank;
            dropped += all.size() - kept.size();
        }
        // The rule is exercised: with several chunks some copies are skipped.
        if (C > 1) EXPECT_GT(dropped, 0u) << c.name << " C=" << C;
    }
}

INSTANTIATE_TEST_SUITE_P(DuplicateCarrying, ExactOnceSkip, ::testing::ValuesIn(skip_cases()),
                         [](const ::testing::TestParamInfo<SkipCase>& info) {
                             return info.param.name;
                         });

// ---------------------------------------------------------------------------
// Non-duplicating models: both semantics are the same bytes
// ---------------------------------------------------------------------------

class ExactByConstruction : public ::testing::TestWithParam<Model> {};

TEST_P(ExactByConstruction, ByteIdenticalUnderBothSemantics) {
    Config cfg = property_config(GetParam());
    for (const auto& [P, K] : kShapes) {
        cfg.chunks_per_pe = K;
        SCOPED_TRACE(std::string(model_name(cfg.model)) + " P=" + std::to_string(P) +
                     " K=" + std::to_string(K));
        cfg.edge_semantics = EdgeSemantics::as_generated;
        MemorySink as_gen;
        generate_chunked(cfg, P, as_gen);
        as_gen.finish();

        cfg.edge_semantics = EdgeSemantics::exact_once;
        MemorySink exact;
        generate_chunked(cfg, P, exact);
        exact.finish();
        EXPECT_EQ(exact.edges(), as_gen.edges());
    }
}

INSTANTIATE_TEST_SUITE_P(NonDuplicating, ExactByConstruction,
                         ::testing::ValuesIn(kExactByConstruction),
                         [](const ::testing::TestParamInfo<Model>& info) {
                             return model_name(info.param);
                         });

TEST(ExactByConstruction, StreamingRhgPerPeOutputsAreGloballyDisjoint) {
    // The classification above rests on this: the request-centric sRHG
    // (§7.2) already hands every edge to exactly one PE — global pairs to
    // the lower-id endpoint's angular chunk, global/streaming pairs to the
    // streaming target's chunk, streaming pairs to the request source's
    // chunk — so it needs no exact-once rule.
    for (const u64 P : {u64{1}, u64{4}, u64{7}}) {
        const hyp::Params params{700, 10, 2.6, 11};
        std::vector<EdgeList> per_pe;
        u64 total = 0;
        for (u64 r = 0; r < P; ++r) {
            per_pe.push_back(collect([&](EdgeSink& sink) {
                rhg::generate_streaming(params, r, P, sink);
            }));
            total += per_pe.back().size();
        }
        EXPECT_EQ(total, pe::union_undirected(per_pe).size()) << "P=" << P;
    }
}

// ---------------------------------------------------------------------------
// Determinism: pinned chunks make exact_once a pure function of (seed, params)
// ---------------------------------------------------------------------------

TEST(ExactOnceDeterminism, BitIdenticalAcrossPesChunksAndThreads) {
    for (const Model model : {Model::GnmUndirected, Model::Rgg2D, Model::Rhg}) {
        Config cfg         = property_config(model, 300);
        cfg.total_chunks   = 12;
        cfg.edge_semantics = EdgeSemantics::exact_once;
        EdgeList reference;
        bool have_reference = false;
        pe::ThreadPool pool(3);
        for (const u64 P : {u64{1}, u64{3}, u64{8}}) {
            for (const u64 K : {u64{1}, u64{4}}) {
                for (const u64 threads : {u64{1}, u64{4}}) {
                    cfg.chunks_per_pe = K;
                    MemorySink sink;
                    const ChunkStats stats =
                        generate_chunked(cfg, P, sink, threads, &pool);
                    sink.finish();
                    ASSERT_EQ(stats.num_chunks, 12u);
                    if (!have_reference) {
                        reference      = sink.edges();
                        have_reference = true;
                        EXPECT_FALSE(reference.empty()) << model_name(model);
                    } else {
                        ASSERT_EQ(sink.edges(), reference)
                            << model_name(model) << " P=" << P << " K=" << K
                            << " threads=" << threads;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Ownership interval tables
// ---------------------------------------------------------------------------

TEST(OwnershipIntervals, PartitionTheVertexIdsForEveryDuplicateCarrier) {
    // Exactness of the tie-break needs the per-chunk tables to cover every
    // vertex id exactly once — otherwise edges would vanish (uncovered
    // lower endpoint) or stay duplicated (doubly covered).
    for (const Model model : kDuplicateCarrying) {
        const Config cfg = property_config(model);
        for (const u64 C : {u64{1}, u64{5}}) {
            std::vector<u64> cover(num_vertices(cfg), 0);
            for (u64 c = 0; c < C; ++c) {
                for (const auto& iv : testing::owned_vertex_intervals(cfg, c, C)) {
                    ASSERT_LE(iv.lo, iv.hi);
                    ASSERT_LE(iv.hi, cover.size());
                    for (u64 id = iv.lo; id < iv.hi; ++id) ++cover[id];
                }
            }
            for (u64 id = 0; id < cover.size(); ++id) {
                ASSERT_EQ(cover[id], 1u)
                    << model_name(model) << " C=" << C << " vertex " << id;
            }
        }
    }
}

TEST(OwnershipSemantics, ParseAndNameRoundTrip) {
    EdgeSemantics semantics = EdgeSemantics::as_generated;
    EXPECT_TRUE(parse_semantics("exact_once", &semantics));
    EXPECT_EQ(semantics, EdgeSemantics::exact_once);
    EXPECT_TRUE(parse_semantics("as_generated", &semantics));
    EXPECT_EQ(semantics, EdgeSemantics::as_generated);
    EXPECT_FALSE(parse_semantics("dedup", &semantics));
    EXPECT_STREQ(semantics_name(EdgeSemantics::exact_once), "exact_once");
}

TEST(SinkSemanticsLabels, SummariesStateWhatTheTotalsMean) {
    CountingSink count(EdgeSemantics::exact_once);
    count.emit(0, 1);
    count.finish();
    EXPECT_NE(count.summary().find("edges[exact_once]=1"), std::string::npos);
    count.set_semantics(EdgeSemantics::as_generated);
    EXPECT_NE(count.summary().find("edges[as_generated]=1"), std::string::npos);

    DegreeStatsSink stats(4); // defaults to the legacy as_generated label
    stats.emit(0, 1);
    stats.finish();
    EXPECT_EQ(stats.semantics(), EdgeSemantics::as_generated);
    EXPECT_NE(stats.summary().find("edges[as_generated]=1"), std::string::npos);
    stats.set_semantics(EdgeSemantics::exact_once);
    EXPECT_NE(stats.summary().find("edges[exact_once]=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Binary file round-trip under exact_once
// ---------------------------------------------------------------------------

class ExactOnceFileTest : public ::testing::Test {
protected:
    std::string path(const char* name) {
        return ::testing::TempDir() + "kagen_exact_once_" + name;
    }
    void TearDown() override {
        for (const auto& p : created_) std::remove(p.c_str());
    }
    std::string track(std::string p) {
        created_.push_back(p);
        return p;
    }
    std::vector<std::string> created_;
};

TEST_F(ExactOnceFileTest, BinaryStreamRoundTripsThroughSinks) {
    Config cfg         = property_config(Model::Rgg2D);
    cfg.chunks_per_pe  = 3;
    cfg.edge_semantics = EdgeSemantics::exact_once;

    MemorySink mem;
    generate_chunked(cfg, 4, mem);
    mem.finish();

    const auto file = track(path("rgg2d.bin"));
    BinaryFileSink sink(file);
    generate_chunked(cfg, 4, sink);
    sink.finish();
    EXPECT_EQ(sink.num_edges(), mem.edges().size());

    // Replay the file: contents, order, and count must match the in-memory
    // reference bit for bit.
    MemorySink replay;
    EXPECT_EQ(io::stream_edge_list_binary(file, replay), mem.edges().size());
    EXPECT_EQ(replay.take(), mem.edges());

    CountingSink count(EdgeSemantics::exact_once);
    io::stream_edge_list_binary(file, count);
    count.finish();
    EXPECT_EQ(count.num_edges(), mem.edges().size());
}

TEST_F(ExactOnceFileTest, EmptyGraphRoundTrips) {
    Config cfg         = property_config(Model::GnmUndirected);
    cfg.m              = 0; // no edges at all
    cfg.edge_semantics = EdgeSemantics::exact_once;
    const auto file    = track(path("empty.bin"));
    BinaryFileSink sink(file);
    generate_chunked(cfg, 3, sink);
    sink.finish();
    EXPECT_EQ(sink.num_edges(), 0u);

    MemorySink replay;
    EXPECT_EQ(io::stream_edge_list_binary(file, replay), 0u);
    EXPECT_TRUE(replay.take().empty());
}

TEST_F(ExactOnceFileTest, SingleChunkRoundTrips) {
    // P = 1, K = 1: the one chunk owns everything, so exact_once must be
    // the as_generated single-chunk stream — and survive the file
    // round-trip.
    Config cfg        = property_config(Model::Rdg2D, 200);
    cfg.chunks_per_pe = 1;

    cfg.edge_semantics = EdgeSemantics::as_generated;
    MemorySink raw;
    generate_chunked(cfg, 1, raw);
    raw.finish();

    cfg.edge_semantics = EdgeSemantics::exact_once;
    const auto file = track(path("single.bin"));
    BinaryFileSink sink(file);
    generate_chunked(cfg, 1, sink);
    sink.finish();

    MemorySink replay;
    io::stream_edge_list_binary(file, replay);
    EXPECT_EQ(replay.take(), raw.edges());
}

// ---------------------------------------------------------------------------
// Composition with the non-facade sbm module
// ---------------------------------------------------------------------------

TEST(SbmOwnership, ExactOnceComposesWithModuleLevelGenerate) {
    // The sbm module shares the undirected G(n,p) chunk geometry but is not
    // reachable through Config; its own generate takes the semantics.
    const sbm::Params params = sbm::planted_partition(360, 4, 0.05, 0.004, 17);
    const u64 P              = 5;
    std::vector<EdgeList> raw, exact;
    u64 exact_total = 0;
    for (u64 r = 0; r < P; ++r) {
        raw.push_back(collect([&](EdgeSink& sink) {
            sbm::generate(params, r, P, sink);
        }));
        MemorySink mem;
        sbm::generate(params, r, P, mem, EdgeSemantics::exact_once);
        exact.push_back(mem.take());
        exact_total += exact.back().size();
    }
    const EdgeList reference = pe::union_undirected(raw);
    EXPECT_GT(testing::duplicate_excess(raw), 0u) << "sbm must carry duplicates";
    EXPECT_TRUE(testing::total_matches_semantics(exact_total, reference.size(), 0));
    EXPECT_EQ(pe::union_undirected(exact), reference);
    EXPECT_EQ(testing::duplicate_excess(exact), 0u);
}

// ---------------------------------------------------------------------------
// Classification sanity: the duplicate carriers carry duplicates
// ---------------------------------------------------------------------------

TEST(Classification, DuplicateCarriersActuallyCarryDuplicates) {
    // Every model whose generator applies the exact-once rule must exhibit
    // cross-chunk duplicates in its legacy streams at this scale —
    // otherwise the rule (and its tests) would be dead code for it.
    for (const Model model : kDuplicateCarrying) {
        Config cfg        = property_config(model);
        const auto legacy = legacy_per_chunk(cfg, 5);
        EXPECT_GT(testing::duplicate_excess(legacy), 0u) << model_name(model);
    }
}

} // namespace
} // namespace kagen
