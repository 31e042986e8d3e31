// Bounded-memory ordered delivery: SpillFile/SpillSink units, the
// designated-drainer + spill-window property tests (byte-identical output
// across budgets and thread counts, peak-memory bound, forced completion
// skew), and the external-memory sort/dedup pass vs union_undirected.
// ctest label: spill (re-run under ASan in CI).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "common/fileio.hpp"
#include "graph/edge_list.hpp"
#include "graph/em_sort.hpp"
#include "graph/io.hpp"
#include "kagen.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"
#include "sink/spill.hpp"

namespace kagen {
namespace {

EdgeList some_edges(u64 count, u64 salt = 0) {
    EdgeList edges;
    edges.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        edges.emplace_back((i * 7 + salt) % 101, (i * 31 + salt * 13 + 5) % 97);
    }
    return edges;
}

std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

class SpillTest : public ::testing::Test {
protected:
    std::string path(const char* name) {
        return ::testing::TempDir() + "kagen_spill_test_" + name;
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

// ---------------------------------------------------------------------------
// SpillFile / SpillSink units
// ---------------------------------------------------------------------------

TEST(SpillFile, AppendReadRoundTrip) {
    spill::SpillFile file;
    const EdgeList a = some_edges(1000, 1);
    const EdgeList b = some_edges(3000, 2);
    const auto seg_a = file.append(a.data(), a.size());
    const auto seg_b = file.append(b.data(), b.size());
    EXPECT_EQ(file.bytes_spilled(), (a.size() + b.size()) * sizeof(Edge));

    MemorySink back_b;
    file.replay(seg_b, back_b);
    EXPECT_EQ(back_b.take(), b);
    MemorySink back_a;
    file.replay(seg_a, back_a);
    EXPECT_EQ(back_a.take(), a);
}

TEST(SpillFile, PartialReadsAndEmptySegment) {
    spill::SpillFile file;
    const EdgeList edges = some_edges(100);
    const auto seg       = file.append(edges.data(), edges.size());
    const auto empty     = file.append(nullptr, 0);

    Edge buf[7];
    u64 pos = 0;
    EdgeList collected;
    while (std::size_t got = file.read(seg, pos, buf, 7)) {
        collected.insert(collected.end(), buf, buf + got);
        pos += got;
    }
    EXPECT_EQ(collected, edges);
    EXPECT_EQ(file.read(empty, 0, buf, 7), 0u);
    MemorySink none;
    file.replay(empty, none);
    EXPECT_TRUE(none.take().empty());
}

TEST(SpillFile, ConcurrentAppendsStayDisjoint) {
    spill::SpillFile file;
    constexpr u64 kThreads = 8;
    std::vector<spill::SpillFile::Segment> segs(kThreads);
    std::vector<EdgeList> payloads(kThreads);
    std::vector<std::thread> threads;
    for (u64 t = 0; t < kThreads; ++t) {
        payloads[t] = some_edges(500 + 100 * t, t);
        threads.emplace_back([&, t] {
            segs[t] = file.append(payloads[t].data(), payloads[t].size());
        });
    }
    for (auto& t : threads) t.join();
    for (u64 t = 0; t < kThreads; ++t) {
        MemorySink back;
        file.replay(segs[t], back);
        EXPECT_EQ(back.take(), payloads[t]) << "thread " << t;
    }
}

TEST(SpillSink, ReplaysEmissionOrderAcrossBufferBoundaries) {
    // 2500 emits straddle multiple internal flushes (buffer is 1024), so
    // the sink parks several segments and must replay them in order.
    spill::SpillFile file;
    spill::SpillSink sink(file);
    const EdgeList edges = some_edges(2500);
    for (const auto& e : edges) sink.emit(e);
    sink.finish();
    EXPECT_EQ(sink.num_edges(), edges.size());

    MemorySink back;
    sink.replay(back);
    EXPECT_EQ(back.take(), edges);
}

TEST_F(SpillTest, NamedSpillFileIsRemovedOnDestruction) {
    const auto p = path("named_scratch");
    {
        spill::SpillFile file(p);
        const EdgeList edges = some_edges(10);
        file.append(edges.data(), edges.size());
        EXPECT_TRUE(std::ifstream(p).good());
    }
    EXPECT_FALSE(std::ifstream(p).good());
}

// ---------------------------------------------------------------------------
// Bounded ordered delivery through pe::run_chunked
// ---------------------------------------------------------------------------

/// Deterministic per-chunk payload of varying size.
EdgeList chunk_payload(u64 chunk, u64 scale = 50) {
    return some_edges(scale + (chunk * 37) % 120, chunk);
}

/// Chunk body whose completion order is deliberately skewed: chunk 0 sleeps
/// long enough that (with >1 worker) every other chunk completes first, so
/// the delivery cursor stays pinned at 0 and all other chunks must park.
pe::ChunkFn skewed_fn(u64 scale = 50) {
    return [scale](u64 chunk, u64 /*num_chunks*/, EdgeSink& sink) {
        if (chunk == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        for (const auto& e : chunk_payload(chunk, scale)) sink.emit(e);
    };
}

TEST_F(SpillTest, SkewedCompletionSpillsAndStaysByteIdentical) {
    constexpr u64 kChunks = 16;
    pe::ThreadPool pool(3);

    const auto unbounded_path = track(path("skew_unbounded.bin"));
    const auto bounded_path   = track(path("skew_bounded.bin"));
    const auto seq_path       = track(path("skew_seq.bin"));

    pe::ChunkOptions opt;
    opt.num_pes      = kChunks;
    opt.total_chunks = kChunks;
    opt.pool         = &pool;

    // Sequential reference: canonical order by construction.
    {
        pe::ChunkOptions seq = opt;
        seq.threads          = 1;
        BinaryFileSink sink(seq_path);
        pe::run_chunked(seq, skewed_fn(), sink);
        sink.finish();
    }
    // Unbounded threaded run.
    {
        opt.threads = 4;
        BinaryFileSink sink(unbounded_path);
        const auto stats = pe::run_chunked(opt, skewed_fn(), sink);
        sink.finish();
        EXPECT_EQ(stats.spilled_chunks, 0u);
        EXPECT_EQ(stats.spilled_bytes, 0u);
    }
    // Budget far below one chunk: every parked chunk must go to disk, and
    // resident bytes must stay within budget + the one in-flight chunk.
    u64 max_chunk_bytes = 0;
    for (u64 c = 0; c < kChunks; ++c) {
        max_chunk_bytes =
            std::max<u64>(max_chunk_bytes, chunk_payload(c).size() * sizeof(Edge));
    }
    {
        opt.max_buffered_bytes = 64;
        BinaryFileSink sink(bounded_path);
        const auto stats = pe::run_chunked(opt, skewed_fn(), sink);
        sink.finish();
        EXPECT_GT(stats.spilled_chunks, 0u) << "skew did not engage the window";
        EXPECT_GT(stats.spilled_bytes, 0u);
        EXPECT_LE(stats.peak_buffered_bytes, opt.max_buffered_bytes + max_chunk_bytes);
    }
    const std::string reference = slurp(seq_path);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(slurp(unbounded_path), reference);
    EXPECT_EQ(slurp(bounded_path), reference);
}

TEST_F(SpillTest, BudgetSweepIsByteIdenticalAcrossThreadCounts) {
    // Property: for any budget and any worker count, the delivered stream
    // equals the sequential unbounded run byte for byte.
    constexpr u64 kChunks = 32;
    pe::ThreadPool pool(3);

    const auto ref_path = track(path("sweep_ref.bin"));
    {
        pe::ChunkOptions opt;
        opt.num_pes      = kChunks;
        opt.total_chunks = kChunks;
        opt.threads      = 1;
        opt.pool         = &pool;
        BinaryFileSink sink(ref_path);
        pe::run_chunked(opt, skewed_fn(20), sink);
        sink.finish();
    }
    const std::string reference = slurp(ref_path);

    int variant = 0;
    for (const u64 budget : {u64{0}, u64{16}, u64{1024}, u64{1} << 20}) {
        for (const u64 threads : {u64{2}, u64{4}}) {
            pe::ChunkOptions opt;
            opt.num_pes            = kChunks;
            opt.total_chunks       = kChunks;
            opt.threads            = threads;
            opt.pool               = &pool;
            opt.max_buffered_bytes = budget;
            const auto p =
                track(path(("sweep_" + std::to_string(variant++)).c_str()));
            BinaryFileSink sink(p);
            pe::run_chunked(opt, skewed_fn(20), sink);
            sink.finish();
            EXPECT_EQ(slurp(p), reference)
                << "budget=" << budget << " threads=" << threads;
        }
    }
}

TEST_F(SpillTest, NamedSpillPathIsUsedAndCleanedUp) {
    constexpr u64 kChunks = 8;
    pe::ThreadPool pool(3);
    const auto scratch = path("window_scratch");
    pe::ChunkOptions opt;
    opt.num_pes            = kChunks;
    opt.total_chunks       = kChunks;
    opt.threads            = 4;
    opt.pool               = &pool;
    opt.max_buffered_bytes = 16;
    opt.spill_path         = scratch;
    MemorySink sink;
    pe::run_chunked(opt, skewed_fn(), sink);
    sink.finish();
    EXPECT_FALSE(std::ifstream(scratch).good()) << "scratch file leaked";
}

TEST(SpillDelivery, SinkFailureDuringDrainPropagatesAndPoolSurvives) {
    // A sink that fails mid-stream (the ENOSPC shape) must surface as the
    // thrown exception — not as a hang behind a phantom drainer — and the
    // pool must stay usable for the next run.
    class FailingSink final : public EdgeSink {
    protected:
        void consume(const Edge*, std::size_t) override {
            throw std::runtime_error("disk full");
        }
    };

    pe::ThreadPool pool(3);
    pe::ChunkOptions opt;
    opt.num_pes            = 8;
    opt.total_chunks       = 8;
    opt.threads            = 4;
    opt.pool               = &pool;
    opt.max_buffered_bytes = 16;

    FailingSink failing;
    EXPECT_THROW(pe::run_chunked(opt, skewed_fn(), failing), std::runtime_error);

    MemorySink ok;
    pe::run_chunked(opt, skewed_fn(), ok);
    ok.finish();
    EXPECT_FALSE(ok.edges().empty());

    // Inverse skew: chunk 0 completes (and its delivery fails) while every
    // other chunk is still generating. Those chunks finish during the
    // unwind and must park quietly — re-entering the drain would replay
    // the already-consumed cursor slot (a null spill payload).
    const pe::ChunkFn late_others = [](u64 chunk, u64, EdgeSink& sink) {
        if (chunk != 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        for (const auto& e : chunk_payload(chunk)) sink.emit(e);
    };
    FailingSink failing_again;
    EXPECT_THROW(pe::run_chunked(opt, late_others, failing_again),
                 std::runtime_error);
    MemorySink ok_again;
    pe::run_chunked(opt, late_others, ok_again);
    ok_again.finish();
    EXPECT_FALSE(ok_again.edges().empty());
}

// ---------------------------------------------------------------------------
// Whole-model matrix: bounded file output == unbounded file output
// ---------------------------------------------------------------------------

Config matrix_config(Model model, u64 n = 400) {
    Config cfg;
    cfg.model     = model;
    cfg.n         = n;
    cfg.m         = 5 * n;
    cfg.p         = 0.01;
    cfg.r         = 0.08;
    cfg.avg_deg   = 8;
    cfg.gamma     = 2.8;
    cfg.ba_degree = 3;
    cfg.seed      = 99;
    return cfg;
}

constexpr Model kAllModels[] = {
    Model::GnmDirected,   Model::GnmUndirected, Model::GnpDirected,
    Model::GnpUndirected, Model::Rgg2D,         Model::Rgg3D,
    Model::Rdg2D,         Model::Rdg3D,         Model::Rhg,
    Model::RhgStreaming,  Model::Ba,            Model::Rmat};

class BoundedDelivery : public ::testing::TestWithParam<Model> {};

TEST_P(BoundedDelivery, FileOutputMatchesUnboundedAcrossPesAndChunks) {
    // The acceptance matrix: with max_buffered_bytes far below the total
    // edge bytes, file-sink output is bit-identical to the unbounded run
    // for P in {2,5} x K in {1,3}, on a real multi-worker pool.
    pe::ThreadPool pool(3);
    const std::string base =
        ::testing::TempDir() + "kagen_bounded_" + model_name(GetParam());
    std::vector<std::string> created;
    for (const u64 P : {u64{2}, u64{5}}) {
        for (const u64 K : {u64{1}, u64{3}}) {
            Config cfg        = matrix_config(GetParam());
            cfg.chunks_per_pe = K;

            const auto unbounded = base + "_u.bin";
            const auto bounded   = base + "_b.bin";
            created.push_back(unbounded);
            created.push_back(bounded);
            {
                BinaryFileSink sink(unbounded);
                generate_chunked(cfg, P, sink, /*threads=*/4, &pool);
                sink.finish();
            }
            cfg.max_buffered_bytes = 256; // far below total edge bytes
            ChunkStats stats;
            {
                BinaryFileSink sink(bounded);
                stats = generate_chunked(cfg, P, sink, /*threads=*/4, &pool);
                sink.finish();
            }
            EXPECT_EQ(slurp(bounded), slurp(unbounded))
                << model_name(cfg.model) << " P=" << P << " K=" << K;
            // Peak stays within budget + one chunk — the acceptance bound.
            // The largest single chunk is computable exactly: chunk c of C
            // is the pure function generate(cfg, c, C).
            const u64 C = P * K;
            u64 max_chunk_bytes = 0;
            for (u64 c = 0; c < C; ++c) {
                max_chunk_bytes = std::max<u64>(
                    max_chunk_bytes,
                    generate(cfg, c, C).edges.size() * sizeof(Edge));
            }
            EXPECT_LE(stats.peak_buffered_bytes,
                      cfg.max_buffered_bytes + max_chunk_bytes)
                << model_name(cfg.model) << " P=" << P << " K=" << K;
        }
    }
    for (const auto& p : created) std::remove(p.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllModels, BoundedDelivery,
                         ::testing::ValuesIn(kAllModels),
                         [](const ::testing::TestParamInfo<Model>& info) {
                             return model_name(info.param);
                         });

// ---------------------------------------------------------------------------
// External-memory sort/dedup
// ---------------------------------------------------------------------------

TEST_F(SpillTest, EmSortMatchesUnionUndirectedBitForBit) {
    // as_generated chunked file (intentional duplicates included) -> EM
    // sort/dedup at a budget small enough to force many runs == the
    // materialized union_undirected pipeline, byte for byte.
    Config cfg       = matrix_config(Model::GnmUndirected, 600);
    cfg.total_chunks = 12;

    std::vector<EdgeList> per_chunk;
    for (u64 c = 0; c < cfg.total_chunks; ++c) {
        per_chunk.push_back(generate(cfg, c, cfg.total_chunks).edges);
    }
    const auto ref_path = track(path("em_ref.bin"));
    io::write_edge_list_binary(ref_path, pe::union_undirected(per_chunk));

    const auto gen_path = track(path("em_gen.bin"));
    {
        cfg.max_buffered_bytes = 512; // bounded generation feeding the sort
        BinaryFileSink sink(gen_path);
        pe::ThreadPool pool(3);
        generate_chunked(cfg, 4, sink, /*threads=*/4, &pool);
        sink.finish();
    }
    const auto sorted_path = track(path("em_sorted.bin"));
    // 1024-edge runs (the internal floor): forces run formation + k-way
    // merge rather than a single in-memory sort.
    const em::SortStats stats = em::sort_dedup_file(gen_path, sorted_path, 1);
    EXPECT_GT(stats.runs, 1u) << "budget did not force external runs";
    EXPECT_GT(stats.input_edges, stats.output_edges)
        << "as_generated duplicates should have been removed";
    EXPECT_EQ(slurp(sorted_path), slurp(ref_path));
}

TEST_F(SpillTest, EmSortGeometricModelMatchesUnionUndirected) {
    Config cfg       = matrix_config(Model::Rgg2D, 500);
    cfg.total_chunks = 8;

    std::vector<EdgeList> per_chunk;
    for (u64 c = 0; c < cfg.total_chunks; ++c) {
        per_chunk.push_back(generate(cfg, c, cfg.total_chunks).edges);
    }
    const auto ref_path = track(path("em_rgg_ref.bin"));
    io::write_edge_list_binary(ref_path, pe::union_undirected(per_chunk));

    const auto gen_path = track(path("em_rgg_gen.bin"));
    {
        BinaryFileSink sink(gen_path);
        generate_chunked(cfg, 4, sink);
        sink.finish();
    }
    const auto sorted_path = track(path("em_rgg_sorted.bin"));
    em::sort_dedup_file(gen_path, sorted_path, 1);
    EXPECT_EQ(slurp(sorted_path), slurp(ref_path));
}

TEST_F(SpillTest, EmSortDirectedKeepsOrientation) {
    Config cfg       = matrix_config(Model::GnmDirected, 500);
    cfg.total_chunks = 8;

    std::vector<EdgeList> per_chunk;
    for (u64 c = 0; c < cfg.total_chunks; ++c) {
        per_chunk.push_back(generate(cfg, c, cfg.total_chunks).edges);
    }
    const auto ref_path = track(path("em_dir_ref.bin"));
    io::write_edge_list_binary(ref_path, pe::union_directed(per_chunk));

    const auto gen_path = track(path("em_dir_gen.bin"));
    {
        BinaryFileSink sink(gen_path);
        generate_chunked(cfg, 4, sink);
        sink.finish();
    }
    const auto sorted_path = track(path("em_dir_sorted.bin"));
    const em::SortStats stats =
        em::sort_dedup_file(gen_path, sorted_path, 1, /*canonicalize=*/false);
    EXPECT_EQ(stats.output_edges, pe::union_directed(per_chunk).size());
    EXPECT_EQ(slurp(sorted_path), slurp(ref_path));
}

TEST_F(SpillTest, EmSortEmptyAndIdempotent) {
    const auto empty_in  = track(path("em_empty_in.bin"));
    const auto empty_out = track(path("em_empty_out.bin"));
    io::write_edge_list_binary(empty_in, {});
    const em::SortStats stats = em::sort_dedup_file(empty_in, empty_out, 1 << 20);
    EXPECT_EQ(stats.input_edges, 0u);
    EXPECT_EQ(stats.output_edges, 0u);
    EXPECT_EQ(slurp(empty_out), slurp(empty_in));

    // Sorting a sorted, deduplicated file is the identity.
    const EdgeList edges = undirected_set(some_edges(5000));
    const auto once      = track(path("em_idem_once.bin"));
    const auto twice     = track(path("em_idem_twice.bin"));
    io::write_edge_list_binary(once, edges);
    em::sort_dedup_file(once, twice, 1);
    EXPECT_EQ(slurp(twice), slurp(once));
}

TEST_F(SpillTest, EmSortWideKeysMatchUndirectedSet) {
    // Ids of 40 bits need an 80-bit key: the same routine with a 128-bit
    // key type. A known n budgets 32 B per edge; a width derived from the
    // block halves the block instead. Every budget gives the same bytes.
    EdgeList edges;
    u64 x = 12345;
    for (u64 i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const u64 u = (x >> 24) & ((u64{1} << 40) - 1), v = (x * 31) >> 24;
        edges.emplace_back(u, v);
        if (i % 3 == 0) edges.emplace_back(v, u); // a reversed repeat
    }
    const auto in_path  = track(path("em_wide_in.bin"));
    const auto ref_path = track(path("em_wide_ref.bin"));
    const auto out_path = track(path("em_wide_out.bin"));
    io::write_edge_list_binary(in_path, edges);
    io::write_edge_list_binary(ref_path, undirected_set(edges));
    for (const u64 budget : {u64{1}, u64{1} << 16, u64{1} << 30}) {
        em::sort_dedup_file(in_path, out_path, budget);
        EXPECT_EQ(slurp(out_path), slurp(ref_path)) << "derived width, budget " << budget;

        spill::SpillFile scratch;
        em::RunFile runs;
        runs.fd      = scratch.fd();
        runs.lengths = em::form_runs(in_path, runs.fd, budget, u64{1} << 40);
        for (const u64 len : runs.lengths) {
            EXPECT_LE(len, std::max<u64>(1024, budget / 32));
        }
        em::merge_runs({runs}, out_path);
        EXPECT_EQ(slurp(out_path), slurp(ref_path)) << "n = 2^40, budget " << budget;
    }
    // An id at or past 2^⌈log2 n⌉ does not fit the key: refused, not mangled.
    spill::SpillFile scratch;
    EXPECT_THROW(em::form_runs(in_path, scratch.fd(), 1 << 20, u64{1} << 32),
                 std::runtime_error);
}

TEST_F(SpillTest, EmMergeRejectsARunThatDoesNotIncrease) {
    spill::SpillFile scratch;
    const EdgeList run = {{0, 1}, {2, 3}, {2, 3}};
    fileio::write_all(scratch.fd(), run.data(), run.size() * sizeof(Edge));
    const auto out_path = track(path("em_bad_run.bin"));
    try {
        em::merge_runs({{}, {scratch.fd(), 0, {3}}}, out_path);
        FAIL() << "a repeated edge inside a run must be refused";
    } catch (const em::RunOrderError& e) {
        EXPECT_EQ(e.source, 1u);
    }
    EXPECT_FALSE(std::ifstream(out_path).good()) << "partial output left";
}

} // namespace
} // namespace kagen
