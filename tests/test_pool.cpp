// Hot-path scheduling + slab recycling (DESIGN.md §9, §14): chunk buffers
// on a SlabArena, recycled multi-worker ordered delivery
// (byte-identical to sequential, recycling engaged — including in
// bounded-memory mode, where released slabs decommit instead of the pool
// switching off), canonical-order claiming (exact subrange slices, a
// resident window of a few chunks), worker pinning, and one-worker runs
// that build no pool.
// ctest label: pool (re-run under ASan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "kagen.hpp"
#include "obs/metrics.hpp"
#include "pe/arena.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

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

// ---------------------------------------------------------------------------
// Chunk buffers on a SlabArena
// ---------------------------------------------------------------------------

TEST(ArenaChunkBuffer, RecyclesSlabsAndCountsHits) {
    pe::SlabArena arena;

    pe::ChunkBuffer a(&arena);
    EXPECT_EQ(arena.slabs_reserved(), 0u) << "no slab until first write";

    const EdgeList src = some_edges(1000);
    a.append(src.data(), src.size());
    EXPECT_EQ(arena.slabs_reserved(), 1u);
    EXPECT_EQ(arena.freelist_hits(), 0u);
    const Edge* data = nullptr;
    a.for_each_segment([&](EdgeSpan seg) { data = seg.data; });
    ASSERT_NE(data, nullptr);
    a.release();
    EXPECT_EQ(arena.freelist_size(), 1u);

    pe::ChunkBuffer b(&arena);
    b.append(src.data(), src.size());
    EXPECT_EQ(arena.freelist_hits(), 1u);
    EXPECT_EQ(arena.slabs_reserved(), 1u) << "reuse must not map a new slab";
    const Edge* data2 = nullptr;
    b.for_each_segment([&](EdgeSpan seg) { data2 = seg.data; });
    EXPECT_EQ(data2, data) << "freelist must hand back the same slab";
}

TEST(ArenaChunkBuffer, FreelistHoldsAllReleasedSlabs) {
    // The arena has no retention cap: a released slab keeps its mapping on
    // the freelist for the lifetime of the arena (bounded-memory runs
    // decommit the payload pages instead of unmapping — see below).
    pe::SlabArena arena;
    const EdgeList src = some_edges(16);
    std::vector<pe::ChunkBuffer> bufs;
    for (int i = 0; i < 5; ++i) {
        pe::ChunkBuffer b(&arena);
        b.append(src.data(), src.size());
        bufs.push_back(std::move(b));
    }
    for (auto& b : bufs) b.release();
    EXPECT_EQ(arena.freelist_size(), 5u);
    EXPECT_EQ(arena.slabs_reserved(), 5u);
}

TEST(ArenaChunkBuffer, DecommitModeStillRecycles) {
    // Bounded-memory mode: released slabs give their payload pages back to
    // the kernel but keep the mapping, so recycling stays on — the
    // pre-arena pool had to switch itself off here entirely.
    pe::SlabArena arena(0, /*populate=*/false, /*decommit_on_release=*/true);
    const EdgeList src = some_edges(8);
    pe::ChunkBuffer a(&arena);
    a.append(src.data(), src.size());
    a.release();
    EXPECT_EQ(arena.freelist_size(), 1u);

    pe::ChunkBuffer b(&arena);
    b.append(src.data(), src.size());
    EXPECT_EQ(arena.freelist_hits(), 1u);
    EXPECT_EQ(arena.slabs_reserved(), 1u);
    // The decommitted-and-reused payload must read back intact.
    u64 i = 0;
    b.for_each_segment([&](EdgeSpan seg) {
        for (const Edge& e : seg) EXPECT_EQ(e, src[i++]);
    });
    EXPECT_EQ(i, src.size());
}

TEST(ArenaChunkBuffer, UntouchedBuffersHoldNoSlab) {
    pe::SlabArena arena;
    pe::ChunkBuffer b(&arena);
    EXPECT_EQ(b.slabs_held(), 0u);
    b.release(); // nothing to hand back
    EXPECT_EQ(arena.freelist_size(), 0u);
    EXPECT_EQ(arena.slabs_reserved(), 0u);
}

// ---------------------------------------------------------------------------
// Recycled ordered delivery through pe::run_chunked
// ---------------------------------------------------------------------------

pe::ChunkFn chunk_fn() {
    return [](u64 chunk, u64 /*num_chunks*/, EdgeSink& sink) {
        for (const auto& e : some_edges(200 + (chunk * 53) % 300, chunk)) {
            sink.emit(e);
        }
    };
}

TEST(RecycledDelivery, MultiWorkerOutputMatchesSequentialAndRecycles) {
    constexpr u64 kChunks = 24;
    pe::ThreadPool pool(3);

    MemorySink ref_sink;
    pe::ChunkOptions seq;
    seq.num_pes      = kChunks;
    seq.total_chunks = kChunks;
    seq.threads      = 1;
    seq.pool         = &pool;
    pe::run_chunked(seq, chunk_fn(), ref_sink);
    const EdgeList reference = ref_sink.take();

    // Whoever delivers chunk 0 releases its slab before acquiring one for
    // its next chunk, so a run recycles unless that participant happened to
    // execute no further chunk — a schedule so extreme that three
    // attempts hitting it in a row indicates a real regression.
    u64 recycled = 0;
    for (int attempt = 0; attempt < 3 && recycled == 0; ++attempt) {
        pe::ChunkOptions opt = seq;
        opt.threads          = 4;
        MemorySink sink;
        obs::Counter& chains = obs::Registry::global().counter("pe.arena.chains");
        const u64 chains_before = chains.value();
        const auto stats = pe::run_chunked(opt, chunk_fn(), sink);
        EXPECT_EQ(sink.take(), reference);
        // Every chunk here fits one slab, so exactly one slab per chunk.
        EXPECT_EQ(stats.buffers_recycled + stats.buffers_allocated, kChunks)
            << "every chunk binds exactly one slab";
        EXPECT_EQ(chains.value(), chains_before) << "no chunk chains a second slab";
        recycled = stats.buffers_recycled;
    }
    EXPECT_GT(recycled, 0u) << "arena never recycled a slab";
}

TEST(RecycledDelivery, BoundedMemoryModeKeepsRecyclingAndPeakBound) {
    // Regression for the PR-5 special case this arena removed: bounded
    // runs used to disable the pool because retained vector capacity was
    // resident memory the budget accounting could not see. Slabs decommit
    // their payload pages on release instead (pe/arena.hpp), so recycling
    // stays on AND the documented budget + one-chunk peak bound still
    // holds exactly.
    constexpr u64 kChunks = 16;
    pe::ThreadPool pool(3);

    pe::ChunkOptions opt;
    opt.num_pes            = kChunks;
    opt.total_chunks       = kChunks;
    opt.threads            = 4;
    opt.pool               = &pool;
    opt.max_buffered_bytes = 64;

    MemorySink ref_sink;
    pe::ChunkOptions seq = opt;
    seq.threads          = 1;
    seq.max_buffered_bytes = 0;
    pe::run_chunked(seq, chunk_fn(), ref_sink);
    const EdgeList reference = ref_sink.take();

    u64 max_chunk_bytes = 0;
    for (u64 c = 0; c < kChunks; ++c) {
        max_chunk_bytes =
            std::max<u64>(max_chunk_bytes, (200 + (c * 53) % 300) * sizeof(Edge));
    }

    u64 recycled = 0;
    for (int attempt = 0; attempt < 3 && recycled == 0; ++attempt) {
        MemorySink sink;
        const auto stats = pe::run_chunked(opt, chunk_fn(), sink);
        EXPECT_EQ(sink.take(), reference);
        EXPECT_LE(stats.peak_buffered_bytes,
                  opt.max_buffered_bytes + max_chunk_bytes)
            << "budget + one chunk bound violated";
        recycled = stats.buffers_recycled;
    }
    EXPECT_GT(recycled, 0u) << "bounded mode must keep slab recycling on";
}

TEST(RecycledDelivery, SingleWorkerStreamsWithoutChunkBuffers) {
    // workers == 1 takes the direct-streaming path: no chunk buffers at
    // all, so both pool counters and the buffered-bytes peak stay zero.
    pe::ThreadPool pool(3);
    pe::ChunkOptions opt;
    opt.num_pes      = 8;
    opt.total_chunks = 8;
    opt.threads      = 1;
    opt.pool         = &pool;
    MemorySink sink;
    const auto stats = pe::run_chunked(opt, chunk_fn(), sink);
    EXPECT_EQ(stats.workers, 1u);
    EXPECT_EQ(stats.buffers_recycled, 0u);
    EXPECT_EQ(stats.buffers_allocated, 0u);
    EXPECT_EQ(stats.peak_buffered_bytes, 0u);
    EXPECT_EQ(sink.edges().size(), [&] {
        u64 total = 0;
        for (u64 c = 0; c < 8; ++c) total += 200 + (c * 53) % 300;
        return total;
    }());
}

// ---------------------------------------------------------------------------
// Canonical-order claiming
// ---------------------------------------------------------------------------

TEST(CanonicalClaim, SubrangeRunIsTheExactSlice) {
    // A distributed rank's chunk subrange starts mid-decomposition; the
    // multi-worker run must still emit exactly that slice of the stream.
    constexpr u64 kChunks = 30;
    pe::ThreadPool pool(3);

    MemorySink ref_sink;
    pe::ChunkOptions seq;
    seq.num_pes      = kChunks;
    seq.total_chunks = kChunks;
    seq.threads      = 1;
    seq.pool         = &pool;
    seq.chunk_begin  = 5;
    seq.chunk_end    = 29;
    pe::run_chunked(seq, chunk_fn(), ref_sink);

    pe::ChunkOptions opt = seq;
    opt.threads          = 4;
    MemorySink sink;
    pe::run_chunked(opt, chunk_fn(), sink);
    EXPECT_EQ(sink.take(), ref_sink.take());
}

/// Ordered sink that only counts: delivery costs next to nothing, so the
/// resident window measures the schedule, not the sink.
class OrderedCountSink final : public EdgeSink {
public:
    u64 edges = 0;

protected:
    void consume(const Edge*, std::size_t count) override { edges += count; }
};

TEST(CanonicalClaim, OrderedDeliveryKeepsAFewChunksResident) {
    // Regression for the contiguous per-participant deal this cursor
    // replaced: with 4 participants each owning a block of 8 of 32 chunks,
    // chunks 8-31 finished and waited for participant 0's block, so about
    // three quarters of the output sat in chunk buffers at peak. Claiming
    // in canonical order keeps the delivery cursor about one chunk per
    // worker behind the frontier. A descheduled worker can still stall the
    // cursor for a while, so a run gets three attempts to stay under half
    // the output.
    Config cfg;
    cfg.model        = Model::GnmDirected;
    cfg.n            = u64{1} << 18;
    cfg.m            = u64{1} << 22; // chunks of a few ms: longer than a time slice
    cfg.seed         = 3;
    cfg.total_chunks = 32;
    const u64 output_bytes = cfg.m * sizeof(Edge);
    pe::ThreadPool pool(3);

    u64 peak = output_bytes;
    for (int attempt = 0; attempt < 3 && 2 * peak > output_bytes; ++attempt) {
        OrderedCountSink sink;
        const ChunkStats stats = generate_chunked(cfg, 4, sink, /*threads=*/4, &pool);
        sink.finish();
        ASSERT_EQ(sink.edges, cfg.m);
        ASSERT_EQ(stats.workers, 4u);
        peak = stats.peak_buffered_bytes;
    }
    EXPECT_LE(2 * peak, output_bytes)
        << "peak resident chunk bytes " << peak << " of " << output_bytes;
}

// ---------------------------------------------------------------------------
// Worker pinning
// ---------------------------------------------------------------------------

TEST(PinWorkers, PinsOnceAndKeepsResultsCorrect) {
    pe::ThreadPool pool(3);
    const u64 pinned = pool.pin_workers();
#ifdef __linux__
    EXPECT_EQ(pinned, 3u);
#endif
    EXPECT_EQ(pool.pin_workers(), pinned) << "pin_workers must be idempotent";

    std::vector<std::atomic<u64>> hits(50);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(50, 0, [&](u64 t) { hits[t].fetch_add(1); });
    for (u64 t = 0; t < 50; ++t) EXPECT_EQ(hits[t].load(), 1u);
}

TEST(PinWorkers, PinnedChunkedRunMatchesUnpinned) {
    Config cfg;
    cfg.model         = Model::GnmUndirected;
    cfg.n             = 500;
    cfg.m             = 2500;
    cfg.seed          = 11;
    cfg.chunks_per_pe = 3;

    MemorySink plain;
    generate_chunked(cfg, 4, plain);

    cfg.pin_threads = true;
    pe::ThreadPool pool(3); // private pool: pinning the global one is sticky
    MemorySink pinned;
    generate_chunked(cfg, 4, pinned, /*threads=*/4, &pool);
    EXPECT_EQ(pinned.take(), plain.take());
}

// ---------------------------------------------------------------------------
// One-worker runs build no pool
// ---------------------------------------------------------------------------

u64 thread_count() {
    u64 count = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        ++count;
    }
    return count;
}

/// Runs a one-worker run_chunked into `sink` and exits 0 iff the process
/// gained no thread. Meant for a fresh death-test child, where no earlier
/// test has built the global pool.
[[noreturn]] void one_worker_run_and_exit(EdgeSink& sink) {
    const u64 before = thread_count();
    pe::ChunkOptions opt;
    opt.num_pes       = 4;
    opt.chunks_per_pe = 4;
    opt.threads       = 1;
    const auto stats  = pe::run_chunked(
        opt, [](u64 chunk, u64, EdgeSink& out) { out.emit(chunk, chunk + 1); }, sink);
    const u64 after = thread_count();
    std::fprintf(stderr, "workers=%llu threads before=%llu after=%llu\n",
                 static_cast<unsigned long long>(stats.workers),
                 static_cast<unsigned long long>(before),
                 static_cast<unsigned long long>(after));
    std::exit(stats.workers == 1 && after == before ? 0 : 1);
}

TEST(ThreadPool, OneWorkerRunSpawnsNoThreads) {
    if (!std::filesystem::exists("/proc/self/task")) {
        GTEST_SKIP() << "/proc/self/task not available";
    }
    if (std::thread::hardware_concurrency() <= 1) {
        GTEST_SKIP() << "the global pool has no workers on one hardware thread";
    }
    // threadsafe re-executes the binary for this test alone, so the child
    // starts without the global pool whatever ran before in this process.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            MemorySink ordered;
            one_worker_run_and_exit(ordered);
        },
        ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(
        {
            CountingSink unordered;
            one_worker_run_and_exit(unordered);
        },
        ::testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace kagen
