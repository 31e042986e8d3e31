// Slab-arena units (DESIGN.md §14): slab alignment and capacity, freelist
// reuse, overflow chaining without edge movement, graceful exhaustion
// fallback to the heap, decommit-mode recycling — plus the arena-on
// byte-identity sweep: with chunks materializing in slab chains instead of
// vectors, the chunked engine's output must stay bit-identical to the
// direct-streaming single-worker baseline across models, (P, K) splits,
// thread counts, semantics, and slab sizes.
// ctest labels: pool;arena (re-run under ASan/TSan in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kagen.hpp"
#include "pe/arena.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen {
namespace {

// ---------------------------------------------------------------------------
// SlabArena units
// ---------------------------------------------------------------------------

TEST(SlabArena, PayloadIsCacheLineAlignedAtHeaderOffset) {
    pe::SlabArena arena(4096);
    EXPECT_EQ(arena.slab_bytes(), 4096u);
    EXPECT_EQ(arena.slab_capacity_edges(),
              (4096u - pe::Slab::kHeaderBytes) / sizeof(Edge));

    pe::Slab* s = arena.acquire();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s->edges()) -
                  reinterpret_cast<std::uintptr_t>(s),
              pe::Slab::kHeaderBytes);
    // mmap returns page-aligned bases (the heap fallback is 64-aligned), so
    // the first edge of every slab sits on a cache-line boundary.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s->edges()) % 64, 0u);
    arena.release(s);
}

TEST(SlabArena, SlabBytesClampedToMinimum) {
    pe::SlabArena arena(1);
    EXPECT_GE(arena.slab_bytes(), pe::SlabArena::kMinSlabBytes);
    EXPECT_GT(arena.slab_capacity_edges(), 0u);
}

TEST(SlabArena, FreelistReusesReleasedSlabs) {
    pe::SlabArena arena(4096);
    pe::Slab* a = arena.acquire();
    pe::Slab* b = arena.acquire();
    EXPECT_EQ(arena.slabs_reserved(), 2u);
    EXPECT_EQ(arena.freelist_hits(), 0u);

    arena.release(a);
    arena.release(b);
    EXPECT_EQ(arena.freelist_size(), 2u);

    // LIFO reuse, and no new reservation while the freelist has stock.
    EXPECT_EQ(arena.acquire(), b);
    EXPECT_EQ(arena.acquire(), a);
    EXPECT_EQ(arena.freelist_hits(), 2u);
    EXPECT_EQ(arena.slabs_reserved(), 2u);
    arena.release(a);
    arena.release(b);
}

TEST(SlabArena, ExhaustionFallsBackToHeapGracefully) {
    // Cap kernel-backed slabs at 1: the second acquire must take the heap
    // path and still behave like a slab end to end, including recycling
    // through the same freelist.
    pe::SlabArena arena(4096, /*decommit_on_release=*/false,
                        /*max_mapped_slabs=*/1);
    pe::Slab* a = arena.acquire();
    pe::Slab* b = arena.acquire();
#ifdef __linux__
    EXPECT_FALSE(a->heap);
    EXPECT_TRUE(b->heap);
    EXPECT_EQ(arena.heap_fallbacks(), 1u);
#endif
    b->edges()[0] = Edge{1, 2};
    b->count      = 1;
    EXPECT_EQ(b->edges()[0], (Edge{1, 2}));

    arena.release(a);
    arena.release(b);
    pe::Slab* c = arena.acquire();
    EXPECT_EQ(c, b) << "heap slabs recycle through the same freelist";
    EXPECT_EQ(c->count, 0u) << "recycled slabs come back empty";
    arena.release(c);
}

TEST(SlabArena, DecommitKeepsPayloadUsableAfterReuse) {
    pe::SlabArena arena(4096, /*decommit_on_release=*/true);
    pe::Slab* s = arena.acquire();
    const u64 cap = s->capacity;
    for (u64 i = 0; i < cap; ++i) s->edges()[i] = Edge{i, i};
    s->count = cap;
    arena.release(s); // payload pages returned to the kernel

    pe::Slab* t = arena.acquire();
    EXPECT_EQ(t, s);
    // Re-faulted pages must be writable and readable again.
    for (u64 i = 0; i < cap; ++i) t->edges()[i] = Edge{i, i + 1};
    for (u64 i = 0; i < cap; ++i) EXPECT_EQ(t->edges()[i], (Edge{i, i + 1}));
    arena.release(t);
}

// ---------------------------------------------------------------------------
// ChunkBuffer chaining
// ---------------------------------------------------------------------------

TEST(ChunkBufferChains, OverflowChainsWithoutMovingEdges) {
    pe::SlabArena arena(pe::SlabArena::kMinSlabBytes);
    const u64 cap = arena.slab_capacity_edges();
    pe::ChunkBuffer buf(&arena);

    std::vector<Edge> src;
    for (u64 i = 0; i < cap * 2 + 3; ++i) src.push_back(Edge{i, i + 1});

    buf.append(src.data(), 1);
    const Edge* first = nullptr;
    buf.for_each_segment([&](EdgeSpan seg) { first = seg.data; });
    ASSERT_NE(first, nullptr);

    buf.append(src.data() + 1, src.size() - 1);
    EXPECT_EQ(buf.size(), src.size());
    EXPECT_EQ(buf.slabs_held(), 3u);
    EXPECT_EQ(arena.chains(), 2u);

    // Stitched segments reproduce the source exactly; the first slab's
    // payload never moved when the buffer overflowed.
    u64 i              = 0;
    bool checked_first = false;
    buf.for_each_segment([&](EdgeSpan seg) {
        if (!checked_first) {
            EXPECT_EQ(seg.data, first) << "no edge may move on overflow";
            checked_first = true;
        }
        for (const Edge& e : seg) EXPECT_EQ(e, src[i++]);
    });
    EXPECT_EQ(i, src.size());

    buf.release();
    EXPECT_EQ(arena.freelist_size(), 3u);
}

TEST(ChunkBufferChains, ArenaSinkEmitsInPlaceAcrossSlabBoundaries) {
    pe::SlabArena arena(pe::SlabArena::kMinSlabBytes);
    const u64 cap = arena.slab_capacity_edges();
    const u64 n   = cap + cap / 2; // forces exactly one chain
    pe::ChunkBuffer buf(&arena);
    {
        pe::ArenaSink sink(buf);
        for (u64 i = 0; i < n; ++i) sink.emit(i, i * 2 + 1);
        sink.flush();
    }
    EXPECT_EQ(buf.size(), n);
    EXPECT_EQ(buf.slabs_held(), 2u);
    EXPECT_EQ(arena.chains(), 1u);
    u64 i = 0;
    buf.for_each_segment([&](EdgeSpan seg) {
        for (const Edge& e : seg) {
            EXPECT_EQ(e.first, i);
            EXPECT_EQ(e.second, i * 2 + 1);
            ++i;
        }
    });
    EXPECT_EQ(i, n);
    buf.release();
}

// ---------------------------------------------------------------------------
// Arena-on byte-identity sweep
// ---------------------------------------------------------------------------

// The single-worker run takes the direct-streaming path (no chunk buffers,
// no arena — unchanged across the arena refactor), so it doubles as the
// pre-arena baseline: every golden fixture pins that path, and this sweep
// pins the arena path to it. A deliberately tiny slab size forces chunks to
// chain several slabs, so segmented delivery is exercised, not just the
// one-slab fast case.
TEST(ArenaByteIdentity, SweepMatchesDirectStreamingBaseline) {
    constexpr u64 kTotalChunks = 10; // pinned: output independent of (P, K)
    pe::ThreadPool pool(2);          // 3 participants

    for (const auto semantics :
         {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
        for (const auto model :
             {Model::GnmDirected, Model::GnmUndirected, Model::Rgg2D}) {
            Config cfg;
            cfg.model            = model;
            cfg.n                = 600;
            cfg.m                = 2400;
            cfg.r                = 0.08;
            cfg.seed             = 33;
            cfg.total_chunks     = kTotalChunks;
            cfg.edge_semantics   = semantics;
            cfg.arena_slab_bytes = 4096; // force multi-slab chunks

            MemorySink ref;
            generate_chunked(cfg, 1, ref, /*threads=*/1);
            const EdgeList reference = ref.take();
            ASSERT_FALSE(reference.empty());

            for (const u64 pes : {u64{1}, u64{2}, u64{5}}) {
                for (const u64 k : {u64{1}, u64{3}}) {
                    cfg.chunks_per_pe = k;
                    for (const u64 threads : {u64{1}, u64{3}}) {
                        MemorySink sink;
                        generate_chunked(cfg, pes, sink, threads, &pool);
                        EXPECT_EQ(sink.take(), reference)
                            << "model=" << static_cast<int>(model)
                            << " semantics=" << static_cast<int>(semantics)
                            << " P=" << pes << " K=" << k
                            << " threads=" << threads;
                    }
                }
            }
        }
    }
}

TEST(ArenaByteIdentity, SlabSizeNeverChangesOutput) {
    pe::ThreadPool pool(2);
    Config cfg;
    cfg.model         = Model::GnmUndirected;
    cfg.n             = 800;
    cfg.m             = 4000;
    cfg.seed          = 5;
    cfg.total_chunks  = 12;
    cfg.chunks_per_pe = 3;

    MemorySink ref;
    generate_chunked(cfg, 4, ref, /*threads=*/1);
    const EdgeList reference = ref.take();

    for (const u64 slab_bytes : {u64{0}, u64{4096}, u64{1} << 16}) {
        cfg.arena_slab_bytes = slab_bytes;
        MemorySink sink;
        generate_chunked(cfg, 4, sink, /*threads=*/3, &pool);
        EXPECT_EQ(sink.take(), reference) << "slab_bytes=" << slab_bytes;
    }
}

// Bounded-memory (spill) path with a chaining-small slab size: parked
// chunks round-trip segment-wise through the spill file and the drainer's
// scratch-slab replay — output must stay byte-identical.
TEST(ArenaByteIdentity, SpillWithTinySlabsMatchesBaseline) {
    pe::ThreadPool pool(2);
    Config cfg;
    cfg.model         = Model::GnmDirected;
    cfg.n             = 700;
    cfg.m             = 5000;
    cfg.seed          = 17;
    cfg.total_chunks  = 16;
    cfg.chunks_per_pe = 4;

    MemorySink ref;
    generate_chunked(cfg, 4, ref, /*threads=*/1);
    const EdgeList reference = ref.take();

    cfg.arena_slab_bytes   = 4096;
    cfg.max_buffered_bytes = 256; // nearly every out-of-order chunk spills
    MemorySink sink;
    const ChunkStats stats = generate_chunked(cfg, 4, sink, /*threads=*/3, &pool);
    EXPECT_EQ(sink.take(), reference);
    EXPECT_LE(stats.peak_buffered_bytes,
              cfg.max_buffered_bytes +
                  (5000 / 16 + 5000 % 16 + 1) * sizeof(Edge) * 2)
        << "sanity: bounded window stayed near the budget";
}

} // namespace
} // namespace kagen
