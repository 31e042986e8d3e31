/// \file arena.hpp
/// \brief Slab arena under the chunk pipeline: mmap-backed fixed-size slabs
///        with an O(1) freelist, chained chunk buffers, and a direct-emit
///        sink facade — zero malloc/free in the steady-state
///        emit→deliver→write loop (DESIGN.md §14).
///
/// Before the arena, every logical chunk materialized into a heap-grown
/// `std::vector<Edge>`: one allocation plus a doubling-reallocation cascade
/// per chunk, times K·P chunks, on every run. The arena replaces that with
/// fixed-size slabs reserved straight from the kernel (`mmap`, anonymous
/// private) and recycled through an intrusive freelist: after warm-up, a
/// chunk's entire lifetime — fill, park, deliver, recycle — touches the
/// allocator zero times. Chunks larger than one slab *chain* additional
/// slabs; nothing is ever `realloc`ed, so no edge is ever copied because a
/// buffer grew.
///
/// NUMA discipline: slabs are never pre-touched, so the first
/// writer — the pinned worker generating into the slab under `-pin-threads`
/// — faults the pages in and the kernel's first-touch policy places them on
/// that worker's node.
///
/// Bounded-memory interaction: with `decommit_on_release`, a slab returning
/// to the freelist gives its payload pages back to the kernel
/// (`madvise(MADV_DONTNEED)`) while keeping the mapping — recycling (no
/// mmap/munmap churn, freelist hits still count) without retained capacity
/// that the spill window's budget accounting cannot see. The physical
/// footprint of a freelist slab is then one header page. See DESIGN.md §14
/// and the spill window in pe.cpp.
///
/// Exhaustion fallback: when `mmap` fails (or the test-only mapping cap is
/// reached), the arena falls back to one aligned heap allocation per slab —
/// identical layout and lifecycle, flagged for `operator delete` at arena
/// destruction. Output is unaffected; only the zero-malloc property of the
/// affected slabs is lost.
///
/// Thread-safety: `acquire`/`release` are safe from any thread (short
/// mutex around the freelist pointer swap — two lock acquisitions per
/// *chunk*, not per edge). A `ChunkBuffer` is single-writer, like a sink.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::pe {

/// Header at the front of every slab; edge payload follows at
/// `kSlabHeaderBytes` so the first edge is cache-line aligned.
struct Slab {
    Slab* next    = nullptr; ///< chain link (in a buffer) or freelist link
    u64 count     = 0;       ///< committed edges
    u64 capacity  = 0;       ///< edge capacity of the payload
    bool heap     = false;   ///< heap-fallback slab (operator delete, not munmap)

    Edge* edges() {
        return reinterpret_cast<Edge*>(reinterpret_cast<char*>(this) + kHeaderBytes);
    }
    const Edge* edges() const {
        return reinterpret_cast<const Edge*>(
            reinterpret_cast<const char*>(this) + kHeaderBytes);
    }

    static constexpr u64 kHeaderBytes = 64;
};

/// Fixed-size slab arena with an O(1) intrusive freelist.
class SlabArena {
public:
    /// 1 MiB slabs: big enough that typical chunks fit one slab (the chain
    /// path stays rare), small enough that the one-slab minimum per live
    /// chunk is cheap at high worker counts.
    static constexpr u64 kDefaultSlabBytes = u64{1} << 20;
    /// Floor: header + at least one page of payload.
    static constexpr u64 kMinSlabBytes = 4096;

    /// \param slab_bytes  per-slab mapping size; 0 = kDefaultSlabBytes.
    ///        Values below kMinSlabBytes are clamped up.
    /// \param decommit_on_release  return payload pages to the kernel when
    ///        a slab enters the freelist (bounded-memory mode).
    /// \param max_mapped_slabs  test hook: cap on kernel-backed slabs; past
    ///        it every acquire takes the heap-fallback path. 0 = no cap.
    explicit SlabArena(u64 slab_bytes = 0, bool decommit_on_release = false,
                       u64 max_mapped_slabs = 0)
        : slab_bytes_(std::max(slab_bytes != 0 ? slab_bytes : kDefaultSlabBytes,
                               kMinSlabBytes)),
          capacity_edges_((slab_bytes_ - Slab::kHeaderBytes) / sizeof(Edge)),
          decommit_(decommit_on_release), max_mapped_(max_mapped_slabs) {
        slabs_.reserve(16);
    }

    ~SlabArena() {
        // All ChunkBuffers must have released their chains by now; the
        // freelist plus any leaked chains are all reachable via slabs_.
        for (Slab* s : slabs_) {
            if (s->heap) {
                s->~Slab();
                ::operator delete(s, std::align_val_t{Slab::kHeaderBytes});
            } else {
#ifdef __linux__
                s->~Slab();
                ::munmap(s, slab_bytes_);
#else
                s->~Slab();
                ::operator delete(s, std::align_val_t{Slab::kHeaderBytes});
#endif
            }
        }
    }

    SlabArena(const SlabArena&)            = delete;
    SlabArena& operator=(const SlabArena&) = delete;

    /// An empty slab: freelist pop when available, fresh mapping otherwise.
    Slab* acquire() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (free_ != nullptr) {
                Slab* s = free_;
                free_   = s->next;
                s->next = nullptr;
                s->count = 0;
                ++freelist_hits_;
                return s;
            }
        }
        return map_slab();
    }

    /// Hands a single slab back to the freelist. O(1), no deallocation.
    void release(Slab* s) {
        if (s == nullptr) return;
        s->count = 0;
        decommit_payload(s);
        std::lock_guard<std::mutex> lock(mutex_);
        s->next = free_;
        free_   = s;
    }

    /// Releases a whole chain (follows `next` links).
    void release_chain(Slab* head) {
        while (head != nullptr) {
            Slab* next = head->next;
            head->next = nullptr;
            release(head);
            head = next;
        }
    }

    /// Called by ChunkBuffer when a chunk overflows one slab.
    void note_chain() {
        std::lock_guard<std::mutex> lock(mutex_);
        ++chains_;
    }

    u64 slab_bytes() const { return slab_bytes_; }
    u64 slab_capacity_edges() const { return capacity_edges_; }

    /// Slabs ever reserved (mmap + heap fallback).
    u64 slabs_reserved() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return slabs_.size();
    }
    /// Acquires served from the freelist (the recycling hit count).
    u64 freelist_hits() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return freelist_hits_;
    }
    /// Chunks that chained a second (or later) slab.
    u64 chains() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return chains_;
    }
    /// Slabs currently parked on the freelist.
    u64 freelist_size() const {
        std::lock_guard<std::mutex> lock(mutex_);
        u64 n = 0;
        for (Slab* s = free_; s != nullptr; s = s->next) ++n;
        return n;
    }
    /// Slabs served by the heap fallback (mmap failed or capped).
    u64 heap_fallbacks() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return heap_fallbacks_;
    }

private:
    Slab* map_slab() {
        void* mem = nullptr;
        bool heap = false;
#ifdef __linux__
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (max_mapped_ != 0 && mapped_ >= max_mapped_) heap = true;
        }
        if (!heap) {
            mem = ::mmap(nullptr, slab_bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (mem == MAP_FAILED) {
                mem  = nullptr;
                heap = true; // graceful fallback below
            }
        }
#else
        heap = true;
#endif
        if (heap) {
            mem = ::operator new(slab_bytes_, std::align_val_t{Slab::kHeaderBytes});
        }
        Slab* s     = new (mem) Slab;
        s->capacity = capacity_edges_;
        s->heap     = heap;
        std::lock_guard<std::mutex> lock(mutex_);
        slabs_.push_back(s);
        if (heap) {
            ++heap_fallbacks_;
        } else {
            ++mapped_;
        }
        return s;
    }

    void decommit_payload(Slab* s) {
        if (!decommit_ || s->heap) return;
#ifdef __linux__
        // Keep the header page (the freelist link lives there); everything
        // past it goes back to the kernel. Reuse re-faults zero pages —
        // that is the price of the strict bounded-memory footprint, paid
        // per page, never per edge.
        const long page = ::sysconf(_SC_PAGESIZE);
        const u64 skip  = page > 0 ? static_cast<u64>(page) : 4096;
        if (slab_bytes_ > skip) {
            ::madvise(reinterpret_cast<char*>(s) + skip, slab_bytes_ - skip,
                      MADV_DONTNEED);
        }
#endif
    }

    mutable std::mutex mutex_;
    Slab* free_ = nullptr;       ///< intrusive freelist head
    std::vector<Slab*> slabs_;   ///< every slab ever reserved (for teardown)
    const u64 slab_bytes_;
    const u64 capacity_edges_;
    const bool decommit_;
    const u64 max_mapped_;
    u64 mapped_         = 0;
    u64 freelist_hits_  = 0;
    u64 chains_         = 0;
    u64 heap_fallbacks_ = 0;
};

/// Arena-backed chunk payload: a chain of slabs borrowed from a SlabArena,
/// filled once, delivered as per-slab `EdgeSpan` segments, then released
/// back to the freelist. The fixed-capacity replacement for the hot path's
/// former `std::vector<Edge>` — appending never reallocates and never
/// copies an already-written edge; overflow chains a fresh slab instead.
/// Move-only; the destructor releases any held chain.
class ChunkBuffer {
public:
    ChunkBuffer() = default;
    explicit ChunkBuffer(SlabArena* arena) : arena_(arena) {}

    ChunkBuffer(ChunkBuffer&& other) noexcept
        : arena_(other.arena_), head_(other.head_), tail_(other.tail_),
          size_(other.size_) {
        other.head_ = other.tail_ = nullptr;
        other.size_ = 0;
    }
    ChunkBuffer& operator=(ChunkBuffer&& other) noexcept {
        if (this != &other) {
            release();
            arena_ = other.arena_;
            head_  = other.head_;
            tail_  = other.tail_;
            size_  = other.size_;
            other.head_ = other.tail_ = nullptr;
            other.size_ = 0;
        }
        return *this;
    }
    ChunkBuffer(const ChunkBuffer&)            = delete;
    ChunkBuffer& operator=(const ChunkBuffer&) = delete;

    ~ChunkBuffer() { release(); }

    u64 size() const { return size_; }
    bool empty() const { return size_ == 0; }
    u64 bytes() const { return size_ * sizeof(Edge); }

    u64 slabs_held() const {
        u64 n = 0;
        for (const Slab* s = head_; s != nullptr; s = s->next) ++n;
        return n;
    }

    /// Write position in the tail slab, guaranteed to have at least one
    /// free edge slot (chains a fresh slab when the tail is full). Lazily
    /// acquires the first slab — an untouched buffer holds none.
    Edge* write_ptr() {
        if (tail_ == nullptr || tail_->count == tail_->capacity) grow();
        return tail_->edges() + tail_->count;
    }

    /// Free edge slots at `write_ptr()` (0 when no slab is held yet).
    u64 write_capacity() const {
        return tail_ != nullptr ? tail_->capacity - tail_->count : 0;
    }

    /// Commits `n` edges previously written in place at `write_ptr()`.
    void commit(u64 n) {
        assert(tail_ != nullptr && tail_->count + n <= tail_->capacity);
        tail_->count += n;
        size_ += n;
    }

    /// Copy-appends a batch (the foreign-pointer path of `deliver`).
    void append(const Edge* edges, u64 n) {
        while (n > 0) {
            Edge* dst     = write_ptr();
            const u64 fit = std::min<u64>(n, tail_->capacity - tail_->count);
            std::copy(edges, edges + fit, dst);
            commit(fit);
            edges += fit;
            n -= fit;
        }
    }

    /// Visits the committed payload as per-slab contiguous segments, in
    /// emission order.
    template <typename F>
    void for_each_segment(F&& f) const {
        for (const Slab* s = head_; s != nullptr; s = s->next) {
            if (s->count != 0) f(EdgeSpan{s->edges(), s->count});
        }
    }

    /// Returns the whole chain to the arena and empties the buffer.
    void release() {
        if (head_ != nullptr && arena_ != nullptr) {
            arena_->release_chain(head_);
        }
        head_ = tail_ = nullptr;
        size_         = 0;
    }

private:
    void grow() {
        assert(arena_ != nullptr && "ChunkBuffer not bound to an arena");
        Slab* s = arena_->acquire();
        if (head_ == nullptr) {
            head_ = tail_ = s;
        } else {
            tail_->next = s;
            tail_       = s;
            arena_->note_chain();
        }
    }

    SlabArena* arena_ = nullptr;
    Slab* head_       = nullptr;
    Slab* tail_       = nullptr;
    u64 size_         = 0;
};

/// Per-chunk emit facade writing *directly into the chunk's slab chain*:
/// the sink's inline buffer is rebound to the tail slab's free space, so
/// `emit` stores each edge at its final resting place — no facade heap
/// buffer, no memcpy on flush, zero allocations per chunk. Construction
/// eagerly binds the first slab (freelist-served after warm-up).
///
/// `consume` distinguishes the two arrival paths by pointer identity: a
/// flush of the bound region is a pure count commit; a foreign batch
/// (`deliver` from a wrapping filter) is copy-appended. The two are never
/// interleaved mid-buffer by any engine caller (generators either emit or
/// deliver, see edge_sink.hpp).
class ArenaSink final : public EdgeSink {
public:
    explicit ArenaSink(ChunkBuffer& buf)
        : EdgeSink(nullptr, std::size_t{0}), buf_(&buf), bound_(nullptr) {
        bound_ = buf_->write_ptr(); // binds the first slab
        rebind_buffer(bound_, buf_->write_capacity());
    }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        if (edges == bound_) {
            buf_->commit(count);
        } else {
            buf_->append(edges, count);
        }
        bound_ = buf_->write_ptr(); // chains a fresh slab when full
        rebind_buffer(bound_, buf_->write_capacity());
    }

private:
    ChunkBuffer* buf_;
    Edge* bound_; ///< region the inline buffer currently aliases
};

} // namespace kagen::pe
