/// \file edge_sink.hpp
/// \brief Streaming edge-sink abstraction: the consumer side of every
///        generator's core loop.
///
/// The paper's generators compute a PE's (or chunk's) edges as a pure
/// function of (chunk, num_chunks, seed, params) — nothing about that
/// requires materializing an EdgeList. `EdgeSink` decouples production from
/// consumption: the same generator loop can fill a vector (`MemorySink`),
/// count edges (`CountingSink`), accumulate a degree histogram without ever
/// storing an edge (`DegreeStatsSink`), or stream to disk in the
/// `graph/io` binary format (`BinaryFileSink`). See DESIGN.md §4 and §9.
///
/// Emission goes through a small inline buffer, so the virtual `consume`
/// dispatch is amortized over the buffer capacity — generator inner loops
/// pay one predictable branch per edge, which benches show is within noise
/// of direct `std::vector::push_back`. The capacity is constructor-tunable
/// (kagen_tool: `-sink-buffer-edges`); the default of 4096 edges (64 KiB
/// batches) measured within noise of 1024 on the bulk-write path while
/// quartering the number of virtual dispatches — see EXPERIMENTS.md.
///
/// Threading contract: a sink instance is single-writer. The chunked
/// execution engine (pe/pe.hpp) gives each worker a private buffer and
/// serializes delivery; sinks that opt into unordered delivery
/// (`ordered() == false`) must make `consume` thread-safe themselves, and
/// sinks that accept writes at an edge index make `write_at` thread-safe.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <stdexcept>

#include "common/types.hpp"

namespace kagen {

class EdgeSink {
public:
    /// Default inline-buffer capacity in edges (see the file comment).
    static constexpr std::size_t kDefaultBufferEdges = 4096;

    virtual ~EdgeSink() = default;

    /// Emits one edge. Inline fast path; flushes to `consume` when the
    /// buffer fills.
    void emit(VertexId u, VertexId v) {
        buffer_[fill_++] = Edge{u, v};
        if (fill_ == capacity_) flush();
    }

    void emit(const Edge& e) { emit(e.first, e.second); }

    /// Branch-free emission: the free tail of the inline buffer (at least
    /// one slot; its length goes to `room`). A caller writes candidate
    /// edges there in order, advancing its write position only past the
    /// ones it keeps, then hands the kept prefix over with `commit`; the
    /// slots after it are scratch. The RGG sweep (rgg/rgg.cpp) emits this
    /// way, with no per-edge branch or call.
    Edge* window(std::size_t& room) {
        assert(fill_ < capacity_);
        room = capacity_ - fill_;
        return buffer_ + fill_;
    }

    /// Emits the first `count` edges of the last `window` (`count <= room`).
    void commit(std::size_t count) {
        fill_ += count;
        if (fill_ == capacity_) flush();
    }

    /// Drains the inline buffer into `consume`. Idempotent.
    void flush() {
        if (fill_ == 0) return;
        consume(buffer_, fill_);
        fill_ = 0;
    }

    /// Flushes and finalizes (e.g. patches file headers). Call exactly once
    /// when the stream is complete; `emit` must not be called afterwards.
    virtual void finish() { flush(); }

    /// Direct batch delivery, bypassing the inline buffer — used by
    /// execution engines that already hold whole chunks of edges. Must not
    /// be interleaved with `emit` calls on the same sink by other writers.
    void deliver(const Edge* edges, std::size_t count) {
        if (count > 0) consume(edges, count);
    }

    /// Whether the chunked engine must deliver chunks in canonical order.
    /// Order-insensitive sinks (counters, histograms) return false and
    /// accept concurrent `consume` calls, enabling fully streaming parallel
    /// consumption with O(buffer) memory.
    virtual bool ordered() const { return true; }

    /// Positional delivery (DESIGN.md §5): a sink whose output is a flat
    /// array of edges, the binary file, can take edges at a stream index,
    /// from several threads at once. A run that knows every chunk's edge
    /// count up front then writes each chunk straight to its place instead
    /// of parking it for ordered delivery.
    virtual bool accepts_write_at() const { return false; }

    /// Flushes, then appends `count` edge slots to the stream and returns
    /// the stream index of the first. `write_at` must fill every slot
    /// before anything else is emitted or delivered, and before `finish`.
    virtual u64 reserve_slots(u64 /*count*/) {
        throw std::logic_error("EdgeSink: this sink does not accept writes at an edge index");
    }

    /// Writes `count` edges to the reserved slots from stream index
    /// `index` on. Thread-safe for disjoint slot ranges.
    virtual void write_at(u64 /*index*/, const Edge* /*edges*/, std::size_t /*count*/) {
        throw std::logic_error("EdgeSink: this sink does not accept writes at an edge index");
    }

    /// Inline-buffer capacity this sink was constructed with.
    std::size_t buffer_capacity() const { return capacity_; }

protected:
    /// \param buffer_edges inline-buffer capacity; 0 selects the default.
    explicit EdgeSink(std::size_t buffer_edges = kDefaultBufferEdges)
        : capacity_(buffer_edges != 0 ? buffer_edges : kDefaultBufferEdges),
          owned_(new Edge[capacity_]), buffer_(owned_.get()) {}

    /// External-buffer mode: `emit` writes into caller-owned storage — the
    /// zero-allocation facades of the chunk pipeline (pe/arena.hpp
    /// `ArenaSink` aliases the slab's free space so emitted edges land at
    /// their final resting place; the unordered path's forwarding facade
    /// uses a stack array). The derived class owns the storage and keeps it
    /// valid until rebound; it may pass (nullptr, 0) here and bind the real
    /// region in its constructor body via `rebind_buffer`.
    EdgeSink(Edge* buffer, std::size_t capacity)
        : capacity_(capacity), buffer_(buffer) {}

    /// Repoints the inline buffer (external-buffer mode only). Legal only
    /// from inside `consume` (the pending fill is being committed by that
    /// very call) or before any `emit` — anywhere else it would drop
    /// buffered edges.
    void rebind_buffer(Edge* buffer, std::size_t capacity) {
        buffer_   = buffer;
        capacity_ = capacity;
    }

    /// Receives a batch of edges; count >= 1 (buffered emits arrive in
    /// batches of at most `buffer_capacity()`, `deliver` passes batches
    /// through unchanged). Chunked ordered delivery hands a chunk over as
    /// one call per slab segment (pe/arena.hpp) — sinks must not assume
    /// any correspondence between batch boundaries and chunk boundaries.
    virtual void consume(const Edge* edges, std::size_t count) = 0;

private:
    std::size_t capacity_;
    std::unique_ptr<Edge[]> owned_; ///< null in external-buffer mode
    Edge* buffer_ = nullptr;        ///< active emit region
    std::size_t fill_ = 0;
};

} // namespace kagen
