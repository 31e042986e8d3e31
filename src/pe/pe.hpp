/// \file pe.hpp
/// \brief Logical-PE simulation harness and chunked execution engine.
///
/// The paper's generators are communication-free: each MPI rank computes its
/// part of the graph as a pure function of (rank, P, seed, parameters). This
/// harness substitutes MPI with logical PEs executed on a persistent
/// thread pool (or sequentially for deterministic debugging).
/// DESIGN.md §1 documents why this preserves the paper's behaviour: the
/// per-PE code path is identical, and the harness additionally lets tests
/// check cross-PE invariants exactly.
///
/// Beyond the classic one-rank-per-thread model, `run_chunked` decouples the
/// graph decomposition from the execution: the generator function is invoked
/// once per *logical chunk* (same rank-splitting math as PEs — a chunk id
/// simply plays the rank role), and K·P chunks are scheduled over the pool.
/// Finer chunks mean better load balancing at identical output: chunk
/// results are delivered to the sink in canonical chunk order, so the edge
/// stream is bit-identical whether the run used 1 thread or 64, 1 chunk per
/// PE or 16. DESIGN.md §5 has the full argument.
#pragma once

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/edge_list.hpp"
#include "sink/edge_sink.hpp"

namespace kagen::pe {

class SlabArena; // pe/arena.hpp (chunk buffers of the ordered path)

/// Work a single PE performs: produce its local edge list.
using RankFn = std::function<EdgeList(u64 rank, u64 size)>;

/// Runs ranks 0..size-1 and returns each rank's edge list.
std::vector<EdgeList> run_all(u64 size, const RankFn& fn, bool threaded = false);

/// Wall-clock seconds for executing all ranks concurrently on the pool
/// (the "makespan" — what an MPI job's slowest rank would take).
double run_timed(u64 size, const RankFn& fn, u64 hardware_threads = 0);

/// Deduplicated, canonicalized union of all per-PE undirected outputs.
EdgeList union_undirected(const std::vector<EdgeList>& per_pe);

/// Deduplicated, sorted union of directed outputs.
EdgeList union_directed(const std::vector<EdgeList>& per_pe);

// ---------------------------------------------------------------------------
// Persistent thread pool
// ---------------------------------------------------------------------------

/// Fixed-size pool whose workers persist across parallel sections (thread
/// spin-up would otherwise dominate chunk-granular scheduling). Participants
/// claim tasks one at a time from a single shared atomic cursor, so tasks
/// start in canonical index order and the load balances itself: whoever
/// finishes first takes the next index. `parallel_for` is not reentrant
/// from worker threads; nested calls degrade to inline sequential execution.
class ThreadPool {
public:
    /// \param num_threads worker threads in addition to the caller;
    ///        0 = hardware_concurrency() - 1.
    explicit ThreadPool(u64 num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&)            = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Maximum participants of a parallel section (workers + caller).
    u64 num_threads() const;

    /// Executes fn(task) for every task in [0, num_tasks), using at most
    /// `max_workers` participants (0 = all). Returns when every task has
    /// completed. Deterministic per task; tasks start in ascending index
    /// order, completion order is not fixed.
    void parallel_for(u64 num_tasks, u64 max_workers, const std::function<void(u64)>& fn);

    /// Pins each worker thread to a distinct CPU (round-robin over the
    /// hardware set, leaving CPU 0 to the calling participant). Idempotent;
    /// returns the number of workers pinned (0 when unsupported). Opt-in
    /// via ChunkOptions::pin_threads — pinning stops workers migrating
    /// between cores, which pays off only where the OS scheduler migrates
    /// them often, so it is never the default.
    u64 pin_workers();

    /// Lazily constructed process-wide pool (hardware_concurrency threads).
    static ThreadPool& global();

private:
    struct Impl;
    Impl* impl_;
};

// ---------------------------------------------------------------------------
// Chunked execution engine
// ---------------------------------------------------------------------------

/// Execution shape of a chunked run.
struct ChunkOptions {
    u64 num_pes       = 1; ///< simulated PEs P (worker-parallelism cap)
    u64 chunks_per_pe = 1; ///< K: logical chunks per PE
    u64 total_chunks  = 0; ///< canonical chunk count; 0 = K·P. Pinning this
                           ///< makes the output independent of P and K.
    u64 threads       = 0; ///< worker cap; 0 = min(P, hardware threads)
    ThreadPool* pool  = nullptr; ///< pool to run on; null = global(), built
                                 ///< only when more than one worker runs

    /// Ordered-delivery byte budget: chunks that complete ahead of the
    /// delivery cursor may hold at most this many resident edge bytes
    /// before further out-of-window chunks spill to disk (sink/spill.hpp)
    /// and are replayed in canonical order. 0 = unbounded (no spilling).
    /// Output is byte-identical either way; peak resident chunk-buffer
    /// memory is bounded by `max_buffered_bytes` + one chunk.
    u64 max_buffered_bytes = 0;

    /// Spill scratch file location; empty = anonymous temp file under
    /// $TMPDIR. Only used when `max_buffered_bytes` > 0.
    std::string spill_path;

    /// Canonical chunk subrange [chunk_begin, chunk_end) to execute;
    /// `chunk_end == 0` means "through the last chunk". The decomposition
    /// itself is untouched — `fn` still receives (chunk, num_chunks) against
    /// the full canonical chunk count — so the edge stream of a subrange run
    /// is exactly the corresponding slice of the whole-graph stream. This is
    /// what lets a distributed rank (dist/runner.hpp) generate its
    /// contiguous share of the decomposition in isolation: concatenating the
    /// per-rank streams in rank order reproduces the single-process output
    /// byte for byte, with zero communication.
    u64 chunk_begin = 0;
    u64 chunk_end   = 0;

    /// Pin pool workers to distinct CPUs before the run (see
    /// ThreadPool::pin_workers). Opt-in; pinning a pool is sticky for the
    /// pool's lifetime.
    bool pin_threads = false;

    /// Per-slab size of the chunk arena (pe/arena.hpp) backing the ordered
    /// multi-worker path; 0 = SlabArena::kDefaultSlabBytes. Memory layout
    /// only — the output stream is byte-identical for every value.
    u64 arena_slab_bytes = 0;

    /// External chunk arena to run on; null = a per-run arena. Passing one
    /// keeps slab mappings warm across runs (the steady-state
    /// zero-allocation property then spans runs, not just chunks) — what a
    /// rank does across its leases, and what the allocation-gate test drives.
    SlabArena* arena = nullptr;

    /// Edge counts of all chunks, for models that fix them before drawing
    /// any edge (G(n,m); kagen.hpp `chunk_edge_counts`):
    /// `chunk_edges(C, for_each)[c]` is exactly what chunk c of C emits;
    /// `for_each` runs the count pass's tasks on the run's workers. With
    /// them, a multi-worker run into a sink that accepts writes at an edge
    /// index writes every chunk straight to its place in the stream: no
    /// arena, no ordered delivery, no spill (DESIGN.md §5). Called at most
    /// once per run, and only for that path. Null = counts unknown.
    std::function<std::vector<u64>(u64 num_chunks, const ForEachTask& for_each)>
        chunk_edges;
};

/// Generator body of one logical chunk: stream chunk `chunk` of
/// `num_chunks` into `sink`. Must be pure in (chunk, num_chunks).
using ChunkFn = std::function<void(u64 chunk, u64 num_chunks, EdgeSink& sink)>;

/// The one per-run stats type: what `run_chunked` returns, what
/// `generate_chunked` returns, what a rank folds over its leases and ships
/// in its report (dist/report.hpp), and what the coordinator folds over the
/// ranks. Every field crosses the wire; the registry (obs/metrics.hpp)
/// mirrors it cumulatively and holds the arena layout counters besides.
struct ChunkRunStats {
    u64 num_chunks = 0;    ///< canonical chunks executed
    u64 workers    = 0;    ///< parallel participants used
    double seconds = 0.0;  ///< wall clock of the parallel section (makespan)

    // Ordered-delivery accounting (all zero for unordered sinks, for
    // single-worker runs, which stream chunks straight into the sink with
    // no chunk buffers at all — DESIGN.md §9 — and for in-place runs,
    // which park nothing — §5).
    u64 peak_buffered_bytes = 0; ///< max resident chunk-buffer bytes
                                 ///< (parked + in-flight) at any instant
    u64 spilled_chunks = 0;      ///< chunks parked on disk
    u64 spilled_bytes  = 0;      ///< edge bytes written to the spill file

    // Chunk-arena accounting (multi-worker parked runs only; deltas of
    // this run when an external arena was passed). A "buffer" is a slab of
    // the chunk arena (pe/arena.hpp).
    u64 buffers_recycled  = 0; ///< slab acquires served from the freelist
    u64 buffers_allocated = 0; ///< slabs freshly reserved (mmap/fallback)

    /// Folds another run in: work sums, peaks max, and `seconds` sums to
    /// the busy time of the runs folded (a rank's leases, a fleet's ranks).
    void merge(const ChunkRunStats& o) {
        num_chunks += o.num_chunks;
        workers = std::max(workers, o.workers);
        seconds += o.seconds;
        peak_buffered_bytes = std::max(peak_buffered_bytes, o.peak_buffered_bytes);
        spilled_chunks += o.spilled_chunks;
        spilled_bytes += o.spilled_bytes;
        buffers_recycled += o.buffers_recycled;
        buffers_allocated += o.buffers_allocated;
    }

    bool operator==(const ChunkRunStats&) const = default;
};

/// Runs every canonical chunk through `fn` and streams the results into
/// `sink`. Ordered sinks receive chunks in canonical order (bit-identical
/// output for any thread count). With one effective worker the engine
/// streams each chunk *directly* into the sink — canonical order is
/// automatic, so no chunk is ever materialized (zero chunk buffers, zero
/// copies; DESIGN.md §9). With several workers and known chunk edge counts
/// (`chunk_edges`) into a sink that accepts writes at an edge index, each
/// worker writes its chunk at the chunk's precomputed place through one
/// reused batch buffer. Otherwise completed chunks park in recycled arena
/// slabs in RAM — or, past `max_buffered_bytes`, on disk — and a single
/// designated drainer streams the contiguous ready prefix into the sink
/// *outside* the one bookkeeping lock, so producers never stall on sink
/// I/O (DESIGN.md §5). Unordered sinks (`ordered() == false`) get
/// concurrent delivery with O(buffer) memory per worker. The caller is
/// responsible for `sink.finish()`. Throws std::invalid_argument for zero
/// chunks or a chunk range outside them, and std::logic_error if ordered
/// delivery handed the sink fewer chunks than it ran or a chunk emitted
/// another number of edges than `chunk_edges` advertised.
ChunkRunStats run_chunked(const ChunkOptions& opt, const ChunkFn& fn, EdgeSink& sink);

} // namespace kagen::pe
