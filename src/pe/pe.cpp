#include "pe/pe.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/trace.hpp"
#include "pe/arena.hpp"
#include "sink/spill.hpp"

namespace kagen::pe {
namespace {

/// True while the current thread executes inside a parallel section; nested
/// parallel_for calls then run inline instead of deadlocking on the pool.
thread_local bool t_inside_pool = false;

struct Job {
    const std::function<void(u64)>* fn = nullptr;
    u64 num_tasks                      = 0;
    /// Shared task cursor: every participant claims its next task with one
    /// fetch_add, so tasks *start* in canonical order and each index is
    /// claimed exactly once. Ordered delivery depends on that start order:
    /// the delivery cursor trails the claim frontier by about one task per
    /// participant, so completed chunks wait for at most that many
    /// predecessors instead of for a whole per-participant block.
    std::atomic<u64> next{0};
    /// Participants that have left run_participant. The job owner may only
    /// reclaim the (stack-allocated) job once every participant has exited —
    /// "all tasks done" is not enough, a late participant still touches
    /// the cursor.
    std::atomic<u64> exited{0};
    /// First exception thrown by any task; rethrown on the submitting
    /// thread once the section has fully joined (a worker must never let an
    /// exception escape into worker_loop — that would std::terminate).
    std::mutex error_m;
    std::exception_ptr error;
    std::atomic<bool> cancelled{false};
};

/// RAII for the nesting flag: exceptions unwinding through a parallel
/// section must not leave the thread marked as inside the pool.
struct InsidePoolGuard {
    InsidePoolGuard() { t_inside_pool = true; }
    ~InsidePoolGuard() { t_inside_pool = false; }
};

/// Per-participant utilization, accumulated locally during the section and
/// flushed to the metrics registry once on exit — the hot loop never takes
/// the registry mutex, and per-worker counters survive as named
/// instruments (`pool.w007.busy_ns`) for the tool's `-v` report.
struct ParticipantStats {
    u64 busy_ns = 0;
    u64 tasks   = 0;

    void flush(u64 self) {
        if (tasks == 0) return;
        obs::Registry& reg = obs::Registry::global();
        char name[48];
        std::snprintf(name, sizeof(name), "pool.w%03llu.",
                      static_cast<unsigned long long>(self));
        const std::string prefix(name);
        reg.counter(prefix + "busy_ns").add(busy_ns);
        reg.counter(prefix + "tasks").add(tasks);
        reg.counter("pool.busy_ns").add(busy_ns);
        reg.counter("pool.tasks").add(tasks);
    }
};

void run_participant(Job& job, u64 self) {
    ParticipantStats pstats;
    for (;;) {
        const u64 task = job.next.fetch_add(1, std::memory_order_relaxed);
        if (task >= job.num_tasks) break;
        if (job.cancelled.load(std::memory_order_acquire)) break;
        const u64 t0 = obs::monotonic_now();
        try {
            (*job.fn)(task);
        } catch (...) {
            pstats.busy_ns += obs::monotonic_now() - t0;
            {
                std::lock_guard<std::mutex> lock(job.error_m);
                if (!job.error) job.error = std::current_exception();
            }
            job.cancelled.store(true, std::memory_order_release);
            break;
        }
        pstats.busy_ns += obs::monotonic_now() - t0;
        ++pstats.tasks;
    }
    pstats.flush(self);
}

} // namespace

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

struct ThreadPool::Impl {
    std::vector<std::thread> workers;
    /// Serializes whole parallel sections: the job slot is single-occupancy,
    /// so concurrent parallel_for calls from distinct external threads must
    /// queue up instead of overwriting each other's published job.
    std::mutex submit_m;
    std::mutex m;
    std::condition_variable cv_work;
    std::condition_variable cv_done;
    Job* job         = nullptr;  // currently published job (or null)
    u64 participants = 0;        // participants of the published job
    u64 generation   = 0;
    bool stop        = false;
    bool pinned      = false;    // pin_workers already ran (idempotence)
    u64 pinned_count = 0;

    void worker_loop(u64 index) {
        u64 seen = 0;
        for (;;) {
            Job* my_job = nullptr;
            u64 self    = 0;
            {
                std::unique_lock<std::mutex> lock(m);
                cv_work.wait(lock, [&] { return stop || generation != seen; });
                if (stop) return;
                seen = generation;
                // Participant 0 is the caller; workers take 1 + index.
                if (index + 1 < participants) {
                    my_job = job;
                    self   = index + 1;
                }
            }
            if (my_job == nullptr) continue;
            {
                InsidePoolGuard inside;
                run_participant(*my_job, self);
            }
            {
                std::lock_guard<std::mutex> lock(m);
                my_job->exited.fetch_add(1, std::memory_order_acq_rel);
                cv_done.notify_all();
            }
        }
    }
};

ThreadPool::ThreadPool(u64 num_threads) : impl_(new Impl) {
    if (num_threads == 0) {
        const u64 hw = std::thread::hardware_concurrency();
        num_threads  = hw > 1 ? hw - 1 : 0;
    }
    impl_->workers.reserve(num_threads);
    for (u64 i = 0; i < num_threads; ++i) {
        impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(impl_->m);
        impl_->stop = true;
    }
    impl_->cv_work.notify_all();
    for (auto& t : impl_->workers) t.join();
    delete impl_;
}

u64 ThreadPool::num_threads() const { return impl_->workers.size() + 1; }

void ThreadPool::parallel_for(u64 num_tasks, u64 max_workers,
                              const std::function<void(u64)>& fn) {
    if (num_tasks == 0) return;
    u64 participants = num_threads();
    if (max_workers != 0) participants = std::min(participants, max_workers);
    participants = std::min(participants, num_tasks);
    if (participants <= 1 || t_inside_pool) {
        // Inline path: single participant or nested call from a worker.
        for (u64 t = 0; t < num_tasks; ++t) fn(t);
        return;
    }
    std::lock_guard<std::mutex> submit_lock(impl_->submit_m);

    Job job;
    job.fn        = &fn;
    job.num_tasks = num_tasks;

    {
        std::lock_guard<std::mutex> lock(impl_->m);
        impl_->job          = &job;
        impl_->participants = participants;
        ++impl_->generation;
    }
    impl_->cv_work.notify_all();

    {
        InsidePoolGuard inside;
        run_participant(job, 0);
    }

    {
        std::unique_lock<std::mutex> lock(impl_->m);
        job.exited.fetch_add(1, std::memory_order_acq_rel);
        impl_->cv_done.wait(lock, [&] {
            return job.exited.load(std::memory_order_acquire) == participants;
        });
        impl_->job          = nullptr;
        impl_->participants = 0;
    }
    if (job.error) std::rethrow_exception(job.error);
}

u64 ThreadPool::pin_workers() {
#ifdef __linux__
    std::lock_guard<std::mutex> lock(impl_->m);
    if (impl_->pinned) return impl_->pinned_count;
    impl_->pinned = true;
    const u64 hw  = std::max<u64>(std::thread::hardware_concurrency(), 1);
    u64 pinned    = 0;
    for (u64 i = 0; i < impl_->workers.size(); ++i) {
        cpu_set_t set;
        CPU_ZERO(&set);
        // Worker i takes CPU (i+1) mod hw: CPU 0 stays with the calling
        // participant, and on pools wider than the machine the assignment
        // wraps (oversubscribed workers share cores either way).
        CPU_SET(static_cast<int>((i + 1) % hw), &set);
        if (pthread_setaffinity_np(impl_->workers[i].native_handle(),
                                   sizeof(set), &set) == 0) {
            ++pinned;
        }
    }
    impl_->pinned_count = pinned;
    return pinned;
#else
    return 0;
#endif
}

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(0);
    return pool;
}

// ---------------------------------------------------------------------------
// Classic per-rank harness (now running on the pool)
// ---------------------------------------------------------------------------

std::vector<EdgeList> run_all(u64 size, const RankFn& fn, bool threaded) {
    std::vector<EdgeList> results(size);
    if (!threaded || size <= 1) {
        for (u64 rank = 0; rank < size; ++rank) results[rank] = fn(rank, size);
        return results;
    }
    ThreadPool::global().parallel_for(
        size, 0, [&](u64 rank) { results[rank] = fn(rank, size); });
    return results;
}

double run_timed(u64 size, const RankFn& fn, u64 hardware_threads) {
    if (hardware_threads == 0) hardware_threads = std::thread::hardware_concurrency();
    // Oversubscription guard: if there are more ranks than cores, ranks are
    // processed by the worker pool; the measured makespan then corresponds
    // to the per-core aggregate — still the quantity weak/strong scaling
    // plots care about, and documented in EXPERIMENTS.md.
    const u64 workers = std::min<u64>(size, hardware_threads);
    const u64 start   = obs::monotonic_now();
    ThreadPool::global().parallel_for(size, workers, [&](u64 rank) {
        EdgeList edges = fn(rank, size); // result dropped: timing only
        // Keep the optimizer from deleting the generation.
        asm volatile("" : : "r"(edges.data()) : "memory");
    });
    return static_cast<double>(obs::monotonic_now() - start) * 1e-9;
}

EdgeList union_undirected(const std::vector<EdgeList>& per_pe) {
    EdgeList all;
    for (const auto& part : per_pe) append(all, part);
    return undirected_set(std::move(all));
}

EdgeList union_directed(const std::vector<EdgeList>& per_pe) {
    EdgeList all;
    for (const auto& part : per_pe) append(all, part);
    sort_unique(all);
    return all;
}

// ---------------------------------------------------------------------------
// Chunked execution engine
// ---------------------------------------------------------------------------

namespace {

/// Per-chunk facade that forwards batches straight into a shared
/// order-insensitive sink (whose consume() is thread-safe by contract).
/// Uses external-buffer mode over caller-owned (stack) storage, so
/// constructing one allocates nothing — the unordered path is as
/// heap-quiet as the ordered arena path (DESIGN.md §14).
class ForwardingSink final : public EdgeSink {
public:
    ForwardingSink(EdgeSink& target, Edge* buffer, std::size_t capacity)
        : EdgeSink(buffer, capacity), target_(target) {}

    /// Edges handed to the target so far (exact after flush()).
    u64 edges_forwarded() const { return forwarded_; }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        target_.deliver(edges, count);
        forwarded_ += count;
    }

private:
    EdgeSink& target_;
    u64 forwarded_ = 0;
};

/// Chunk facade of the in-place path (DESIGN.md §5): emits into a worker's
/// reused batch buffer (external-buffer mode) and writes each full batch at
/// the chunk's next slot of the target. Past the advertised count it only
/// counts: a miscounting chunk never writes into its neighbour's slots,
/// and the run can name both counts.
class InPlaceSink final : public EdgeSink {
public:
    InPlaceSink(EdgeSink& target, u64 first_slot, u64 advertised, Edge* buffer,
                std::size_t capacity)
        : EdgeSink(buffer, capacity), target_(target), first_slot_(first_slot),
          advertised_(advertised) {}

    /// Edges emitted so far (exact after flush()).
    u64 emitted() const { return emitted_; }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        if (emitted_ + count <= advertised_) {
            target_.write_at(first_slot_ + emitted_, edges, count);
        }
        emitted_ += count;
    }

private:
    EdgeSink& target_;
    const u64 first_slot_;
    const u64 advertised_;
    u64 emitted_ = 0;
};

/// Batch buffers of the in-place path, one per participant, handed from
/// chunk to chunk. Raw storage, never zero-filled: a page is first touched
/// by the edges emitted into it.
class BatchBuffers {
public:
    BatchBuffers(u64 count, std::size_t capacity)
        : storage_(static_cast<Edge*>(::operator new(count * capacity * sizeof(Edge)))),
          free_(count), available_(count) {
        for (u64 i = 0; i < count; ++i) free_[i] = storage_.get() + i * capacity;
    }

    /// One buffer for the length of a chunk. A run has no more chunks in
    /// flight than participants, so the free stack never runs dry.
    class Held {
    public:
        explicit Held(BatchBuffers& owner) : owner_(owner) {
            const std::lock_guard<std::mutex> lock(owner_.mutex_);
            buffer_ = owner_.free_[--owner_.available_];
        }
        ~Held() {
            const std::lock_guard<std::mutex> lock(owner_.mutex_);
            owner_.free_[owner_.available_++] = buffer_;
        }
        Held(const Held&)            = delete;
        Held& operator=(const Held&) = delete;

        Edge* get() const { return buffer_; }

    private:
        BatchBuffers& owner_;
        Edge* buffer_ = nullptr;
    };

private:
    struct OperatorDelete {
        void operator()(Edge* p) const { ::operator delete(p); }
    };

    std::unique_ptr<Edge, OperatorDelete> storage_;
    std::mutex mutex_;
    std::vector<Edge*> free_; ///< stack of free buffers: [0, available_)
    u64 available_;
};

/// Bounded-memory ordered delivery (DESIGN.md §5): completed chunks park
/// their slab chains in per-chunk slots (in RAM while the byte budget
/// allows, on disk past it), and a single *designated drainer* streams the
/// contiguous ready prefix into the sink in canonical chunk order, so the
/// output is byte-identical to a sequential run.
///
/// One mutex guards the slots, the cursor, the `draining_` flag and the
/// byte and spill counts; it is never held across sink delivery, spill
/// parking or spill replay. A producer publishes its slot and tests
/// `draining_` under the same lock the drainer takes to re-check the cursor
/// slot before it gives the role up, so no ready slot is ever stranded.
class OrderedDelivery {
public:
    /// Writes the ordered-delivery fields of `stats` (peak, spills).
    OrderedDelivery(u64 num_chunks, u64 chunk_base, u64 max_buffered_bytes,
                    const std::string& spill_path, EdgeSink& sink,
                    SlabArena& arena, ChunkRunStats& stats)
        : slots_(num_chunks), chunk_base_(chunk_base),
          budget_(max_buffered_bytes), arena_(arena), sink_(sink), stats_(stats) {
        // The spill file is only ever touched in bounded mode; create it
        // eagerly so producers never race on lazy construction.
        if (budget_ != 0) {
            spill_ = std::make_unique<spill::SpillFile>(spill_path);
        }
    }

    ~OrderedDelivery() {
        if (scratch_ != nullptr) arena_.release(scratch_);
    }

    /// Called by the producing worker when chunk `chunk` has finished
    /// generating. Takes ownership of the slab chain in `buf`.
    void complete(u64 chunk, ChunkBuffer buf) {
        const u64 bytes = buf.bytes();
        std::unique_lock<std::mutex> lock(mutex_);
        Slot& slot = slots_[chunk];
        // The cursor chunk, while no drainer runs, is about to leave through
        // the sink and never worth a disk round-trip: the "+ one chunk" of
        // the bound. After a sink failure the run is unwinding: park in RAM
        // without spill I/O and never re-enter the drain, whose cursor slot
        // the failed delivery already consumed.
        const bool at_cursor = chunk == cursor_ && !draining_;
        if (!failed_ && budget_ != 0 && bytes > 0 && resident_ + bytes > budget_ &&
            !at_cursor) {
            lock.unlock();
            obs::instant(obs::Phase::budget_park, chunk_base_ + chunk);
            // SpillFile::append only serializes its offset reservation, so
            // concurrent spillers overlap their writes.
            auto parked = std::make_unique<spill::SpillSink>(*spill_);
            {
                obs::Span park_span(obs::Phase::spill_park, chunk_base_ + chunk);
                buf.for_each_segment([&](EdgeSpan seg) {
                    parked->deliver(seg.data, seg.count);
                });
                parked->finish();
            }
            buf.release(); // chain back to the freelist before publishing
            lock.lock();
            slot.spilled = std::move(parked);
            ++stats_.spilled_chunks;
            stats_.spilled_bytes += bytes;
        } else {
            slot.buf   = std::move(buf);
            slot.bytes = bytes;
            resident_ += bytes;
            stats_.peak_buffered_bytes = std::max(stats_.peak_buffered_bytes, resident_);
        }
        slot.ready = true;
        if (!draining_ && !failed_) drain(lock);
    }

    /// Chunks handed to the sink; read after the parallel section joined.
    u64 delivered_chunks() const { return cursor_; }

private:
    struct Slot {
        bool ready = false;
        u64 bytes  = 0;                            ///< resident edge bytes
        ChunkBuffer buf;                           ///< buffered payload
        std::unique_ptr<spill::SpillSink> spilled; ///< spilled payload
    };

    /// Streams the contiguous ready prefix into the sink. Entered with the
    /// lock held and no drainer active; the lock is dropped around every
    /// delivery and re-taken to advance the cursor, so chunks parked
    /// meanwhile are picked up in the same pass. The loop condition is the
    /// re-check, under the lock that clears `draining_`.
    void drain(std::unique_lock<std::mutex>& lock) {
        draining_ = true;
        try {
            while (cursor_ < slots_.size() && slots_[cursor_].ready) {
                Slot& slot      = slots_[cursor_];
                const u64 chunk = chunk_base_ + cursor_;
                ChunkBuffer buf = std::move(slot.buf);
                auto parked     = std::move(slot.spilled);
                lock.unlock();
                if (parked == nullptr) {
                    obs::Span span(obs::Phase::deliver, chunk);
                    buf.for_each_segment([&](EdgeSpan seg) {
                        sink_.deliver(seg.data, seg.count);
                    });
                    // Recycle the chain: producers pull these very slabs off
                    // the arena freelist for their next chunk (DESIGN.md §14).
                    buf.release();
                } else {
                    obs::Span span(obs::Phase::spill_replay, chunk);
                    // Replay through the first 64 KiB of a held scratch
                    // slab: the replay path allocates nothing, touches no
                    // more of the slab's (decommitted) pages, and the
                    // bounded-memory footprint stays budget + one chunk + a
                    // 64 KiB replay window.
                    if (scratch_ == nullptr) scratch_ = arena_.acquire();
                    parked->replay(sink_, scratch_->edges(),
                                   std::min<std::size_t>(scratch_->capacity,
                                                         spill::kReplayBatchEdges));
                }
                lock.lock();
                // The bytes leave the count in the critical section that
                // advances the cursor, so the next chunk's cursor exemption
                // never overlaps them: budget + one chunk, never + two.
                resident_ -= slot.bytes;
                ++cursor_;
            }
        } catch (...) {
            // A failing sink (e.g. ENOSPC in BinaryFileSink) must not leave
            // a phantom drainer behind: producers would park forever and the
            // error would surface as a hang instead of the thrown exception.
            if (!lock.owns_lock()) lock.lock();
            failed_   = true;
            draining_ = false;
            throw;
        }
        draining_ = false;
    }

    std::mutex mutex_;
    std::vector<Slot> slots_;
    const u64 chunk_base_;  ///< absolute id of slot 0 (trace span labels)
    u64 cursor_    = 0;     ///< next chunk owed to the sink
    bool draining_ = false; ///< a designated drainer is active
    bool failed_   = false; ///< a delivery threw; stop draining
    const u64 budget_;      ///< resident-byte budget; 0 = unbounded
    u64 resident_ = 0;      ///< parked + in-flight-to-sink bytes
    std::unique_ptr<spill::SpillFile> spill_;
    SlabArena& arena_;
    EdgeSink& sink_;
    ChunkRunStats& stats_;
    Slab* scratch_ = nullptr; ///< drainer-owned spill-replay scratch slab
};

} // namespace

ChunkRunStats run_chunked(const ChunkOptions& opt, const ChunkFn& fn, EdgeSink& sink) {
    const u64 num_chunks =
        opt.total_chunks != 0 ? opt.total_chunks : opt.num_pes * opt.chunks_per_pe;
    if (num_chunks == 0) {
        throw std::invalid_argument(
            "pe::run_chunked: no chunks to run (num_pes = " + std::to_string(opt.num_pes) +
            ", chunks_per_pe = " + std::to_string(opt.chunks_per_pe) + ")");
    }
    // Subrange selection: tasks cover [begin, end) of the canonical chunks;
    // fn still sees the full decomposition (chunk id, num_chunks), so the
    // emitted stream is the exact slice of the whole-graph stream.
    const u64 begin = opt.chunk_begin;
    const u64 end   = opt.chunk_end != 0 ? opt.chunk_end : num_chunks;
    if (begin > end || end > num_chunks) {
        throw std::invalid_argument(
            "pe::run_chunked: chunk range [" + std::to_string(begin) + ", " +
            std::to_string(end) + ") outside [0, " + std::to_string(num_chunks) + ")");
    }
    const u64 span = end - begin;
    u64 workers    = opt.threads;
    if (workers == 0) {
        workers = std::min<u64>(opt.num_pes, std::thread::hardware_concurrency());
    }
    workers = std::max<u64>(workers, 1);
    // A run with one participant never touches the global pool: building it
    // would spawn hardware_concurrency - 1 threads that never run, in every
    // single-threaded forked rank and TCP worker.
    ThreadPool* pool = opt.pool;
    if (pool == nullptr && std::min(workers, span) > 1) pool = &ThreadPool::global();

    if (opt.pin_threads && pool != nullptr) pool->pin_workers();

    ChunkRunStats stats;
    stats.num_chunks = span;
    stats.workers    = std::min<u64>({workers, std::max<u64>(span, 1),
                                      pool != nullptr ? pool->num_threads() : 1});

    obs::Registry& reg        = obs::Registry::global();
    obs::Histogram& edge_hist = reg.histogram("pe.chunk_edges");

    // Arena layout of the ordered multi-worker path: registry-only, since
    // nothing folds them across leases or ranks.
    u64 arena_chains    = 0;
    u64 slab_bytes      = 0;
    u64 chunks_in_place = 0;
    const u64 start  = obs::monotonic_now();
    if (!sink.ordered()) {
        // Order-insensitive sink: workers stream straight through private
        // stack-buffered facades; memory stays O(buffer) per worker and no
        // facade ever touches the heap. Without a pool the loop runs inline,
        // as parallel_for does for a single participant.
        const auto run_task = [&](u64 task) {
            std::array<Edge, EdgeSink::kDefaultBufferEdges> stack_buf;
            ForwardingSink forward(sink, stack_buf.data(), stack_buf.size());
            {
                obs::Span gen(obs::Phase::generate, begin + task);
                fn(begin + task, num_chunks, forward);
                forward.flush();
            }
            edge_hist.observe(forward.edges_forwarded());
        };
        if (pool != nullptr) {
            pool->parallel_for(span, workers, run_task);
        } else {
            for (u64 task = 0; task < span; ++task) run_task(task);
        }
    } else if (stats.workers <= 1) {
        // Direct streaming (DESIGN.md §9): a single participant visits the
        // chunks in canonical order, so ordered delivery is automatic and
        // no chunk ever materializes — the generator emits straight into
        // the target sink's own inline buffer (no forwarding facade, no
        // chunk buffers, zero extra copies) and the memory bound holds
        // trivially. The closing flush guarantees every emitted edge has
        // reached consume() by return, whether or not `fn` flushed.
        for (u64 task = 0; task < span; ++task) {
            obs::Span gen(obs::Phase::generate, begin + task);
            fn(begin + task, num_chunks, sink);
        }
        sink.flush();
    } else if (opt.chunk_edges && sink.accepts_write_at()) {
        // In-place delivery (DESIGN.md §5): the model fixed every chunk's
        // edge count before drawing any edge, so each chunk's place in the
        // stream is a prefix sum known before generation starts. Workers
        // write their chunks straight there, in batches of up to one slab
        // through one reused buffer each: nothing parks, nothing waits for
        // the cursor, nothing spills, and the order the chunks finish in
        // cannot show in the output.
        const std::vector<u64> counts = opt.chunk_edges(
            num_chunks, [&](u64 num_tasks, const std::function<void(u64)>& task) {
                pool->parallel_for(num_tasks, workers, task);
            });
        if (counts.size() != num_chunks) {
            throw std::logic_error("pe::run_chunked: " + std::to_string(counts.size()) +
                                   " chunk edge counts for " +
                                   std::to_string(num_chunks) + " chunks");
        }
        std::vector<u64> first_slot(span);
        u64 total   = 0;
        u64 largest = 0;
        for (u64 task = 0; task < span; ++task) {
            first_slot[task] = total;
            total += counts[begin + task];
            largest = std::max(largest, counts[begin + task]);
        }
        const u64 base = sink.reserve_slots(total);
        const auto capacity = static_cast<std::size_t>(
            std::clamp<u64>(largest, 1, SlabArena::kDefaultSlabBytes / sizeof(Edge)));
        BatchBuffers buffers(stats.workers, capacity);
        pool->parallel_for(span, workers, [&](u64 task) {
            const u64 chunk = begin + task;
            const BatchBuffers::Held buffer(buffers);
            InPlaceSink local(sink, base + first_slot[task], counts[chunk], buffer.get(),
                              capacity);
            {
                obs::Span gen(obs::Phase::generate, chunk);
                fn(chunk, num_chunks, local);
                local.flush();
            }
            if (local.emitted() != counts[chunk]) {
                throw std::logic_error(
                    "pe::run_chunked: chunk " + std::to_string(chunk) + " emitted " +
                    std::to_string(local.emitted()) + " edges but advertised " +
                    std::to_string(counts[chunk]));
            }
            edge_hist.observe(local.emitted());
        });
        chunks_in_place = span;
    } else {
        // Ordered sink, parallel run: chunks generate *directly into* arena
        // slab chains (ArenaSink aliases the tail slab's free space, so
        // every emitted edge lands at its final resting place) and a single
        // designated drainer hands them over in canonical chunk order — the
        // output stream is bit-identical to a sequential run, for any
        // worker count and any schedule. The pool claims chunks in
        // canonical order, so the cursor trails the claim frontier by about
        // one chunk per worker; chunks completing more than
        // `max_buffered_bytes` ahead of the cursor park on disk, so peak
        // memory is budget + one chunk instead of O(completion skew).
        // In bounded mode released slabs decommit their payload pages
        // (pe/arena.hpp), so the bound holds for resident memory too.
        SlabArena local_arena(opt.arena_slab_bytes,
                              /*decommit_on_release=*/opt.max_buffered_bytes != 0);
        SlabArena& arena = opt.arena != nullptr ? *opt.arena : local_arena;
        // Stats are deltas: an external arena (ChunkOptions::arena) carries
        // warm slabs and counters across runs.
        const u64 base_hits     = arena.freelist_hits();
        const u64 base_reserved = arena.slabs_reserved();
        const u64 base_chains   = arena.chains();
        OrderedDelivery delivery(span, begin, opt.max_buffered_bytes,
                                 opt.spill_path, sink, arena, stats);
        pool->parallel_for(span, workers, [&](u64 task) {
            ChunkBuffer buf(&arena);
            {
                ArenaSink local(buf);
                obs::Span gen(obs::Phase::generate, begin + task);
                fn(begin + task, num_chunks, local);
                local.flush();
            }
            edge_hist.observe(buf.size());
            delivery.complete(task, std::move(buf));
        });
        if (delivery.delivered_chunks() != span) {
            throw std::logic_error(
                "pe::run_chunked: ordered delivery handed " +
                std::to_string(delivery.delivered_chunks()) + " of " +
                std::to_string(span) + " chunks to the sink");
        }
        stats.buffers_recycled  = arena.freelist_hits() - base_hits;
        stats.buffers_allocated = arena.slabs_reserved() - base_reserved;
        arena_chains            = arena.chains() - base_chains;
        slab_bytes              = arena.slab_bytes();
    }
    stats.seconds = static_cast<double>(obs::monotonic_now() - start) * 1e-9;

    // Mirror the per-run struct into the registry: `ChunkRunStats` stays the
    // thin per-run view, the named instruments are what snapshots, merges,
    // and the `-metrics` report consume.
    reg.counter("pe.runs").add(1);
    reg.counter("pe.chunks").add(span);
    reg.counter("pe.chunks_in_place").add(chunks_in_place);
    reg.counter("pe.spilled_chunks").add(stats.spilled_chunks);
    reg.counter("pe.spilled_bytes").add(stats.spilled_bytes);
    reg.counter("pe.peak_buffered_bytes", obs::MergeKind::max)
        .record_max(stats.peak_buffered_bytes);
    reg.counter("pe.arena.freelist_hits").add(stats.buffers_recycled);
    reg.counter("pe.arena.slabs_reserved").add(stats.buffers_allocated);
    reg.counter("pe.arena.slab_bytes_reserved").add(stats.buffers_allocated * slab_bytes);
    reg.counter("pe.arena.chains").add(arena_chains);
    reg.counter("pe.arena.slab_bytes", obs::MergeKind::max).record_max(slab_bytes);
    return stats;
}

} // namespace kagen::pe
