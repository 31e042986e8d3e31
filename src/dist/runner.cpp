#include "dist/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/bytes.hpp"
#include "common/fileio.hpp"
#include "graph/em_sort.hpp"
#include "kagen.hpp"
#include "pe/arena.hpp"

namespace kagen::dist {
namespace {

/// Worker-side fan-out sink: forwards every batch to the rank's binary file
/// (when writing one) and to the local statistics sinks. With a file the
/// stream must be ordered (canonical chunk order is what makes rank-file
/// concatenation byte-identical to the single-process run); without one the
/// statistics sinks take concurrent delivery themselves, so the engine can
/// stream fully parallel.
class RankSink final : public EdgeSink {
public:
    RankSink(BinaryFileSink* file, CountingSink& count, DegreeStatsSink* degrees)
        : file_(file), count_(count), degrees_(degrees) {}

    bool ordered() const override { return file_ != nullptr; }

    /// Edges consumed so far; run_chunked has delivered every edge of a
    /// lease by the time it returns, so differences are lease edge counts.
    u64 edges() const { return edges_.load(std::memory_order_relaxed); }

protected:
    void consume(const Edge* edges, std::size_t count) override {
        if (file_ != nullptr) file_->deliver(edges, count);
        count_.deliver(edges, count);
        if (degrees_ != nullptr) degrees_->deliver(edges, count);
        edges_.fetch_add(count, std::memory_order_relaxed);
    }

private:
    BinaryFileSink* file_;
    CountingSink& count_;
    DegreeStatsSink* degrees_;
    std::atomic<u64> edges_{0}; // unordered delivery consumes concurrently
};

void put_chunk_run_stats(std::vector<u8>& out, const pe::ChunkRunStats& s) {
    bytes::put_u64(out, s.num_chunks);
    bytes::put_u64(out, s.workers);
    bytes::put_f64(out, s.seconds);
    bytes::put_u64(out, s.peak_buffered_bytes);
    bytes::put_u64(out, s.spilled_chunks);
    bytes::put_u64(out, s.spilled_bytes);
    bytes::put_u64(out, s.buffers_recycled);
    bytes::put_u64(out, s.buffers_allocated);
}

pe::ChunkRunStats get_chunk_run_stats(const u8*& p, const u8* end) {
    pe::ChunkRunStats s;
    s.num_chunks          = bytes::get_u64(p, end);
    s.workers             = bytes::get_u64(p, end);
    s.seconds             = bytes::get_f64(p, end);
    s.peak_buffered_bytes = bytes::get_u64(p, end);
    s.spilled_chunks      = bytes::get_u64(p, end);
    s.spilled_bytes       = bytes::get_u64(p, end);
    s.buffers_recycled    = bytes::get_u64(p, end);
    s.buffers_allocated   = bytes::get_u64(p, end);
    return s;
}

} // namespace

std::vector<u8> serialize_report(const RankReport& report) {
    std::vector<u8> out;
    bytes::put_u64(out, report.rank);
    bytes::put_u64(out, report.ok ? 1 : 0);
    if (!report.ok) {
        bytes::put_string(out, report.error);
        return out;
    }
    put_chunk_run_stats(out, report.stats);
    bytes::put_u64(out, report.leases.size());
    for (const Lease& lease : report.leases) {
        bytes::put_u64(out, lease.chunk_begin);
        bytes::put_u64(out, lease.chunk_end);
        bytes::put_u64(out, lease.edges);
    }
    bytes::put_u64(out, report.file_edges);
    bytes::put_u64_vector(out, report.runs);
    report.count.serialize(out);
    bytes::put_u64(out, report.has_degrees ? 1 : 0);
    if (report.has_degrees) report.degrees.serialize(out);
    return out;
}

RankReport deserialize_report(const std::vector<u8>& payload) {
    const u8* p   = payload.data();
    const u8* end = p + payload.size();
    RankReport report;
    report.rank = bytes::get_u64(p, end);
    report.ok   = bytes::get_bool(p, end);
    if (!report.ok) {
        report.error = bytes::get_string(p, end);
    } else {
        report.stats       = get_chunk_run_stats(p, end);
        const u64 leases   = bytes::get_u64(p, end);
        // Bound the count by the bytes left before reserving anything.
        if (leases > static_cast<u64>(end - p) / 24) {
            throw std::runtime_error("rank report: lease table overruns the payload");
        }
        report.leases.resize(leases);
        for (Lease& lease : report.leases) {
            lease.chunk_begin = bytes::get_u64(p, end);
            lease.chunk_end   = bytes::get_u64(p, end);
            lease.edges       = bytes::get_u64(p, end);
        }
        report.file_edges  = bytes::get_u64(p, end);
        report.runs        = bytes::get_u64_vector(p, end);
        report.count       = CountingSummary::deserialize(p, end);
        report.has_degrees = bytes::get_bool(p, end);
        if (report.has_degrees) report.degrees = DegreeStatsSummary::deserialize(p, end);
    }
    if (p != end) throw std::runtime_error("rank report: trailing bytes");
    return report;
}

RankReport execute_rank_job(const GraphSpec& graph, const RunOptions& run,
                            const RankJob& job, const NextLease& next) {
    RankReport report;
    report.rank = job.rank;

    std::unique_ptr<BinaryFileSink> file;
    if (!job.rank_path.empty()) {
        file = std::make_unique<BinaryFileSink>(
            job.rank_path, static_cast<std::size_t>(run.sink_buffer_edges));
    }
    CountingSink count(graph.edge_semantics);
    std::unique_ptr<DegreeStatsSink> degrees;
    if (job.degree_stats) {
        degrees = std::make_unique<DegreeStatsSink>(num_vertices(graph),
                                                    graph.edge_semantics);
    }
    RankSink sink(file.get(), count, degrees.get());

    pe::ChunkOptions copt;
    copt.total_chunks       = job.num_chunks; // pins the decomposition
    copt.max_buffered_bytes = run.max_buffered_bytes;
    copt.arena_slab_bytes   = run.arena_slab_bytes;
    copt.pin_threads        = run.pin_threads;
    if (!run.spill_path.empty()) {
        // Each rank needs its own scratch file, not a shared name.
        copt.spill_path = run.spill_path + ".rank" + std::to_string(job.rank);
    }
    // A forked child must never run a parallel section on a pool born in
    // another process, and a TCP worker wants its pool sized to the job:
    // threads == 1 keeps run_chunked on the inline path; more threads get a
    // pool born in *this* process, scoped to this job, and one chunk arena
    // whose slabs stay warm from lease to lease. Both are built only if the
    // rank holds a lease at all.
    std::unique_ptr<pe::ThreadPool> pool;
    std::unique_ptr<pe::SlabArena> arena;
    copt.threads = std::max<u64>(job.threads, 1);
    Lease lease{job.chunk_begin, job.chunk_end, 0};
    if (copt.threads > 1 && lease.chunk_begin < lease.chunk_end) {
        pool      = std::make_unique<pe::ThreadPool>(copt.threads - 1);
        copt.pool = pool.get();
        // Same layout as run_chunked's own per-run arena.
        arena = std::make_unique<pe::SlabArena>(
            run.arena_slab_bytes, /*populate=*/false,
            /*decommit_on_release=*/run.max_buffered_bytes != 0);
        copt.arena = arena.get();
    }
    while (lease.chunk_begin < lease.chunk_end) {
        copt.chunk_begin = lease.chunk_begin;
        copt.chunk_end   = lease.chunk_end;
        const u64 before = sink.edges();
        report.stats.merge(pe::run_chunked(
            copt,
            [&graph](u64 chunk, u64 total, EdgeSink& chunk_sink) {
                generate(graph, chunk, total, chunk_sink);
            },
            sink));
        lease.edges = sink.edges() - before;
        report.leases.push_back(lease);
        lease = next(lease);
    }
    // Generation is over: the slabs and threads must not sit under the
    // run-formation keys.
    arena.reset();
    pool.reset();

    sink.finish();
    if (file) {
        file->finish();
        report.file_edges = file->num_edges();
    }
    if (file && job.form_runs) {
#if defined(__GLIBC__)
        // The generator's freed memory stays in the pool threads' malloc
        // arenas, in amounts that follow which chunks each thread happened
        // to decode. Handing it back first makes the rank's peak its fixed
        // footprint plus the run-formation keys, not plus that remainder.
        ::malloc_trim(0);
#endif
        const std::string runs_path = runs_path_of(job.rank_path);
        const int fd =
            ::open(runs_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
        if (fd < 0) {
            throw std::runtime_error("cannot create run file '" + runs_path +
                                     "': " + std::strerror(errno));
        }
        try {
            report.runs = em::form_runs(job.rank_path, fd, run.sort_memory,
                                        num_vertices(graph));
        } catch (...) {
            fileio::close_or_warn(fd, "run file (error unwind)");
            throw;
        }
        if (::close(fd) != 0) {
            throw std::runtime_error("cannot close run file '" + runs_path +
                                     "': " + std::strerror(errno));
        }
    }
    count.finish();
    if (degrees) degrees->finish();
    report.count = count.summarize();
    if (degrees) {
        report.has_degrees = true;
        report.degrees     = degrees->summarize();
    }
    return report;
}

int open_rank_file(const std::string& path, u64 edges) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        throw std::runtime_error("cannot open rank file '" + path +
                                 "': " + std::strerror(errno));
    }
    try {
        struct stat st{};
        if (::fstat(fd, &st) != 0) {
            throw std::runtime_error("fstat '" + path + "': " + std::strerror(errno));
        }
        const u64 expected_bytes = 8 + 16 * edges;
        if (static_cast<u64>(st.st_size) != expected_bytes) {
            throw std::runtime_error("rank file '" + path + "' is " +
                                     std::to_string(st.st_size) + " bytes, expected " +
                                     std::to_string(expected_bytes));
        }
        // A regular file of at least 8 bytes returns its header in one read,
        // which leaves the offset at the payload.
        u64 header = 0;
        if (::read(fd, &header, sizeof(header)) != static_cast<ssize_t>(sizeof(header))) {
            throw std::runtime_error("cannot read the header of rank file '" + path + "'");
        }
        if (header != edges) {
            throw std::runtime_error("rank file '" + path + "' header claims " +
                                     std::to_string(header) +
                                     " edges, the rank reported " + std::to_string(edges));
        }
    } catch (...) {
        fileio::close_or_warn(fd, "rank file");
        throw;
    }
    return fd;
}

int open_runs_file(const std::string& rank_path, u64 edges) {
    const std::string path = runs_path_of(rank_path);
    const int fd           = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        throw std::runtime_error("cannot open run file '" + path +
                                 "': " + std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || static_cast<u64>(st.st_size) != 16 * edges) {
        fileio::close_or_warn(fd, "run file");
        throw std::runtime_error("run file '" + path + "' does not hold the " +
                                 std::to_string(edges) + " edges of its run table");
    }
    return fd;
}

DistResult run_distributed(const Config& cfg, const DistOptions& opts) {
    net::NetOptions copt;
    copt.num_pes            = opts.num_pes;
    copt.threads_per_worker = opts.threads_per_rank;
    copt.output_path        = opts.output_path;
    copt.degree_stats       = opts.degree_stats;
    copt.dedup_path         = opts.dedup_path;
    net::NetWorkerOptions wopt;
    wopt.run         = cfg; // the fork image hands every rank these
    wopt.scratch_dir = opts.scratch_dir;
    wopt.rank_hook   = opts.rank_hook;
    wopt.lease_hook  = opts.lease_hook;
    // No deadlines: a forked rank cannot vanish without its channel reading
    // EOF, and a slow one is still working.
    copt.connect_timeout_ms = 0;
    wopt.connect_timeout_ms = 0;
    return net::run_forked(cfg, copt, opts.num_ranks == 0 ? 1 : opts.num_ranks, wopt,
                           opts.keep_rank_files);
}

} // namespace kagen::dist
