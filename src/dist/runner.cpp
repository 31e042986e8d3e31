#include "dist/runner.hpp"

#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/bytes.hpp"
#include "common/fileio.hpp"
#include "kagen.hpp"

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

protected:
    void consume(const Edge* edges, std::size_t count) override {
        if (file_ != nullptr) file_->deliver(edges, count);
        count_.deliver(edges, count);
        if (degrees_ != nullptr) degrees_->deliver(edges, count);
    }

private:
    BinaryFileSink* file_;
    CountingSink& count_;
    DegreeStatsSink* degrees_;
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
    bytes::put_u64(out, report.chunk_begin);
    bytes::put_u64(out, report.chunk_end);
    bytes::put_u64(out, report.file_edges);
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
    report.ok   = bytes::get_u64(p, end) != 0;
    if (!report.ok) {
        report.error = bytes::get_string(p, end);
        return report;
    }
    report.stats       = get_chunk_run_stats(p, end);
    report.chunk_begin = bytes::get_u64(p, end);
    report.chunk_end   = bytes::get_u64(p, end);
    report.file_edges  = bytes::get_u64(p, end);
    report.count       = CountingSummary::deserialize(p, end);
    report.has_degrees = bytes::get_u64(p, end) != 0;
    if (report.has_degrees) report.degrees = DegreeStatsSummary::deserialize(p, end);
    if (p != end) throw std::runtime_error("rank report: trailing bytes");
    return report;
}

RankReport execute_rank_job(const Config& cfg, const RankJob& job) {
    RankReport report;
    report.rank        = job.rank;
    report.chunk_begin = job.chunk_begin;
    report.chunk_end   = job.chunk_end;

    std::unique_ptr<BinaryFileSink> file;
    if (!job.rank_path.empty()) {
        file = std::make_unique<BinaryFileSink>(
            job.rank_path, static_cast<std::size_t>(cfg.sink_buffer_edges));
    }
    CountingSink count(cfg.edge_semantics);
    std::unique_ptr<DegreeStatsSink> degrees;
    if (job.degree_stats) {
        degrees = std::make_unique<DegreeStatsSink>(num_vertices(cfg),
                                                    cfg.edge_semantics);
    }
    RankSink sink(file.get(), count, degrees.get());

    if (job.chunk_begin < job.chunk_end) {
        pe::ChunkOptions copt;
        copt.total_chunks       = job.num_chunks;
        copt.num_pes            = 1; // decomposition pinned by total_chunks
        copt.chunks_per_pe      = 1;
        copt.chunk_begin        = job.chunk_begin;
        copt.chunk_end          = job.chunk_end;
        copt.max_buffered_bytes = cfg.max_buffered_bytes;
        copt.arena_slab_bytes   = cfg.arena_slab_bytes;
        copt.pin_threads        = cfg.pin_threads;
        if (!cfg.spill_path.empty()) {
            // Each rank needs its own scratch file, not a shared name.
            copt.spill_path = cfg.spill_path + ".rank" + std::to_string(job.rank);
        }
        // A forked child must never run a parallel section on a pool born in
        // another process, and a TCP worker wants its pool sized to the job:
        // threads == 1 keeps run_chunked on the inline path; more threads
        // get a pool born in *this* process, scoped to this job.
        std::unique_ptr<pe::ThreadPool> pool;
        copt.threads = std::max<u64>(job.threads, 1);
        if (copt.threads > 1) {
            pool      = std::make_unique<pe::ThreadPool>(copt.threads - 1);
            copt.pool = pool.get();
        }
        report.stats = pe::run_chunked(
            copt,
            [&cfg](u64 chunk, u64 total, EdgeSink& chunk_sink) {
                generate(cfg, chunk, total, chunk_sink);
            },
            sink);
    }

    sink.finish();
    if (file) {
        file->finish();
        report.file_edges = file->num_edges();
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

fileio::CopyStats copy_rank_file(const std::string& path, u64 edges, int out_fd,
                                 bool allow_copy_file_range) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        throw std::runtime_error("cannot open rank file '" + path +
                                 "': " + std::strerror(errno));
    }
    struct FdGuard {
        int fd;
        ~FdGuard() { fileio::close_or_warn(fd, "rank file"); }
    } guard{fd};

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
    // A regular file of at least 8 bytes returns its header in one read.
    u64 header = 0;
    if (::read(fd, &header, sizeof(header)) != static_cast<ssize_t>(sizeof(header))) {
        throw std::runtime_error("cannot read the header of rank file '" + path + "'");
    }
    if (header != edges) {
        throw std::runtime_error("rank file '" + path + "' header claims " +
                                 std::to_string(header) + " edges, the rank reported " +
                                 std::to_string(edges));
    }
    if (out_fd < 0) return {};
    // The header read left the offset at the payload.
    return fileio::copy_bytes(fd, out_fd, expected_bytes - 8, allow_copy_file_range);
}

DistResult run_distributed(const Config& cfg, const DistOptions& opts) {
    net::NetOptions copt;
    copt.num_pes            = opts.num_pes;
    copt.threads_per_worker = opts.threads_per_rank;
    copt.output_path        = opts.output_path;
    copt.degree_stats       = opts.degree_stats;
    copt.dedup_path         = opts.dedup_path;
    copt.sort_memory        = opts.sort_memory;
    net::NetWorkerOptions wopt;
    wopt.scratch_dir = opts.scratch_dir;
    wopt.rank_hook   = opts.rank_hook;
    // No deadlines: a forked rank cannot vanish without its channel reading
    // EOF, and a slow one is still working.
    copt.connect_timeout_ms = 0;
    wopt.connect_timeout_ms = 0;
    return net::run_forked(cfg, copt, opts.num_ranks == 0 ? 1 : opts.num_ranks, wopt,
                           opts.keep_rank_files);
}

} // namespace kagen::dist
