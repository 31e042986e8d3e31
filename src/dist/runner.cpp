#include "dist/runner.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "common/math.hpp"
#include "graph/em_sort.hpp"
#include "kagen.hpp"
#include "obs/trace.hpp"

namespace kagen::dist {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error("generate_distributed: " + what + ": " +
                             std::strerror(errno));
}

std::string scratch_base(const DistOptions& opt) {
    if (!opt.scratch_dir.empty()) return opt.scratch_dir;
    const char* tmpdir = std::getenv("TMPDIR");
    return tmpdir && *tmpdir ? tmpdir : "/tmp";
}

/// Distinguishes concurrent distributed runs of one coordinator process in
/// the rank-file names (the pid alone covers concurrent processes).
std::atomic<u64> g_run_counter{0};

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

/// Everything a worker process does after the fork. Never returns: the
/// child must leave via _exit so it cannot run the coordinator's atexit
/// handlers or flush inherited stdio buffers twice.
[[noreturn]] void worker_main(const Config& cfg, const DistOptions& opt, u64 rank,
                              u64 num_chunks, u64 chunk_begin, u64 chunk_end,
                              const std::string& rank_path, int write_fd) {
    // A coordinator that died (or closed its read end after a decode
    // failure) must surface as EPIPE from the frame write — not kill the
    // worker with SIGPIPE before the error path can run.
    ::signal(SIGPIPE, SIG_IGN);
    RankReport report;
    report.rank        = rank;
    report.chunk_begin = chunk_begin;
    report.chunk_end   = chunk_end;
    int exit_code      = 0;
    // Telemetry request rides the inherited Config (fork shares the memory
    // image; the TCP twin gets the same bit via JobSpec::want_trace).
    const bool want_telemetry =
        !cfg.trace_path.empty() || !cfg.metrics_path.empty();
    obs::Snapshot obs_base;
    if (want_telemetry) obs_base = obs::begin_rank_telemetry();
    try {
        if (opt.rank_hook) opt.rank_hook(rank);

        RankJob job;
        job.rank         = rank;
        job.num_chunks   = num_chunks;
        job.chunk_begin  = chunk_begin;
        job.chunk_end    = chunk_end;
        job.threads      = opt.threads_per_rank;
        job.degree_stats = opt.degree_stats;
        job.rank_path    = rank_path;
        report           = execute_rank_job(cfg, job);
    } catch (const std::exception& e) {
        report.ok    = false;
        report.error = e.what();
        exit_code    = 1;
    } catch (...) {
        report.ok    = false;
        report.error = "unknown exception";
        exit_code    = 1;
    }
    try {
        write_frame(write_fd, serialize_report(report));
        if (want_telemetry) {
            // Second frame on the same pipe, version-free: the coordinator
            // reads it exactly when it asked for it. clock_base stays 0 —
            // fork workers share the machine's CLOCK_MONOTONIC, so their
            // timelines land on the coordinator clock with no offset.
            obs::RankTelemetry telemetry =
                obs::end_rank_telemetry(rank, obs_base);
            write_frame(write_fd, obs::serialize_telemetry(telemetry));
        }
    } catch (...) {
        exit_code = 1; // coordinator gone; nothing left to report to
    }
    // The process is about to _exit; the pipe fd dies with it either way.
    fileio::close_or_warn(write_fd, "stats pipe");
    ::_exit(exit_code);
}

struct Worker {
    pid_t pid = -1;
    std::unique_ptr<StatsPipe> pipe;
    std::string rank_path;
};

void remove_file(const std::string& path) {
    // Cleanup of partial/temporary files on failure paths: best effort.
    fileio::unlink_or_warn(path.c_str(), "partial output");
}

/// Human-readable death cause from a waitpid status.
std::string describe_status(int status) {
    if (WIFEXITED(status)) {
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        return "killed by signal " + std::to_string(sig) + " (" +
               strsignal(sig) + ")";
    }
    return "ended with unrecognized wait status " + std::to_string(status);
}

int wait_for(pid_t pid) {
    int status = 0;
    for (;;) {
        if (::waitpid(pid, &status, 0) >= 0) return status;
        if (errno != EINTR) throw_errno("waitpid failed");
    }
}

/// Test/ops escape hatch: force the coordinator merge onto the userspace
/// read/write fallback (pins byte-identity of both paths in CI).
bool copy_file_range_disabled() {
    const char* v = std::getenv("KAGEN_DISABLE_COPY_FILE_RANGE");
    return v != nullptr && *v != '\0' && *v != '0';
}

/// Validates a rank file against the worker's report (header count and
/// exact byte size) and appends its payload to `out_fd` at its current
/// offset. Kernel-side zero-copy via fileio::copy_bytes (copy_file_range
/// with an EINTR-safe read/write fallback); both paths verify the full
/// payload length arrived, so a shrinking rank file still fails loudly.
fileio::CopyStats append_rank_file(int out_fd, const std::string& rank_path,
                                   u64 expected_edges) {
    const int fd = ::open(rank_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) throw_errno("cannot reopen rank file '" + rank_path + "'");
    struct FdGuard {
        int fd;
        ~FdGuard() { fileio::close_or_warn(fd, "rank file"); }
    } guard{fd};

    u64 header = 0;
    if (!read_exact(fd, &header, sizeof(header))) {
        throw std::runtime_error("generate_distributed: rank file '" + rank_path +
                                 "' has no header");
    }
    if (header != expected_edges) {
        throw std::runtime_error(
            "generate_distributed: rank file '" + rank_path + "' header claims " +
            std::to_string(header) + " edges, worker reported " +
            std::to_string(expected_edges));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) throw_errno("fstat '" + rank_path + "'");
    const u64 expected_bytes = 8 + 16 * expected_edges;
    if (static_cast<u64>(st.st_size) != expected_bytes) {
        throw std::runtime_error(
            "generate_distributed: rank file '" + rank_path + "' is " +
            std::to_string(st.st_size) + " bytes, expected " +
            std::to_string(expected_bytes));
    }

    // read_exact advanced the offset past the header; the payload copy
    // continues from there.
    try {
        return fileio::copy_bytes(fd, out_fd, expected_bytes - 8,
                                  !copy_file_range_disabled());
    } catch (const std::exception& e) {
        throw std::runtime_error("generate_distributed: merging '" + rank_path +
                                 "': " + e.what());
    }
}

} // namespace

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

DistResult run_distributed(const Config& cfg, const DistOptions& opts) {
    DistOptions opt = opts;
    if (opt.num_ranks == 0) opt.num_ranks = 1;
    if (opt.num_pes == 0) opt.num_pes = opt.num_ranks;
    if (opt.threads_per_rank == 0) opt.threads_per_rank = 1;
    if (cfg.chunks_per_pe == 0) {
        throw std::invalid_argument(
            "generate_distributed: chunks_per_pe must be >= 1");
    }
    if (!opt.dedup_path.empty() && opt.output_path.empty()) {
        throw std::invalid_argument(
            "generate_distributed: dedup_path requires output_path");
    }

    DistResult result;
    result.n = num_vertices(cfg); // validates the config before any fork
    result.num_chunks =
        cfg.total_chunks != 0 ? cfg.total_chunks : cfg.chunks_per_pe * opt.num_pes;
    result.num_ranks = opt.num_ranks;

    const bool want_file = !opt.output_path.empty();
    const bool want_telemetry =
        !cfg.trace_path.empty() || !cfg.metrics_path.empty();
    const std::string scratch =
        scratch_base(opt) + "/kagen_dist." + std::to_string(::getpid()) + "." +
        std::to_string(g_run_counter.fetch_add(1)) + ".rank";

    // Fork the fleet. Flush stdio first: the children inherit the parent's
    // FILE buffers, and although they always leave via _exit (which does
    // not flush), any library printf inside the worker must not re-emit
    // buffered coordinator output.
    std::fflush(stdout);
    std::fflush(stderr);
    std::vector<Worker> workers(opt.num_ranks);
    auto cleanup_rank_files = [&] {
        if (opt.keep_rank_files) return;
        for (const auto& w : workers) remove_file(w.rank_path);
    };
    for (u64 r = 0; r < opt.num_ranks; ++r) {
        Worker& w = workers[r];
        if (want_file) w.rank_path = scratch + std::to_string(r) + ".bin";
        w.pipe             = std::make_unique<StatsPipe>();
        const u64 lo       = block_begin(result.num_chunks, opt.num_ranks, r);
        const u64 hi       = block_begin(result.num_chunks, opt.num_ranks, r + 1);
        const pid_t pid    = ::fork();
        if (pid == 0) {
            // Worker process. Only rank r's pipe write end matters; the
            // read ends inherited from earlier ranks are harmless (the
            // coordinator holds its own copies) and all fds are O_CLOEXEC.
            w.pipe->close_read();
            worker_main(cfg, opt, r, result.num_chunks, lo, hi, w.rank_path,
                        w.pipe->write_fd()); // never returns
        }
        if (pid < 0) {
            const int err = errno;
            // Abort the ranks already running; their pipes break and they
            // die on their own, but be prompt about it.
            for (u64 k = 0; k < r; ++k) {
                ::kill(workers[k].pid, SIGKILL);
                wait_for(workers[k].pid);
            }
            cleanup_rank_files();
            errno = err;
            throw_errno("fork failed for rank " + std::to_string(r));
        }
        w.pid = pid;
        w.pipe->close_write(); // worker death must read as EOF
    }

    // Arm the coordinator's own telemetry only now: events recorded before
    // the fork loop would be duplicated into every child's inherited
    // buffers, and the coordinator's interesting spans (merge, em_sort) all
    // happen after this point anyway.
    obs::Snapshot obs_base;
    struct ObsGuard {
        bool active = false;
        ~ObsGuard() {
            if (active) obs::TraceRecorder::global().enable(false);
        }
    } obs_guard;
    if (want_telemetry) {
        obs_base         = obs::begin_rank_telemetry();
        obs_guard.active = true;
    }

    // Collect one report per rank (rank order; each worker blocks at most
    // on its own frame write, so there is no circular wait), then reap.
    std::vector<RankReport> reports(opt.num_ranks);
    std::vector<obs::RankTelemetry> telemetry;
    std::string failure;
    for (u64 r = 0; r < opt.num_ranks; ++r) {
        Worker& w = workers[r];
        reports[r].rank = r;
        try {
            std::vector<u8> payload;
            if (read_frame(w.pipe->read_fd(), payload)) {
                reports[r] = deserialize_report(payload);
                if (reports[r].rank != r) {
                    reports[r].ok    = false;
                    reports[r].error = "report carries wrong rank id " +
                                       std::to_string(reports[r].rank);
                    reports[r].rank = r;
                }
                if (want_telemetry) {
                    // The optional second frame. A worker that died between
                    // frames surfaces as a torn/absent frame; the run
                    // continues (telemetry is best-effort), the wait status
                    // below still attributes the death.
                    std::vector<u8> tpayload;
                    if (read_frame(w.pipe->read_fd(), tpayload)) {
                        telemetry.push_back(obs::deserialize_telemetry(tpayload));
                    }
                }
            } else {
                reports[r].ok    = false;
                reports[r].error = "died before reporting";
            }
        } catch (const std::exception& e) {
            reports[r].ok    = false;
            reports[r].error = e.what();
        }
        w.pipe->close_read();

        const int status = wait_for(w.pid);
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if ((!clean || !reports[r].ok) && failure.empty()) {
            failure = "rank " + std::to_string(r) + " " + describe_status(status);
            if (!reports[r].ok && !reports[r].error.empty()) {
                failure += ": " + reports[r].error;
            }
        }
    }
    if (!failure.empty()) {
        cleanup_rank_files();
        throw std::runtime_error("generate_distributed: " + failure);
    }

    // Merge: summaries first (pure arithmetic), then the rank files in
    // canonical rank order. Rank 0's summaries seed the merge (they carry
    // the semantics/n tags the checks compare against); the scalar fields
    // fold from their zero-initialized defaults. Per-rank degree vectors
    // are released as they are merged — keeping them would make the result
    // O(n·ranks) where only the merged O(n) vector is wanted.
    result.count       = reports[0].count;
    result.has_degrees = opt.degree_stats;
    if (opt.degree_stats) result.degrees = std::move(reports[0].degrees);
    u64 total_edges = 0;
    for (u64 r = 0; r < opt.num_ranks; ++r) {
        RankReport& rep = reports[r];
        if (r > 0) {
            result.count.merge(rep.count);
            if (opt.degree_stats) result.degrees.merge(rep.degrees);
        }
        std::vector<u64>().swap(rep.degrees.degrees);
        total_edges += rep.file_edges;
        result.seconds = std::max(result.seconds, rep.stats.seconds);
        result.peak_buffered_bytes =
            std::max(result.peak_buffered_bytes, rep.stats.peak_buffered_bytes);
        result.spilled_chunks += rep.stats.spilled_chunks;
        result.spilled_bytes += rep.stats.spilled_bytes;
        result.buffers_recycled += rep.stats.buffers_recycled;
    }
    result.ranks = std::move(reports);

    if (want_file) {
        try {
            // Raw descriptor end to end: the header is one checked
            // write_all and the payload concatenation is kernel-side
            // (fileio::copy_bytes), so there is no stdio buffer whose error
            // state could swallow a failed write — every byte is either
            // acknowledged by the kernel or throws here.
            const int out_fd = ::open(opt.output_path.c_str(),
                                      O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
            if (out_fd < 0) {
                throw_errno("cannot open output '" + opt.output_path + "'");
            }
            try {
                fileio::write_all(out_fd, &total_edges, sizeof(total_edges));
                for (u64 r = 0; r < opt.num_ranks; ++r) {
                    const obs::Span span(obs::Phase::merge, r);
                    const fileio::CopyStats copied = append_rank_file(
                        out_fd, workers[r].rank_path, result.ranks[r].file_edges);
                    result.merged_bytes += copied.bytes_copied;
                    result.copy_file_range_bytes += copied.cfr_bytes;
                }
                obs::Registry& reg = obs::Registry::global();
                reg.counter("dist.merged_bytes").add(result.merged_bytes);
                reg.counter("dist.copy_file_range_bytes")
                    .add(result.copy_file_range_bytes);
            } catch (...) {
                fileio::close_or_warn(out_fd, "merged output (error unwind)");
                throw;
            }
            // Close outside the try: close(2) releases the descriptor even
            // when it reports an error, so the catch block above must never
            // see an already-released (possibly recycled) fd.
            if (::close(out_fd) != 0) {
                throw_errno("cannot close output '" + opt.output_path + "'");
            }
            result.edges_written = total_edges;
        } catch (...) {
            remove_file(opt.output_path);
            cleanup_rank_files();
            throw;
        }
        cleanup_rank_files();

        if (!opt.dedup_path.empty()) {
            try {
                const em::SortStats sorted = em::sort_dedup_file(
                    opt.output_path, opt.dedup_path, opt.sort_memory);
                result.dedup_edges = sorted.output_edges;
            } catch (...) {
                remove_file(opt.dedup_path);
                throw;
            }
        }
    }

    if (want_telemetry) {
        // The coordinator is one more timeline: pid num_ranks, holding the
        // merge/em_sort spans. Fork workers share CLOCK_MONOTONIC with it,
        // so every offset is 0 — the merged trace is already aligned.
        obs::RankTelemetry own = obs::end_rank_telemetry(opt.num_ranks, obs_base);
        obs_guard.active       = false;
        if (!cfg.trace_path.empty()) {
            std::vector<obs::RankTimeline> timelines;
            timelines.reserve(telemetry.size() + 1);
            for (obs::RankTelemetry& t : telemetry) {
                obs::RankTimeline tl;
                tl.rank   = t.rank;
                tl.label  = "rank " + std::to_string(t.rank);
                tl.events = std::move(t.events);
                timelines.push_back(std::move(tl));
            }
            obs::RankTimeline coord;
            coord.rank   = opt.num_ranks;
            coord.label  = "coordinator";
            coord.events = std::move(own.events);
            timelines.push_back(std::move(coord));
            obs::write_chrome_trace(cfg.trace_path, timelines);
        }
        if (!cfg.metrics_path.empty()) {
            obs::Snapshot merged = own.metrics;
            for (const obs::RankTelemetry& t : telemetry) {
                merged.merge(t.metrics);
            }
            obs::write_metrics_file(cfg.metrics_path, merged);
        }
    }
    return result;
}

} // namespace kagen::dist
