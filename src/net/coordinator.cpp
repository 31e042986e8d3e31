#include "net/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "common/math.hpp"
#include "graph/em_sort.hpp"
#include "kagen.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"

namespace kagen::net {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error("coordinator: " + what + ": " + std::strerror(errno));
}

/// A failure attributable to one rank: "rank 2 (10.0.0.7:41210): ...".
struct RankError : std::runtime_error {
    u64 rank;
    RankError(u64 r, const Socket& sock, const std::string& what)
        : std::runtime_error("coordinator: rank " + std::to_string(r) + " (" +
                             sock.peer() + "): " + what),
          rank(r) {}
};

/// Human-readable death cause from a waitpid status.
std::string describe_status(int status) {
    if (WIFEXITED(status)) {
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    }
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        return "killed by signal " + std::to_string(sig) + " (" + strsignal(sig) + ")";
    }
    return "ended with unrecognized wait status " + std::to_string(status);
}

/// The ranks of one run: one channel each, in rank order, plus the pids of
/// forked ranks.
struct Fleet {
    std::vector<Socket> socks;
    std::vector<pid_t> pids;

    Fleet() = default;
    Fleet(const Fleet&)            = delete;
    Fleet& operator=(const Fleet&) = delete;
    ~Fleet() { reap(); }

    /// Closes every channel — a rank still at work then fails its next send
    /// or reads EOF instead of a verdict, and discards its file — and waits
    /// for every forked rank to exit. Returns their wait statuses.
    std::vector<int> reap() {
        socks.clear();
        std::vector<int> status(pids.size(), 0);
        for (std::size_t r = 0; r < pids.size(); ++r) {
            while (::waitpid(pids[r], &status[r], 0) < 0 && errno == EINTR) {
            }
        }
        pids.clear();
        return status;
    }
};

/// Option checks shared by both transports; run before any rank exists.
/// Returns the result skeleton of a run over `ranks` ranks.
RunResult plan_run(const Config& cfg, const NetOptions& opt, u64 ranks) {
    if (cfg.chunks_per_pe == 0) {
        throw std::invalid_argument("coordinator: chunks_per_pe must be >= 1");
    }
    if (!opt.output_path.empty() && !opt.manifest_path.empty()) {
        throw std::invalid_argument(
            "coordinator: output_path (gather) and manifest_path "
            "(partitioned) are mutually exclusive");
    }
    if (!opt.dedup_path.empty() && opt.output_path.empty()) {
        throw std::invalid_argument("coordinator: dedup_path requires output_path");
    }
    RunResult result;
    result.n          = num_vertices(cfg); // validates the config
    result.num_ranks  = ranks;
    const u64 pes     = opt.num_pes != 0 ? opt.num_pes : ranks;
    result.num_chunks =
        cfg.total_chunks != 0 ? cfg.total_chunks : cfg.chunks_per_pe * pes;
    return result;
}

void write_manifest(const Config& cfg, const std::string& path, const RunResult& result) {
    std::FILE* mf = std::fopen(path.c_str(), "w");
    if (mf == nullptr) throw_errno("cannot open manifest '" + path + "'");
    std::fprintf(mf,
                 "# kagen partitioned output manifest v1\n"
                 "model=%s n=%llu semantics=%s chunks=%llu workers=%llu "
                 "total_edges=%llu\n",
                 model_name(cfg.model), static_cast<unsigned long long>(result.n),
                 semantics_name(cfg.edge_semantics),
                 static_cast<unsigned long long>(result.num_chunks),
                 static_cast<unsigned long long>(result.num_ranks),
                 static_cast<unsigned long long>(result.count.num_edges));
    for (const auto& e : result.manifest) {
        std::fprintf(mf,
                     "rank=%llu peer=%s path=%s chunks=[%llu,%llu) "
                     "edges=%llu bytes=%llu\n",
                     static_cast<unsigned long long>(e.rank), e.peer.c_str(),
                     e.path.c_str(), static_cast<unsigned long long>(e.chunk_begin),
                     static_cast<unsigned long long>(e.chunk_end),
                     static_cast<unsigned long long>(e.edges),
                     static_cast<unsigned long long>(e.bytes));
    }
    if (std::fflush(mf) != 0 || std::ferror(mf)) {
        (void)std::fclose(mf); // stream already failed; error in flight
        fileio::unlink_or_warn(path.c_str(), "manifest");
        throw_errno("writing manifest '" + path + "' failed");
    }
    // The manifest is the run's deliverable in manifest mode: a close
    // failure after a clean flush (deferred writeback error) must not leave
    // a silently-corrupt file behind.
    if (std::fclose(mf) != 0) {
        fileio::unlink_or_warn(path.c_str(), "manifest");
        throw_errno("cannot close manifest '" + path + "'");
    }
}

/// The coordinator proper, over ranks already reached. `result` is
/// plan_run's skeleton.
RunResult coordinate(const Config& cfg, const NetOptions& opt, Fleet& fleet,
                     bool keep_rank_files, RunResult result) {
    const u64 W        = fleet.socks.size();
    const bool local   = !fleet.pids.empty();
    const bool gather  = !opt.output_path.empty();
    const bool listing = !opt.manifest_path.empty();
    const bool want_file = gather || listing;
    const bool stream    = gather && !local;
    const bool keep      = listing || keep_rank_files;
    const bool want_telemetry = !cfg.trace_path.empty() || !cfg.metrics_path.empty();

    auto recv = [&](u64 w, int deadline_ms, const char* what) {
        try {
            return fleet.socks[w].recv_message(deadline_ms, what);
        } catch (const std::exception& e) {
            throw RankError(w, fleet.socks[w], e.what());
        }
    };

    // --- handshake + job fan-out -----------------------------------------
    for (u64 w = 0; w < W; ++w) {
        decode_hello(recv(w, opt.connect_timeout_ms, "hello"));
        fleet.socks[w].send_frame(encode_hello());
    }
    std::vector<u64> t_job_sent(W, 0);
    for (u64 w = 0; w < W; ++w) {
        JobSpec job;
        job.cfg               = cfg;
        job.task.rank         = w;
        job.task.num_chunks   = result.num_chunks;
        job.task.chunk_begin  = block_begin(result.num_chunks, W, w);
        job.task.chunk_end    = block_begin(result.num_chunks, W, w + 1);
        job.task.threads      = std::max<u64>(opt.threads_per_worker, 1);
        job.task.degree_stats = opt.degree_stats;
        job.want_file         = want_file;
        job.send_file         = stream;
        job.want_trace        = want_telemetry;
        try {
            // The send stamp is the coordinator half of the clock handshake:
            // paired with the worker's receipt stamp it places that rank's
            // timeline on the coordinator clock (network latency shifts the
            // alignment by less than one RTT — fine for a utilization view).
            t_job_sent[w] = obs::monotonic_now();
            fleet.socks[w].send_frame(encode_job(job));
        } catch (const std::exception& e) {
            throw RankError(w, fleet.socks[w],
                            std::string("sending job failed: ") + e.what());
        }
    }

    // Armed only now: after the forks (a forked rank copies the recorder's
    // state, so earlier events would be duplicated into every rank).
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
    std::vector<obs::RankTelemetry> telemetry;

    // --- collect reports (and files) in rank order ------------------------
    // Gathered payloads land behind a placeholder header; the real total is
    // pwritten once every rank arrived. Any failure unlinks the partial file
    // before rethrowing — no partial outputs, ever.
    // Test/ops escape hatch: force the local merge onto the userspace
    // read/write fallback (pins byte identity of both paths in CI).
    const char* no_cfr   = std::getenv("KAGEN_DISABLE_COPY_FILE_RANGE");
    const bool allow_cfr = no_cfr == nullptr || *no_cfr == '\0' || *no_cfr == '0';
    int out_fd = -1;
    try {
        if (gather) {
            out_fd = ::open(opt.output_path.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
            if (out_fd < 0) throw_errno("cannot open output '" + opt.output_path + "'");
            const u64 placeholder = 0;
            fileio::write_all(out_fd, &placeholder, sizeof(placeholder));
        }

        result.ranks.resize(W);
        for (u64 w = 0; w < W; ++w) {
            Socket& sock = fleet.socks[w];
            auto fail = [&](const std::string& what) { throw RankError(w, sock, what); };
            dist::RankReport report =
                decode_report(recv(w, opt.job_deadline_ms, "report"));
            if (!report.ok) fail("failed: " + report.error);
            // Validate every field the merge is about to trust.
            if (report.rank != w) {
                fail("report carries wrong rank id " + std::to_string(report.rank));
            }
            const u64 lo = block_begin(result.num_chunks, W, w);
            const u64 hi = block_begin(result.num_chunks, W, w + 1);
            if (report.chunk_begin != lo || report.chunk_end != hi) {
                fail("report covers chunks [" + std::to_string(report.chunk_begin) +
                     ", " + std::to_string(report.chunk_end) + "), assigned [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + ")");
            }
            if (report.count.semantics != cfg.edge_semantics) {
                fail(std::string("report semantics '") +
                     semantics_name(report.count.semantics) +
                     "' do not match the run's '" + semantics_name(cfg.edge_semantics) +
                     "'");
            }
            if (opt.degree_stats &&
                (!report.has_degrees || report.degrees.degrees.size() != result.n)) {
                fail("degree summary missing or sized for the wrong n");
            }
            if (want_file && report.file_edges != report.count.num_edges) {
                fail("rank file has " + std::to_string(report.file_edges) +
                     " edges but the rank counted " +
                     std::to_string(report.count.num_edges));
            }

            if (want_telemetry) {
                obs::RankTelemetry t =
                    decode_telemetry(recv(w, opt.connect_timeout_ms, "telemetry"));
                if (t.rank != w) {
                    fail("telemetry carries wrong rank id " + std::to_string(t.rank));
                }
                telemetry.push_back(std::move(t));
            }

            if (want_file) {
                const FileInfo info =
                    decode_file(recv(w, opt.connect_timeout_ms, "file"));
                if (info.edges != report.file_edges) {
                    fail("file message announces " + std::to_string(info.edges) +
                         " edges, report said " + std::to_string(report.file_edges));
                }
                if (info.edges > (~u64{0} - 8) / 16) {
                    fail("file of " + std::to_string(info.edges) + " edges overflows");
                }
                const u64 payload_bytes = 16 * info.edges;
                if (gather) {
                    const obs::Span span(obs::Phase::merge, w);
                    try {
                        if (local) {
                            result.copy_file_range_bytes +=
                                dist::copy_rank_file(info.path, info.edges, out_fd,
                                                     allow_cfr)
                                    .cfr_bytes;
                        } else {
                            sock.recv_payload_to(out_fd, payload_bytes,
                                                 opt.connect_timeout_ms);
                        }
                    } catch (const std::exception& e) {
                        fail(std::string("merging its rank file: ") + e.what());
                    }
                    result.merged_bytes += payload_bytes;
                }
                if (keep) {
                    result.manifest.push_back({w, sock.peer(), info.path, lo, hi,
                                               info.edges, 8 + payload_bytes});
                }
            }

            result.edges_written += report.file_edges;
            result.seconds = std::max(result.seconds, report.stats.seconds);
            result.peak_buffered_bytes =
                std::max(result.peak_buffered_bytes, report.stats.peak_buffered_bytes);
            result.spilled_chunks += report.stats.spilled_chunks;
            result.spilled_bytes += report.stats.spilled_bytes;
            result.buffers_recycled += report.stats.buffers_recycled;
            result.ranks[w] = std::move(report);
        }

        // --- merge summaries ----------------------------------------------
        // Rank 0's summaries seed the merge (they carry the semantics/n tags
        // the checks compare against). Per-rank degree vectors are released
        // once merged — keeping them would make the result O(n·ranks).
        result.count       = result.ranks[0].count;
        result.has_degrees = opt.degree_stats;
        if (opt.degree_stats) result.degrees = std::move(result.ranks[0].degrees);
        for (u64 w = 1; w < W; ++w) {
            result.count.merge(result.ranks[w].count);
            if (opt.degree_stats) result.degrees.merge(result.ranks[w].degrees);
        }
        for (auto& rep : result.ranks) std::vector<u64>().swap(rep.degrees.degrees);

        if (gather) {
            if (::pwrite(out_fd, &result.edges_written, sizeof(u64), 0) !=
                static_cast<ssize_t>(sizeof(u64))) {
                throw_errno("cannot finalize output header");
            }
            // Close outside the error unwind: close(2) releases the
            // descriptor even when it reports an error, so the catch below
            // must never see an already-released (possibly recycled) fd.
            const int fd = out_fd;
            out_fd       = -1;
            if (::close(fd) != 0) throw_errno("cannot close '" + opt.output_path + "'");
        }
    } catch (...) {
        fileio::close_or_warn(out_fd, "merged output (error unwind)");
        if (gather) fileio::unlink_or_warn(opt.output_path.c_str(), "partial output");
        throw;
    }
    if (!gather) result.edges_written = 0;
    obs::Registry& reg = obs::Registry::global();
    reg.counter(local ? "dist.merged_bytes" : "net.merged_bytes")
        .add(result.merged_bytes);
    if (local) {
        reg.counter("dist.copy_file_range_bytes").add(result.copy_file_range_bytes);
    }

    if (listing) write_manifest(cfg, opt.manifest_path, result);

    // --- verdicts ----------------------------------------------------------
    // The output is complete: every rank whose file stayed in place learns
    // whether to keep it. A discard that cannot be delivered is moot — that
    // rank already lost its channel — but a keep must arrive, or a listed
    // file may vanish.
    for (u64 w = 0; want_file && !stream && w < W; ++w) {
        try {
            fleet.socks[w].send_frame(encode_verdict(keep));
        } catch (const std::exception& e) {
            if (!keep) continue;
            if (listing) fileio::unlink_or_warn(opt.manifest_path.c_str(), "manifest");
            throw RankError(w, fleet.socks[w],
                            std::string("sending verdict failed: ") + e.what());
        }
    }

    if (!opt.dedup_path.empty()) {
        try {
            const em::SortStats sorted =
                em::sort_dedup_file(opt.output_path, opt.dedup_path, opt.sort_memory);
            result.dedup_edges = sorted.output_edges;
        } catch (...) {
            fileio::unlink_or_warn(opt.dedup_path.c_str(), "partial dedup output");
            throw;
        }
    }

    if (want_telemetry) {
        // The coordinator is one more timeline: pid W, holding the merge and
        // em_sort spans.
        obs::RankTelemetry own = obs::end_rank_telemetry(W, obs_base);
        obs_guard.active       = false;
        if (!cfg.trace_path.empty()) {
            std::vector<obs::RankTimeline> timelines;
            timelines.reserve(telemetry.size() + 1);
            for (obs::RankTelemetry& t : telemetry) {
                obs::RankTimeline tl;
                tl.rank = t.rank;
                // Align the rank's monotonic clock to the coordinator's: its
                // clock base was stamped (one flight after) the job send the
                // coordinator timed.
                tl.offset_ns = static_cast<i64>(t_job_sent[t.rank]) -
                               static_cast<i64>(t.clock_base_ns);
                tl.label  = "rank " + std::to_string(t.rank);
                tl.events = std::move(t.events);
                timelines.push_back(std::move(tl));
            }
            obs::RankTimeline coord;
            coord.rank   = W;
            coord.label  = "coordinator";
            coord.events = std::move(own.events);
            timelines.push_back(std::move(coord));
            obs::write_chrome_trace(cfg.trace_path, timelines);
        }
        if (!cfg.metrics_path.empty()) {
            obs::Snapshot merged = own.metrics;
            for (const obs::RankTelemetry& t : telemetry) merged.merge(t.metrics);
            obs::write_metrics_file(cfg.metrics_path, merged);
        }
    }
    return result;
}

} // namespace

RunResult run_net_coordinator(const Config& cfg, const NetOptions& opt) {
    const bool listening = !opt.listen.empty() || opt.listener != nullptr;
    if (listening == !opt.connect.empty()) {
        throw std::invalid_argument(
            "coordinator: exactly one of listen / connect must be set");
    }
    if (listening && opt.expect_workers == 0) {
        throw std::invalid_argument(
            "coordinator: listen mode requires expect_workers >= 1");
    }
    if (!opt.connect.empty() && opt.expect_workers != 0 &&
        opt.expect_workers != opt.connect.size()) {
        throw std::invalid_argument(
            "coordinator: expect_workers (" + std::to_string(opt.expect_workers) +
            ") contradicts the " + std::to_string(opt.connect.size()) +
            " connect endpoints");
    }
    const u64 W = listening ? opt.expect_workers : opt.connect.size();
    RunResult result = plan_run(cfg, opt, W);

    // A worker that died mid-conversation must surface as a send/recv error
    // on its socket, never as SIGPIPE killing the coordinator.
    ::signal(SIGPIPE, SIG_IGN);

    Fleet fleet;
    std::optional<Listener> owned;
    if (listening && opt.listener == nullptr) owned.emplace(parse_endpoint(opt.listen));
    Listener* listener = owned ? &*owned : opt.listener;
    for (u64 w = 0; w < W; ++w) {
        try {
            fleet.socks.push_back(listening ? listener->accept(opt.connect_timeout_ms)
                                            : connect_to(parse_endpoint(opt.connect[w]),
                                                         opt.connect_timeout_ms));
        } catch (const std::exception& e) {
            throw std::runtime_error(
                "coordinator: worker " + std::to_string(w) + " of " + std::to_string(W) +
                (listening ? " never connected: " : ": ") + e.what());
        }
    }
    return coordinate(cfg, opt, fleet, false, std::move(result));
}

RunResult run_forked(const Config& cfg, const NetOptions& opt, u64 ranks,
                     const NetWorkerOptions& worker, bool keep_rank_files) {
    RunResult result = plan_run(cfg, opt, ranks); // before any fork

    // The children inherit the parent's stdio buffers. They leave via _exit,
    // which does not flush, but any library printf inside a rank must not
    // re-emit buffered coordinator output.
    std::fflush(stdout);
    std::fflush(stderr);
    Fleet fleet;
    fleet.socks.reserve(ranks); // no allocation between a fork and its record
    fleet.pids.reserve(ranks);
    for (u64 r = 0; r < ranks; ++r) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
            throw_errno("socketpair failed for rank " + std::to_string(r));
        }
        Socket parent_end(fds[0]);
        Socket child_end(fds[1]);
        const pid_t pid = ::fork();
        if (pid == 0) {
            // Keep only this rank's end: a rank holding the coordinator's
            // end of any channel would mask that channel's EOF.
            parent_end.close();
            fleet.socks.clear();
            int code = 1;
            try {
                code = serve_rank(child_end, worker, &cfg);
            } catch (...) {
                // Transport failure: the coordinator failed or died and
                // there is nobody left to report to. Unwinding already
                // discarded the rank file.
            }
            ::_exit(code);
        }
        if (pid < 0) throw_errno("fork failed for rank " + std::to_string(r));
        fleet.socks.push_back(std::move(parent_end));
        fleet.pids.push_back(pid);
    }

    try {
        result = coordinate(cfg, opt, fleet, keep_rank_files, std::move(result));
    } catch (const RankError& e) {
        const std::vector<int> status = fleet.reap();
        throw std::runtime_error(std::string(e.what()) + "; rank " +
                                 std::to_string(e.rank) + " " +
                                 describe_status(status[e.rank]));
    }
    // Every rank got its last frame; what it does after the verdict cannot
    // change the validated result, so its exit status is only reaped.
    fleet.reap();
    return result;
}

} // namespace kagen::net
