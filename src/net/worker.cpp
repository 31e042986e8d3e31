#include "net/worker.hpp"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <stdexcept>

#include <limits.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "dist/runner.hpp"
#include "kagen.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "obs/trace.hpp"

namespace kagen::net {
namespace {

/// Distinguishes concurrent workers inside one process (tests run several
/// worker threads); the pid alone covers concurrent processes.
std::atomic<u64> g_job_counter{0};

std::string absolute_path(const std::string& path) {
    char buf[PATH_MAX];
    if (::realpath(path.c_str(), buf) != nullptr) return buf;
    return path; // diagnostics-quality fallback; the file provably exists
}

/// The rank owns its file until a keep verdict: every other way out of
/// serve_rank (failed job, transport error, discard, coordinator EOF)
/// unlinks it. A run file is never kept: it is scratch for the
/// coordinator's merge, which takes it over by path (it may be gone already).
struct RankFile {
    std::string path;
    bool keep = false;
    ~RankFile() {
        if (path.empty()) return;
        fileio::unlink_or_warn(dist::runs_path_of(path).c_str(), "run file");
        if (!keep) fileio::unlink_or_warn(path.c_str(), "rank file");
    }
};

} // namespace

std::string rank_file_prefix(const NetWorkerOptions& opt, u64 rank, long pid) {
    std::string dir = opt.scratch_dir;
    if (dir.empty()) {
        const char* tmpdir = std::getenv("TMPDIR");
        dir                = tmpdir && *tmpdir ? tmpdir : "/tmp";
    }
    return dir + "/kagen_rank" + std::to_string(rank) + "." + std::to_string(pid) + ".";
}

int serve_rank(Socket& sock, const NetWorkerOptions& opt) {
    // A coordinator that died mid-conversation must surface as an EPIPE
    // error from send, not kill the worker with SIGPIPE. MSG_NOSIGNAL covers
    // frame sends; the rank-file stream goes through plain write(2) in
    // fileio::copy_bytes.
    ::signal(SIGPIPE, SIG_IGN);

    // Two-way hello before any state exists on either side.
    sock.send_frame(encode_hello());
    decode_hello(sock.recv_message(opt.connect_timeout_ms, "hello"));
    JobSpec job = decode_job(sock.recv_message(opt.io_deadline_ms, "job"));
    // Clock handshake: this stamp pairs with the coordinator's job-send
    // timestamp to place this rank's timeline on the coordinator clock
    // (offset = t_sent − clock_base; DESIGN.md §13). Taken unconditionally —
    // it is one clock read and keeps the stamp as close to the job frame's
    // arrival as possible.
    const u64 clock_base_ns = obs::monotonic_now();
    obs::TelemetryScope telemetry_scope(job.want_trace);

    RankFile file;
    if (job.want_file) {
        file.path = rank_file_prefix(opt, job.task.rank, ::getpid()) +
                    std::to_string(g_job_counter.fetch_add(1)) + ".bin";
    }

    dist::RankReport report; // a failure report carries only rank and error
    report.rank        = job.task.rank;
    job.task.rank_path = file.path;
    if (job.place && job.send_file) {
        // Each batch goes out as it is generated, ahead of its lease_done.
        job.task.placed.send = [&sock](const Edge* edges, std::size_t count) {
            send_lease_data(sock, edges, count);
        };
    } else if (job.place) {
        job.task.placed.output_fd = opt.output_fd;
    }
    // Each finished lease asks for the next; the coordinator answers at
    // once, as it polls every rank that holds a lease.
    const dist::NextLease next = [&](const dist::Lease& done) {
        if (opt.lease_hook) opt.lease_hook(job.task.rank, done);
        sock.send_frame(encode_lease_done(done.edges));
        return decode_lease(sock.recv_message(opt.io_deadline_ms, "lease"),
                            job.task.num_chunks);
    };
    try {
        if (opt.rank_hook) opt.rank_hook(job.task.rank);
        if (job.place && !job.task.placed.active()) {
            throw std::runtime_error("the job places its edges in the coordinator's output, "
                                     "which this rank did not inherit");
        }
        report = dist::execute_rank_job(job.graph, opt.run, job.task, next);
    } catch (const std::exception& e) {
        report.ok    = false;
        report.error = e.what();
    } catch (...) {
        report.ok    = false;
        report.error = "unknown exception";
    }

    // Disarm the recorder before any send can throw: a worker thread shared
    // with a test harness must never leave recording enabled behind.
    obs::RankTelemetry telemetry;
    if (job.want_trace) {
        telemetry               = telemetry_scope.end(job.task.rank);
        telemetry.clock_base_ns = clock_base_ns;
    }

    sock.send_frame(encode_report(report));
    // Telemetry follows the report even on failure so the byte stream stays
    // aligned with what the coordinator was told to expect.
    if (job.want_trace) sock.send_frame(encode_telemetry(telemetry));
    if (!report.ok) return 1;
    if (!job.want_file) return 0;

    // Checked before it is announced, so a bad file fails this rank before
    // any payload byte moves.
    const u64 edges = report.file_edges;
    struct FdGuard {
        int fd;
        ~FdGuard() { fileio::close_or_warn(fd, "rank file"); }
    } rank_fd{dist::open_rank_file(file.path, edges)};
    sock.send_frame(encode_file({absolute_path(file.path), edges}));
    if (job.send_file) {
        // Stream: the payload with its header stripped (the coordinator
        // writes one global header and places each lease's segment), then
        // the runs, through one copy buffer. Once sent, the files have no
        // further use.
        std::vector<u8> buffer;
        fileio::copy_bytes(rank_fd.fd, sock.fd(), 16 * edges, false, &buffer);
        if (job.task.form_runs) {
            u64 run_edges = 0;
            for (const u64 len : report.runs) run_edges += len;
            const FdGuard runs_fd{dist::open_runs_file(file.path, run_edges)};
            fileio::copy_bytes(runs_fd.fd, sock.fd(), 16 * run_edges, false, &buffer);
        }
        return 0;
    }
    // Kept in place: no deadline, the verdict comes only after the slowest
    // rank finished, and a coordinator that dies closes the channel (EOF ⇒
    // discard).
    std::vector<u8> payload;
    file.keep = sock.recv_frame(payload, 0) && decode_verdict(payload);
    return 0;
}

int run_net_worker(const std::string& endpoint_spec,
                   const NetWorkerOptions& opt) {
    const Endpoint ep = parse_endpoint(endpoint_spec);
    Socket sock;
    if (ep.host.empty()) {
        Listener listener(ep);
        sock = listener.accept(opt.connect_timeout_ms);
    } else {
        sock = connect_to(ep, opt.connect_timeout_ms);
    }
    return serve_rank(sock, opt);
}

} // namespace kagen::net
