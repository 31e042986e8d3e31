#include "net/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "graph/em_sort.hpp"
#include "kagen.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "sink/spill.hpp"

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

/// Unlinks every file whose path starts with `prefix` (a directory plus a
/// file-name prefix).
void remove_files_with_prefix(const std::string& prefix) {
    const std::size_t slash = prefix.rfind('/');
    const std::string dir   = prefix.substr(0, slash);
    const std::string name  = prefix.substr(slash + 1);
    std::vector<std::string> doomed; // collected first: no unlink mid-readdir
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* e = ::readdir(d)) {
            if (std::strncmp(e->d_name, name.c_str(), name.size()) == 0) {
                doomed.push_back(dir + "/" + e->d_name);
            }
        }
        ::closedir(d);
    }
    for (const std::string& path : doomed) fileio::unlink_or_warn(path.c_str(), "rank file");
}

/// "chunks [8, 15)": how errors name a lease.
std::string chunks_str(const dist::Lease& lease) {
    return "chunks [" + std::to_string(lease.chunk_begin) + ", " +
           std::to_string(lease.chunk_end) + ")";
}

/// Option checks shared by both transports; run before any rank exists.
/// Returns the result skeleton of a run over `ranks` ranks.
RunResult plan_run(const Config& cfg, const NetOptions& opt, u64 ranks) {
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
    result.num_chunks = resolve_num_chunks(cfg, opt.num_pes != 0 ? opt.num_pes : ranks);
    return result;
}

/// Manifest v2: one line per lease segment, in canonical chunk order, so
/// the segments concatenated in line order are the gathered payload.
void write_manifest(const Config& cfg, const std::string& path, const RunResult& result) {
    struct Line {
        const ManifestEntry* entry;
        const ManifestSegment* segment;
    };
    std::vector<Line> lines;
    for (const ManifestEntry& e : result.manifest) {
        for (const ManifestSegment& seg : e.segments) lines.push_back({&e, &seg});
    }
    std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
        return a.segment->chunk_begin < b.segment->chunk_begin;
    });
    std::FILE* mf = std::fopen(path.c_str(), "w");
    if (mf == nullptr) throw_errno("cannot open manifest '" + path + "'");
    std::fprintf(mf,
                 "# kagen partitioned output manifest v2\n"
                 "model=%s n=%llu semantics=%s chunks=%llu workers=%llu "
                 "total_edges=%llu\n",
                 model_name(cfg.model), static_cast<unsigned long long>(result.n),
                 semantics_name(cfg.edge_semantics),
                 static_cast<unsigned long long>(result.num_chunks),
                 static_cast<unsigned long long>(result.num_ranks),
                 static_cast<unsigned long long>(result.count.num_edges));
    for (const Line& l : lines) {
        std::fprintf(mf,
                     "rank=%llu peer=%s path=%s chunks=[%llu,%llu) offset=%llu "
                     "edges=%llu\n",
                     static_cast<unsigned long long>(l.entry->rank),
                     l.entry->peer.c_str(), l.entry->path.c_str(),
                     static_cast<unsigned long long>(l.segment->chunk_begin),
                     static_cast<unsigned long long>(l.segment->chunk_end),
                     static_cast<unsigned long long>(l.segment->offset),
                     static_cast<unsigned long long>(l.segment->edges));
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

/// The one assignment path: contiguous chunk ranges handed out from one
/// cursor in canonical order to whichever rank asks next. Sizes follow
/// guided self-scheduling, max(1, ceil(remaining / 2W)): large leases first,
/// where a round trip costs least against the work, shrinking to single
/// chunks at the end, where they even out the finishing times.
struct LeaseBook {
    LeaseBook(u64 num_chunks, u64 ranks)
        : num_chunks(num_chunks), divisor(2 * ranks), rank_leases(ranks),
          counter(obs::Registry::global().counter("coordinator.leases")) {}

    /// Grants rank w the cursor's next lease; returns it (empty: none left).
    dist::Lease grant(u64 w) {
        const u64 size = std::max<u64>(1, (num_chunks - cursor + divisor - 1) / divisor);
        const dist::Lease lease{cursor, std::min(num_chunks, cursor + size), 0};
        if (lease.chunk_begin < lease.chunk_end) {
            rank_leases[w].push_back(leases.size());
            leases.push_back(lease);
            counter.add(1);
        }
        cursor = lease.chunk_end;
        return lease;
    }

    u64 num_chunks;
    u64 divisor;
    u64 cursor = 0;
    std::vector<dist::Lease> leases; ///< every grant, in grant order, which
                                     ///< is canonical order: they tile [0, C)
    std::vector<std::vector<std::size_t>> rank_leases; ///< indices into leases
    obs::Counter& counter;
};

/// The lease phase: polls every rank that holds a lease and answers each
/// lease_done with the next lease, or with done, until no rank holds one.
/// Records every lease's edge count in `book`. A rank that got done goes on
/// to its report, telemetry and file, which wait in its channel
/// (back-pressure) until the rank-order collection reads them.
/// `job_deadline_ms` bounds each lease.
void run_leases(Fleet& fleet, const NetOptions& opt, LeaseBook& book) {
    const auto now_ms = [] { return static_cast<long long>(obs::monotonic_now() / 1000000u); };
    const u64 W = fleet.socks.size();
    std::vector<long long> due(W, 0); // lease deadline in ms; 0 = none
    const auto arm = [&](u64 w) {
        if (opt.job_deadline_ms > 0) due[w] = now_ms() + opt.job_deadline_ms;
    };
    // Milliseconds to `at` for a receive deadline, at least 1; 0 = none.
    const auto until = [&](long long at) {
        return at == 0 ? 0 : static_cast<int>(std::max<long long>(at - now_ms(), 1));
    };
    constexpr u64 kMaxEdges = (~u64{0} - 8) / 16; // an output file's limit
    u64 reported = 0;
    std::vector<u64> active; // ranks holding a lease, ascending
    for (u64 w = 0; w < W; ++w) {
        if (book.rank_leases[w].empty()) continue;
        active.push_back(w);
        arm(w);
    }
    while (!active.empty()) {
        std::vector<const Socket*> socks;
        long long first_due = 0;
        for (const u64 w : active) {
            socks.push_back(&fleet.socks[w]);
            if (due[w] != 0 && (first_due == 0 || due[w] < first_due)) first_due = due[w];
        }
        const std::vector<std::size_t> ready = poll_readable(socks, until(first_due));
        for (const u64 w : active) {
            if (!ready.empty() || due[w] != first_due) continue;
            throw RankError(w, fleet.socks[w],
                            chunks_str(book.leases[book.rank_leases[w].back()]) +
                                " timed out: no lease_done within " +
                                std::to_string(opt.job_deadline_ms) + " ms");
        }
        std::vector<u64> still;
        for (std::size_t i = 0, r = 0; i < active.size(); ++i) {
            const u64 w = active[i];
            if (r == ready.size() || ready[r] != i) {
                still.push_back(w);
                continue;
            }
            ++r;
            Socket& sock       = fleet.socks[w];
            dist::Lease& lease = book.leases[book.rank_leases[w].back()];
            try {
                const std::vector<u8> msg = sock.recv_message(until(due[w]), "lease_done");
                if (peek_type(msg) == Msg::report) {
                    const dist::RankReport failed = decode_report(msg);
                    throw std::runtime_error(failed.ok ? "sent its report early"
                                                       : "failed: " + failed.error);
                }
                lease.edges = decode_lease_done(msg);
                // The output offsets are sums of these counts.
                if (lease.edges > kMaxEdges - reported) {
                    throw std::runtime_error(std::to_string(lease.edges) +
                                             " edges overflow the output");
                }
                reported += lease.edges;
            } catch (const std::exception& e) {
                throw RankError(w, sock, "running " + chunks_str(lease) + ": " + e.what());
            }
            const dist::Lease next = book.grant(w);
            try {
                sock.send_frame(encode_lease(next.chunk_begin, next.chunk_end));
            } catch (const std::exception& e) {
                throw RankError(w, sock, std::string("sending its lease failed: ") + e.what());
            }
            if (next.chunk_begin < next.chunk_end) {
                arm(w);
                still.push_back(w);
            }
        }
        active = std::move(still);
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
    const bool dedup     = !opt.dedup_path.empty();
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
    // Armed only now: after the forks (a forked rank copies the recorder's
    // state, so earlier events would be duplicated into every rank), and
    // before the first lease is counted.
    obs::TelemetryScope telemetry_scope(want_telemetry);
    LeaseBook book(result.num_chunks, W);
    std::vector<u64> t_job_sent(W, 0);
    for (u64 w = 0; w < W; ++w) {
        const dist::Lease first = book.grant(w); // saves the lease-0 round trip
        JobSpec job;
        job.graph             = cfg;
        job.task.rank         = w;
        job.task.num_chunks   = result.num_chunks;
        job.task.chunk_begin  = first.chunk_begin;
        job.task.chunk_end    = first.chunk_end;
        job.task.threads      = std::max<u64>(opt.threads_per_worker, 1);
        job.task.degree_stats = opt.degree_stats;
        job.task.form_runs    = dedup;
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

    // --- lease phase --------------------------------------------------------
    run_leases(fleet, opt, book);
    // Every lease's edges are known, so every lease's place in the merged
    // output is a prefix sum in canonical order, before any payload moves.
    const std::vector<dist::Lease>& leases = book.leases;
    std::vector<u64> out_offset(leases.size());
    u64 placed = 0;
    for (std::size_t i = 0; i < leases.size(); ++i) {
        out_offset[i] = 8 + 16 * placed;
        placed += leases[i].edges;
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
    // Every rank's runs, in rank order: forked ranks' run files taken over
    // by path (open, then unlink, so no run file outlives its handover),
    // streamed ranks' runs back to back in one anonymous scratch file.
    std::vector<em::RunFile> runs;
    struct RunFds {
        std::vector<int> fds;
        ~RunFds() {
            for (const int fd : fds) fileio::close_or_warn(fd, "run file");
        }
    } run_fds;
    std::optional<spill::SpillFile> streamed_runs;
    if (dedup && stream) streamed_runs.emplace();
    u64 streamed_bytes = 0;
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
            // The lease table must be exactly the leases this rank was
            // granted, with the edge counts its lease_done messages gave:
            // the segment offsets were computed from those.
            const std::vector<std::size_t>& mine = book.rank_leases[w];
            u64 lease_edges = 0;
            for (std::size_t i = 0; i < std::max(mine.size(), report.leases.size()); ++i) {
                if (i == mine.size()) {
                    fail("lease table lists " + chunks_str(report.leases[i]) +
                         ", which were never leased to it");
                }
                const dist::Lease& granted = leases[mine[i]];
                if (i == report.leases.size()) {
                    fail("lease table omits its lease of " + chunks_str(granted));
                }
                const dist::Lease& listed = report.leases[i];
                if (listed.chunk_begin != granted.chunk_begin ||
                    listed.chunk_end != granted.chunk_end) {
                    fail("lease table lists " + chunks_str(listed) + " where it was leased " +
                         chunks_str(granted));
                }
                if (listed.edges != granted.edges) {
                    fail("lease table gives " + chunks_str(listed) + " " +
                         std::to_string(listed.edges) + " edges, its lease_done said " +
                         std::to_string(granted.edges));
                }
                lease_edges += listed.edges;
            }
            if (lease_edges != report.count.num_edges) {
                std::string held;
                for (const std::size_t i : mine) {
                    held += (held.empty() ? "" : ", ") + chunks_str(leases[i]);
                }
                fail("the edges of its leases (" + held + ") sum to " +
                     std::to_string(lease_edges) + ", but " +
                     (want_file ? "its rank file has " : "it counted ") +
                     std::to_string(report.count.num_edges));
            }
            // The run table: dedup within a run only shrinks it, so the
            // runs hold at most the file's edges, and at least one of them
            // when the file has any.
            u64 run_edges = 0;
            if (!dedup && !report.runs.empty()) {
                fail("report carries an unrequested run table");
            }
            for (std::size_t i = 0; i < report.runs.size(); ++i) {
                if (report.runs[i] == 0) fail("run " + std::to_string(i) + " is empty");
                if (report.runs[i] > report.file_edges - run_edges) {
                    fail("run table holds more edges than the rank file's " +
                         std::to_string(report.file_edges));
                }
                run_edges += report.runs[i];
            }
            if (dedup && report.file_edges > 0 && report.runs.empty()) {
                fail("rank file has edges but the report has no runs");
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
                    // Each lease segment goes to its own offset; the rank
                    // file (or stream) holds them back to back in lease order.
                    auto seek = [&](std::size_t lease) {
                        if (::lseek(out_fd, static_cast<off_t>(out_offset[lease]),
                                    SEEK_SET) < 0) {
                            throw_errno("cannot seek the output");
                        }
                    };
                    try {
                        if (local) {
                            const int in_fd = dist::open_rank_file(info.path, info.edges);
                            struct FdGuard {
                                int fd;
                                ~FdGuard() { fileio::close_or_warn(fd, "rank file"); }
                            } guard{in_fd};
                            for (const std::size_t lease : mine) {
                                seek(lease);
                                result.copy_file_range_bytes +=
                                    fileio::copy_bytes(in_fd, out_fd, 16 * leases[lease].edges,
                                                       allow_cfr)
                                        .cfr_bytes;
                            }
                            // Merged, so no longer needed: gone even if its
                            // rank dies before the discard verdict.
                            if (!keep) {
                                fileio::unlink_or_warn(info.path.c_str(), "rank file");
                            }
                        } else {
                            for (const std::size_t lease : mine) {
                                seek(lease);
                                sock.recv_payload_to(out_fd, 16 * leases[lease].edges,
                                                     opt.connect_timeout_ms);
                            }
                        }
                    } catch (const std::exception& e) {
                        fail(std::string("merging its rank file: ") + e.what());
                    }
                    if (dedup) {
                        em::RunFile rf;
                        rf.lengths = report.runs;
                        try {
                            if (local) {
                                rf.fd = dist::open_runs_file(info.path, run_edges);
                                run_fds.fds.push_back(rf.fd);
                                fileio::unlink_or_warn(
                                    dist::runs_path_of(info.path).c_str(), "run file");
                            } else {
                                rf.fd     = streamed_runs->fd();
                                rf.offset = streamed_bytes;
                                sock.recv_payload_to(rf.fd, 16 * run_edges,
                                                     opt.connect_timeout_ms);
                                streamed_bytes += 16 * run_edges;
                            }
                        } catch (const std::exception& e) {
                            fail(std::string("taking its runs: ") + e.what());
                        }
                        runs.push_back(std::move(rf));
                    }
                    result.merged_bytes += payload_bytes;
                }
                if (keep) {
                    ManifestEntry entry{w, sock.peer(), info.path, info.edges,
                                        8 + payload_bytes, {}};
                    u64 offset = 8;
                    for (const std::size_t lease : mine) {
                        const dist::Lease& l = leases[lease];
                        entry.segments.push_back({l.chunk_begin, l.chunk_end, offset, l.edges});
                        offset += 16 * l.edges;
                    }
                    result.manifest.push_back(std::move(entry));
                }
            }

            result.edges_written += report.file_edges;
            result.seconds = std::max(result.seconds, report.stats.seconds);
            result.stats.merge(report.stats);
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

    if (dedup) {
        // merge_runs removes its partial output on any failure.
        try {
            result.dedup_edges = em::merge_runs(runs, opt.dedup_path);
        } catch (const em::RunOrderError& e) {
            throw RankError(e.source, fleet.socks[e.source], e.what());
        }
    }

    if (want_telemetry) {
        // The coordinator is one more timeline: pid W, holding the merge and
        // em_sort spans.
        obs::RankTelemetry own = telemetry_scope.end(W);
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
                code = serve_rank(child_end, worker);
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

    // A failed run leaves no rank file: once every rank has exited, what a
    // rank killed by a signal could not unlink itself is removed here.
    const std::vector<pid_t> pids = fleet.pids; // reap() clears them
    const auto reap_failed        = [&] {
        const std::vector<int> status = fleet.reap();
        for (u64 r = 0; r < ranks; ++r) {
            remove_files_with_prefix(rank_file_prefix(worker, r, pids[r]));
        }
        return status;
    };
    try {
        result = coordinate(cfg, opt, fleet, keep_rank_files, std::move(result));
    } catch (const RankError& e) {
        const std::vector<int> status = reap_failed();
        throw std::runtime_error(std::string(e.what()) + "; rank " +
                                 std::to_string(e.rank) + " " +
                                 describe_status(status[e.rank]));
    } catch (...) {
        reap_failed();
        throw;
    }
    // Every rank got its last frame; what it does after the verdict cannot
    // change the validated result, so its exit status is only reaped.
    fleet.reap();
    return result;
}

} // namespace kagen::net
