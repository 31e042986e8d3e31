// Forked ranks: the transport matrix (tests/transport_matrix.hpp) over
// socketpair workers, plus what only a fork can show — a rank's waitpid
// cause in its error, option checks before any fork, the coordinator's
// RunOptions reaching the ranks through the fork image — and the chunk-range and
// O_CLOEXEC mechanisms the forked backend stands on.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>

#include <csignal>

#include "sink/spill.hpp"
#include "transport_matrix.hpp"

namespace kagen {
namespace {

using testing::Transport;
using testing::TransportMatrix;
using testing::model_config;
using testing::read_bytes;
using testing::tmp_path;

INSTANTIATE_TEST_SUITE_P(Fork, TransportMatrix,
                         ::testing::Values(Transport::fork));

TEST(DistFailure, WorkerNonzeroExitIsDescribed) {
    Config cfg        = model_config(Model::GnmDirected);
    cfg.chunks_per_pe = 2;
    testing::RunSpec spec;
    spec.ranks     = 4;
    spec.rank_hook = [](u64 rank) {
        if (rank == 2) ::_exit(7);
    };
    const std::string message = testing::run_failing(Transport::fork, cfg, spec, "exit");
    EXPECT_NE(message.find("rank 2"), std::string::npos) << message;
    EXPECT_NE(message.find("exited with status 7"), std::string::npos) << message;
}

TEST(DistFailure, InvalidOptionsThrowBeforeForking) {
    Config cfg = model_config(Model::GnmDirected);
    dist::DistOptions opts;
    opts.dedup_path = "/tmp/never.bin"; // dedup without an output file
    EXPECT_THROW(generate_distributed(cfg, opts), std::invalid_argument);
    Config bad        = cfg;
    bad.chunks_per_pe = 0;
    EXPECT_THROW(generate_distributed(bad, {}), std::invalid_argument);
}

/// Rank `rank`'s pid once it sleeps on its verdict: it has formed its runs
/// (its run file, named after its pid, exists) and then stayed asleep, in
/// state S, for 100 ms. -1 if that never happens within 20 s.
pid_t parked_rank_pid(const std::string& dir, u64 rank) {
    const std::string prefix = "kagen_rank" + std::to_string(rank) + ".";
    for (int poll = 0, asleep = 0; poll < 4000; ++poll) {
        ::usleep(5000);
        for (const std::string& name : testing::ScratchDir::list(dir)) {
            if (name.rfind(prefix, 0) != 0 || name.size() < 5 ||
                name.compare(name.size() - 5, 5, ".runs") != 0) {
                continue;
            }
            const pid_t pid = static_cast<pid_t>(std::stol(name.substr(prefix.size())));
            std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
            const std::string stat{std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>()};
            const std::size_t paren = stat.rfind(')');
            asleep = paren != std::string::npos && stat.compare(paren, 3, ") S") == 0
                         ? asleep + 1
                         : 0;
            if (asleep == 20) return pid;
        }
    }
    return -1;
}

// A rank killed by SIGKILL after its report cannot clean up after itself.
// The coordinator took its rank file and its run file over by path, so the
// run still completes and nothing is left behind. Rank 0's hook (the
// coordinator reads rank 0 first) waits until rank 1 sleeps on its verdict
// and kills it.
TEST(DistFailure, RankKilledAfterItsReportLeavesNoFiles) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const testing::ScratchDir scratch("killed");
    testing::RunSpec spec;
    spec.ranks       = 2;
    spec.pes         = 2;
    spec.scratch_dir = scratch.path();
    spec.output_path = tmp_path("killed_ref.bin");
    spec.dedup_path  = tmp_path("killed_ref.dd");
    testing::run_backend(Transport::fork, cfg, spec); // the undisturbed reference
    const std::string ref = read_bytes(spec.output_path);
    const std::string ref_dedup = read_bytes(spec.dedup_path);
    std::remove(spec.output_path.c_str());
    std::remove(spec.dedup_path.c_str());

    spec.output_path = tmp_path("killed.bin");
    spec.dedup_path  = tmp_path("killed.dd");
    spec.rank_hook   = [dir = scratch.path()](u64 rank) {
        if (rank != 0) return;
        const pid_t victim = parked_rank_pid(dir, 1);
        if (victim < 0) ::_exit(3); // fails the run: rank 1 never parked
        ::kill(victim, SIGKILL);
    };
    testing::run_backend(Transport::fork, cfg, spec);
    EXPECT_EQ(read_bytes(spec.output_path), ref);
    EXPECT_EQ(read_bytes(spec.dedup_path), ref_dedup);
    EXPECT_TRUE(scratch.entries().empty())
        << scratch.entries().size() << " file(s) left behind";
    std::remove(spec.output_path.c_str());
    std::remove(spec.dedup_path.c_str());
}

// RunOptions never cross the wire: a forked rank gets the coordinator's
// through NetWorkerOptions::run in the fork image. The ranks' merged metrics
// record the slab size their arenas used. (An unsized model: G(n,m) knows
// its chunk edge counts and writes in place, without an arena.)
TEST(Dist, ForkedRanksRunTheCoordinatorsRunOptions) {
    Config cfg           = model_config(Model::Rgg2D);
    cfg.chunks_per_pe    = 4;
    cfg.arena_slab_bytes = 65536;
    cfg.metrics_path     = tmp_path("arena.metrics.json");
    dist::DistOptions opts;
    opts.num_ranks        = 2;
    opts.threads_per_rank = 2; // the arena backs multi-threaded ordered runs
    opts.output_path      = tmp_path("arena.bin");
    generate_distributed(cfg, opts);
    EXPECT_NE(read_bytes(cfg.metrics_path).find("\"pe.arena.slab_bytes\": 65536"),
              std::string::npos);
    std::remove(opts.output_path.c_str());
    std::remove(cfg.metrics_path.c_str());
}

// ---------------------------------------------------------------------------
// Chunk-range scheduling (the pe-level mechanism under the ranks)
// ---------------------------------------------------------------------------

TEST(ChunkRange, SlicesConcatenateToFullRun) {
    Config cfg       = model_config(Model::GnmUndirected);
    cfg.total_chunks = 7;
    MemorySink whole;
    generate_chunked(cfg, 2, whole);
    whole.finish();

    EdgeList sliced;
    for (const auto [lo, hi] :
         std::vector<std::pair<u64, u64>>{{0, 3}, {3, 4}, {4, 4}, {4, 7}}) {
        pe::ChunkOptions opt;
        opt.total_chunks = 7;
        opt.chunk_begin  = lo;
        opt.chunk_end    = hi;
        opt.threads      = 1;
        MemorySink part;
        const auto stats = pe::run_chunked(
            opt,
            [&](u64 chunk, u64 num_chunks, EdgeSink& sink) {
                generate(cfg, chunk, num_chunks, sink);
            },
            part);
        EXPECT_EQ(stats.num_chunks, hi - lo);
        part.finish();
        append(sliced, part.edges());
    }
    EXPECT_EQ(sliced, whole.edges());
}

TEST(ChunkRange, OutOfRangeThrows) {
    pe::ChunkOptions opt;
    opt.total_chunks = 4;
    opt.chunk_begin  = 3;
    opt.chunk_end    = 5;
    MemorySink sink;
    EXPECT_THROW(pe::run_chunked(
                     opt, [](u64, u64, EdgeSink&) {}, sink),
                 std::invalid_argument);
    opt.chunk_begin = 3;
    opt.chunk_end   = 2;
    EXPECT_THROW(pe::run_chunked(
                     opt, [](u64, u64, EdgeSink&) {}, sink),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Descriptor hygiene: O_CLOEXEC on sink/spill fds
// ---------------------------------------------------------------------------

bool has_cloexec(int fd) {
    const int flags = ::fcntl(fd, F_GETFD);
    EXPECT_GE(flags, 0);
    return (flags & FD_CLOEXEC) != 0;
}

TEST(Cloexec, BinaryFileSinkAndSpillFileDescriptors) {
    const std::string sink_path = tmp_path("cloexec_sink.bin");
    BinaryFileSink sink(sink_path);
    EXPECT_TRUE(has_cloexec(sink.fd()));
    sink.finish();
    std::remove(sink_path.c_str());

    spill::SpillFile anon;
    EXPECT_TRUE(has_cloexec(anon.fd()));

    const std::string named_path = tmp_path("cloexec_spill.bin");
    spill::SpillFile named(named_path);
    EXPECT_TRUE(has_cloexec(named.fd()));
}

TEST(Cloexec, ExecdChildCannotClobberCoordinatorSpillFile) {
    // Regression for the satellite contract: a worker that execs a
    // subprocess must not hand it a writable descriptor onto the
    // coordinator's scratch. The child shell tries to write through the
    // inherited fd *number*; with O_CLOEXEC the descriptor is closed by the
    // exec, the redirection fails, and the spilled segment stays intact.
    if (::access("/bin/sh", X_OK) != 0) GTEST_SKIP() << "no /bin/sh";

    const std::string path = tmp_path("clobber_spill.bin");
    spill::SpillFile file(path);
    EdgeList edges;
    for (u64 i = 0; i < 1000; ++i) edges.emplace_back(i, i + 1);
    const auto seg = file.append(edges.data(), edges.size());

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const std::string cmd =
            "echo CLOBBERCLOBBER >&" + std::to_string(file.fd());
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
        ::_exit(127); // exec itself failed
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_NE(WEXITSTATUS(status), 127) << "child failed to exec /bin/sh";
    // The shell must have failed to use the fd at all.
    EXPECT_NE(WEXITSTATUS(status), 0)
        << "child wrote through the inherited spill fd";

    std::vector<Edge> back(edges.size());
    ASSERT_EQ(file.read(seg, 0, back.data(), back.size()), edges.size());
    EXPECT_EQ(EdgeList(back.begin(), back.end()), edges);
}

} // namespace
} // namespace kagen
