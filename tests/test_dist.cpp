// Forked ranks: the transport matrix (tests/transport_matrix.hpp) over
// socketpair workers, plus what only a fork can show — a rank's waitpid
// cause in its error, option checks before any fork, Config fields that
// never cross the wire still reaching the ranks — and the chunk-range and
// O_CLOEXEC mechanisms the forked backend stands on.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>

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

// encode_config leaves arena_slab_bytes out (it cannot change the graph), so
// a forked rank must run the coordinator's own Config rather than the one
// decoded from its job frame. The ranks' merged metrics record the slab size
// their arenas used.
TEST(Dist, ForkedRanksKeepConfigFieldsTheWireLeavesOut) {
    Config cfg           = model_config(Model::GnmUndirected);
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
