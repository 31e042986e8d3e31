// Hot-path I/O (DESIGN.md §9): bulk-batched BinaryFileSink writes,
// fileio::copy_bytes (copy_file_range + userspace fallback), and the
// byte-identity acceptance sweep — the recycled-buffer + bulk-write +
// copy_file_range pipeline must produce files identical to the per-chunk
// reference stream across all models x P x K x ranks x edge semantics.
// ctest label: io (re-run under ASan in CI).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/fileio.hpp"
#include "graph/io.hpp"
#include "kagen.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

namespace kagen {
namespace {

std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

EdgeList some_edges(u64 count, u64 salt = 0) {
    EdgeList edges;
    edges.reserve(count);
    for (u64 i = 0; i < count; ++i) {
        edges.emplace_back(i * 7 + salt, (i * 31 + salt * 13 + 5) % 1000);
    }
    return edges;
}

class BulkIoTest : public ::testing::Test {
protected:
    std::string path(const std::string& name) {
        return ::testing::TempDir() + "kagen_bulk_io_" + name;
    }
    void TearDown() override {
        for (const auto& p : created_) std::remove(p.c_str());
    }
    std::string track(std::string p) {
        created_.push_back(p);
        return p;
    }

private:
    std::vector<std::string> created_;
};

// ---------------------------------------------------------------------------
// BinaryFileSink: bulk writes, tunable emit buffer, bytes_written
// ---------------------------------------------------------------------------

TEST_F(BulkIoTest, BulkWritesMatchReferenceWriterForAnyBufferCapacity) {
    const EdgeList edges = some_edges(10000, 3);
    const auto ref_path  = track(path("sink_ref.bin"));
    io::write_edge_list_binary(ref_path, edges);
    const std::string reference = slurp(ref_path);

    // Capacities straddling every interesting boundary: single-edge
    // batches, non-power-of-two, default, larger than the stream.
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{3},
                                       std::size_t{0} /* default */,
                                       std::size_t{100000}}) {
        const auto p = track(path("sink_" + std::to_string(capacity) + ".bin"));
        BinaryFileSink sink(p, capacity);
        for (const auto& e : edges) sink.emit(e);
        sink.finish();
        EXPECT_EQ(sink.num_edges(), edges.size());
        EXPECT_EQ(slurp(p), reference) << "capacity=" << capacity;
    }
}

TEST_F(BulkIoTest, DeliverWritesWholeChunksInOneBatch) {
    // deliver() hands a whole chunk to one consume -> one bulk fwrite; the
    // result must still equal the per-edge emit stream byte for byte.
    const EdgeList edges = some_edges(5000, 9);
    const auto a = track(path("deliver_bulk.bin"));
    const auto b = track(path("deliver_emit.bin"));
    {
        BinaryFileSink sink(a);
        sink.deliver(edges.data(), edges.size());
        sink.finish();
    }
    {
        BinaryFileSink sink(b);
        for (const auto& e : edges) sink.emit(e);
        sink.finish();
    }
    EXPECT_EQ(slurp(a), slurp(b));
}

TEST_F(BulkIoTest, BytesWrittenAccountsHeaderPayloadAndBackpatch) {
    const EdgeList edges = some_edges(123);
    const auto p = track(path("bytes_written.bin"));
    BinaryFileSink sink(p);
    EXPECT_EQ(sink.bytes_written(), 8u) << "header placeholder";
    sink.deliver(edges.data(), edges.size());
    sink.flush();
    EXPECT_EQ(sink.bytes_written(), 8u + 16u * edges.size());
    sink.finish();
    EXPECT_EQ(sink.bytes_written(), 16u + 16u * edges.size())
        << "finish() back-patches the header";
    EXPECT_EQ(sink.buffer_capacity(), EdgeSink::kDefaultBufferEdges);
}

TEST_F(BulkIoTest, RunIntoALargerExistingFileMatchesAFreshOne) {
    // The sink overwrites an existing file in place and finish() cuts it to
    // its final size: the in-place G(n,m) path (positional writes) and the
    // ordered RGG path leave the bytes of a run into a fresh path.
    for (const Model model : {Model::GnmUndirected, Model::Rgg2D}) {
        SCOPED_TRACE(model_name(model));
        Config cfg;
        cfg.model        = model;
        cfg.n            = 3000;
        cfg.m            = 20000;
        cfg.r            = 0.04;
        cfg.total_chunks = 16;
        const auto run = [&](const std::string& p) {
            BinaryFileSink sink(p);
            pe::ThreadPool pool(3);
            generate_chunked(cfg, 4, sink, 4, &pool);
            sink.finish();
            return slurp(p);
        };
        const std::string fresh = run(track(path("fresh.bin")));
        const auto stale        = track(path("stale.bin"));
        {
            std::ofstream out(stale, std::ios::binary | std::ios::trunc);
            out << std::string(2 * fresh.size() + 4096, '\x5a');
        }
        EXPECT_EQ(run(stale), fresh);
    }
}

// ---------------------------------------------------------------------------
// fileio::copy_bytes — kernel path and forced fallback
// ---------------------------------------------------------------------------

class CopyBytesTest : public BulkIoTest,
                      public ::testing::WithParamInterface<bool> {};

TEST_P(CopyBytesTest, CopiesExactRangeFromCurrentOffsets) {
    const bool allow_cfr = GetParam();
    const std::string payload(3 << 20, 'x'); // > the fallback's 1 MiB buffer
    const auto in_path  = track(path("copy_in.bin"));
    const auto out_path = track(path("copy_out.bin"));
    {
        std::ofstream out(in_path, std::ios::binary);
        out << "HDR!" << payload;
    }
    const int in_fd = ::open(in_path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(in_fd, 0);
    const int out_fd =
        ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    ASSERT_GE(out_fd, 0);

    // Skip the 4-byte header on the input; pre-write a prefix on the
    // output: copy_bytes must append at both current offsets.
    ASSERT_EQ(::lseek(in_fd, 4, SEEK_SET), 4);
    fileio::write_all(out_fd, "PRE", 3);

    const fileio::CopyStats stats =
        fileio::copy_bytes(in_fd, out_fd, payload.size(), allow_cfr);
    EXPECT_EQ(stats.bytes_copied, payload.size());
    if (!allow_cfr) {
        EXPECT_EQ(stats.cfr_bytes, 0u) << "fallback must not touch the kernel path";
    }
    ::close(in_fd);
    ASSERT_EQ(::close(out_fd), 0);
    EXPECT_EQ(slurp(out_path), "PRE" + payload);
}

TEST_P(CopyBytesTest, ThrowsOnPrematureSourceEof) {
    const bool allow_cfr = GetParam();
    const auto in_path   = track(path("eof_in.bin"));
    const auto out_path  = track(path("eof_out.bin"));
    {
        std::ofstream out(in_path, std::ios::binary);
        out << "short";
    }
    const int in_fd = ::open(in_path.c_str(), O_RDONLY | O_CLOEXEC);
    const int out_fd =
        ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    ASSERT_GE(in_fd, 0);
    ASSERT_GE(out_fd, 0);
    EXPECT_THROW(fileio::copy_bytes(in_fd, out_fd, 1000, allow_cfr),
                 std::runtime_error);
    ::close(in_fd);
    ::close(out_fd);
}

TEST_F(CopyBytesTest, ZeroLengthIsANoOp) {
    const fileio::CopyStats stats = fileio::copy_bytes(-1, -1, 0);
    EXPECT_EQ(stats.bytes_copied, 0u);
    EXPECT_EQ(stats.cfr_bytes, 0u);
}

TEST_F(CopyBytesTest, UnsupportedDescriptorPairFallsBackTransparently) {
    // A pipe as destination: copy_file_range refuses (EINVAL on most
    // kernels) and the userspace fallback must take over silently.
    const auto in_path = track(path("pipe_in.bin"));
    const std::string payload = "fallback-payload-0123456789";
    {
        std::ofstream out(in_path, std::ios::binary);
        out << payload;
    }
    const int in_fd = ::open(in_path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(in_fd, 0);
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const fileio::CopyStats stats =
        fileio::copy_bytes(in_fd, fds[1], payload.size());
    EXPECT_EQ(stats.bytes_copied, payload.size());
    std::string read_back(payload.size(), '\0');
    ASSERT_EQ(::read(fds[0], read_back.data(), read_back.size()),
              static_cast<ssize_t>(read_back.size()));
    EXPECT_EQ(read_back, payload);
    ::close(in_fd);
    ::close(fds[0]);
    ::close(fds[1]);
}

INSTANTIATE_TEST_SUITE_P(KernelAndFallback, CopyBytesTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? "copy_file_range" : "fallback";
                         });

// ---------------------------------------------------------------------------
// Byte-identity acceptance sweep: all models x P x K x semantics, in-process
// ---------------------------------------------------------------------------

Config matrix_config(Model model, u64 n = 400) {
    Config cfg;
    cfg.model     = model;
    cfg.n         = n;
    cfg.m         = 5 * n;
    cfg.p         = 0.01;
    cfg.r         = 0.08;
    cfg.avg_deg   = 8;
    cfg.gamma     = 2.8;
    cfg.ba_degree = 3;
    cfg.seed      = 99;
    return cfg;
}

constexpr Model kAllModels[] = {
    Model::GnmDirected,   Model::GnmUndirected, Model::GnpDirected,
    Model::GnpUndirected, Model::Rgg2D,         Model::Rgg3D,
    Model::Rdg2D,         Model::Rdg3D,         Model::Rhg,
    Model::RhgStreaming,  Model::Ba,            Model::Rmat};

class HotPathIdentity : public ::testing::TestWithParam<Model> {
protected:
    std::string path(const std::string& name) {
        return ::testing::TempDir() + "kagen_hot_path_" +
               model_name(GetParam()) + "_" + name;
    }
};

TEST_P(HotPathIdentity, FileSinkMatchesPerChunkReferenceAcrossPesChunksThreads) {
    // Oracle: the canonical chunk stream materialized chunk by chunk
    // through the unchanged per-PE API, written by the reference writer.
    // The chunked engine — direct streaming (threads=1) and recycled
    // pool delivery (threads=3) alike — must reproduce it byte for byte
    // under both edge semantics for every (P, K).
    pe::ThreadPool pool(2);
    for (const EdgeSemantics semantics :
         {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
        Config base          = matrix_config(GetParam());
        base.edge_semantics  = semantics;
        for (const u64 P : {u64{1}, u64{2}, u64{5}}) {
            for (const u64 K : {u64{1}, u64{3}}) {
                Config cfg        = base;
                cfg.chunks_per_pe = K;
                const u64 C       = P * K;

                EdgeList all;
                for (u64 c = 0; c < C; ++c) {
                    append(all, generate(cfg, c, C).edges);
                }
                const std::string ref_path = path("ref.bin");
                io::write_edge_list_binary(ref_path, all);
                const std::string reference = slurp(ref_path);
                std::remove(ref_path.c_str());

                for (const u64 threads : {u64{1}, u64{3}}) {
                    const std::string p = path("run.bin");
                    BinaryFileSink sink(p);
                    generate_chunked(cfg, P, sink, threads, &pool);
                    sink.finish();
                    const std::string got = slurp(p);
                    std::remove(p.c_str());
                    ASSERT_EQ(got, reference)
                        << "P=" << P << " K=" << K << " threads=" << threads
                        << " semantics=" << semantics_name(semantics);
                }
            }
        }
    }
}

TEST_P(HotPathIdentity, DistributedMergeMatchesInProcessAcrossRanks) {
    // ranks in {1, 4} over the merged copy_file_range path: output must
    // equal the in-process chunked file byte for byte, under both
    // semantics. (The forced-fallback merge is pinned separately below;
    // the kernel path runs here.)
    for (const EdgeSemantics semantics :
         {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
        Config cfg          = matrix_config(GetParam(), 300);
        cfg.edge_semantics  = semantics;
        cfg.chunks_per_pe   = 3;
        const u64 P         = 2;

        const std::string inproc = path("inproc.bin");
        {
            BinaryFileSink sink(inproc);
            generate_chunked(cfg, P, sink);
            sink.finish();
        }
        const std::string reference = slurp(inproc);
        std::remove(inproc.c_str());

        for (const u64 ranks : {u64{1}, u64{4}}) {
            dist::DistOptions opts;
            opts.num_ranks   = ranks;
            opts.num_pes     = P;
            opts.output_path = path("ranks.bin");
            const dist::DistResult res = generate_distributed(cfg, opts);
            const std::string got      = slurp(opts.output_path);
            std::remove(opts.output_path.c_str());
            ASSERT_EQ(got, reference)
                << "ranks=" << ranks
                << " semantics=" << semantics_name(semantics);
            EXPECT_EQ(res.merged_bytes, reference.size() - 8)
                << "merge accounting must cover every payload byte";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllModels, HotPathIdentity,
                         ::testing::ValuesIn(kAllModels),
                         [](const ::testing::TestParamInfo<Model>& info) {
                             return model_name(info.param);
                         });

TEST_F(BulkIoTest, DistributedMergeFallbackPathIsByteIdentical) {
    // KAGEN_DISABLE_COPY_FILE_RANGE forces the coordinator onto the
    // read/write fallback; the merged file must not change by a byte and
    // the cfr counter must stay zero. An unsized model, whose ranks write
    // rank files for the coordinator to merge (G(n,m) ranks write their
    // leases into the output in place: no merge at all).
    Config cfg        = matrix_config(Model::Rgg2D, 500);
    cfg.chunks_per_pe = 4;

    dist::DistOptions opts;
    opts.num_ranks   = 3;
    opts.num_pes     = 2;
    opts.output_path = track(path("merge_cfr.bin"));
    const dist::DistResult with_cfr = generate_distributed(cfg, opts);
    const std::string reference     = slurp(opts.output_path);

    ASSERT_EQ(::setenv("KAGEN_DISABLE_COPY_FILE_RANGE", "1", 1), 0);
    opts.output_path = track(path("merge_fallback.bin"));
    const dist::DistResult fallback = generate_distributed(cfg, opts);
    ASSERT_EQ(::unsetenv("KAGEN_DISABLE_COPY_FILE_RANGE"), 0);

    EXPECT_EQ(slurp(opts.output_path), reference);
    EXPECT_EQ(fallback.copy_file_range_bytes, 0u);
    EXPECT_FALSE(fallback.copy_file_range_used());
    EXPECT_EQ(fallback.merged_bytes, with_cfr.merged_bytes);
#ifdef __linux__
    EXPECT_EQ(with_cfr.copy_file_range_bytes, with_cfr.merged_bytes)
        << "kernel path should have carried the whole merge on Linux";
    EXPECT_TRUE(with_cfr.copy_file_range_used());
#endif
}

} // namespace
} // namespace kagen
