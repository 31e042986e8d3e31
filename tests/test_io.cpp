// Binary edge-list I/O: round trips and error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "er/er.hpp"
#include "graph/io.hpp"
#include "testing.hpp"

namespace kagen {
namespace {

using testing::collect;

class IoTest : public ::testing::Test {
protected:
    std::string path(const char* name) {
        return ::testing::TempDir() + "kagen_io_" + name;
    }

    void TearDown() override {
        for (const auto& p : created_) std::remove(p.c_str());
    }

    std::string track(std::string p) {
        created_.push_back(p);
        return p;
    }

    std::vector<std::string> created_;
};

TEST_F(IoTest, BinaryRoundTrip) {
    const EdgeList edges = collect([&](EdgeSink& sink) {
        er::gnm_undirected(200, 1500, 2, 0, 1, sink);
    });
    const auto p         = track(path("bin.el"));
    io::write_edge_list_binary(p, edges);
    EXPECT_EQ(io::read_edge_list_binary(p), edges);
}

TEST_F(IoTest, BinaryEmptyList) {
    const auto p = track(path("empty.bin"));
    io::write_edge_list_binary(p, {});
    EXPECT_TRUE(io::read_edge_list_binary(p).empty());
}

TEST_F(IoTest, MissingFileThrows) {
    EXPECT_THROW(io::read_edge_list_binary("/nonexistent/definitely/missing"),
                 std::runtime_error);
}

TEST_F(IoTest, TruncatedBinaryThrows) {
    const auto p = track(path("trunc.bin"));
    {
        std::ofstream out(p, std::ios::binary);
        const u64 claimed = 100; // claims 100 edges, provides none
        out.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
    }
    EXPECT_THROW(io::read_edge_list_binary(p), std::runtime_error);
}

namespace {

/// Collects nothing; used to drive stream_edge_list_binary's error paths.
class NullSink final : public EdgeSink {
protected:
    void consume(const Edge*, std::size_t) override {}
};

} // namespace

TEST_F(IoTest, TruncatedBinaryHeaderThrows) {
    // Fewer than 8 header bytes: both readers must fail cleanly.
    const auto p = track(path("short_header.bin"));
    {
        std::ofstream out(p, std::ios::binary);
        out.write("\x03\x00\x00", 3);
    }
    EXPECT_THROW(io::read_edge_list_binary(p), std::runtime_error);
    NullSink sink;
    EXPECT_THROW(io::stream_edge_list_binary(p, sink), std::runtime_error);
}

TEST_F(IoTest, OversizedHeaderCountThrowsInsteadOfReserving) {
    // Regression: a corrupt header (0xFFFF...) used to drive a
    // multi-exabyte reserve / a ~2^64-iteration read loop. The count must
    // be validated against the file size (8 + 16*count) up front.
    const auto p = track(path("oversized.bin"));
    {
        std::ofstream out(p, std::ios::binary);
        const u64 claimed = ~u64{0};
        out.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
        const u64 pair[2] = {1, 2}; // one real edge behind the lying header
        out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
    }
    EXPECT_THROW(io::read_edge_list_binary(p), std::runtime_error);
    NullSink sink;
    EXPECT_THROW(io::stream_edge_list_binary(p, sink), std::runtime_error);

    // One edge short of the claim is just as corrupt as 2^64 short.
    const auto q = track(path("off_by_one.bin"));
    {
        std::ofstream out(q, std::ios::binary);
        const u64 claimed = 2;
        out.write(reinterpret_cast<const char*>(&claimed), sizeof(claimed));
        const u64 pair[2] = {1, 2};
        out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
    }
    EXPECT_THROW(io::read_edge_list_binary(q), std::runtime_error);
    EXPECT_THROW(io::stream_edge_list_binary(q, sink), std::runtime_error);
}

TEST_F(IoTest, BinaryWriteFailureThrowsInsteadOfTruncating) {
    // Regression: write_edge_list_binary ignored every fwrite result, so
    // ENOSPC produced a truncated file with a header claiming all edges.
    // /dev/full fails every flushed write with ENOSPC.
    if (!std::ofstream("/dev/full").good()) {
        GTEST_SKIP() << "/dev/full not available";
    }
    const EdgeList edges = collect([&](EdgeSink& sink) {
        er::gnm_directed(100, 500, 1, 0, 1, sink);
    });
    EXPECT_THROW(io::write_edge_list_binary("/dev/full", edges),
                 std::runtime_error);
}

} // namespace
} // namespace kagen
