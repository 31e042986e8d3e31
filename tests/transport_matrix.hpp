/// \file transport_matrix.hpp
/// \brief One test matrix for both transports of the coordinator
///        (net/coordinator.hpp): forked ranks and TCP workers.
///
/// Every case here runs on each transport: byte identity against the
/// in-process chunked engine across models × semantics × ranks × K, merged
/// statistics, the dedup pass, telemetry, kept rank files, and failure
/// containment (the failing rank is named, and no output or rank file
/// survives). test_dist.cpp instantiates the matrix for forked ranks (ctest
/// label `dist`), test_net.cpp for loopback TCP workers (label `net`). They
/// stay two executables because the TSan job runs the `net` label and
/// cannot fork (DESIGN.md §12). Cases that apply to one transport only live
/// in that transport's file.
#pragma once

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "graph/io.hpp"
#include "kagen.hpp"
#include "net/coordinator.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"

namespace kagen::testing {

enum class Transport { fork, tcp };

inline std::string tmp_path(const std::string& name) {
    return ::testing::TempDir() + "kagen_matrix_" + std::to_string(::getpid()) +
           "_" + name;
}

inline std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline bool file_exists(const std::string& path) {
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0;
}

/// A fresh directory for one run's rank files; removes itself (and whatever
/// a failing test left in it) on destruction.
class ScratchDir {
public:
    explicit ScratchDir(const std::string& tag) : path_(tmp_path(tag + "_scratch")) {
        EXPECT_EQ(::mkdir(path_.c_str(), 0755), 0)
            << path_ << ": " << std::strerror(errno);
    }
    ~ScratchDir() {
        for (const std::string& name : entries()) {
            std::remove((path_ + "/" + name).c_str());
        }
        ::rmdir(path_.c_str());
    }
    ScratchDir(const ScratchDir&)            = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    const std::string& path() const { return path_; }

    std::vector<std::string> entries() const {
        std::vector<std::string> out;
        DIR* dir = ::opendir(path_.c_str());
        if (dir == nullptr) return out;
        while (const dirent* e = ::readdir(dir)) {
            const std::string name = e->d_name;
            if (name != "." && name != "..") out.push_back(name);
        }
        ::closedir(dir);
        return out;
    }

private:
    std::string path_;
};

inline Config model_config(Model model) {
    Config cfg;
    cfg.model = model;
    cfg.n     = 1500;
    cfg.seed  = 7;
    switch (model) {
        case Model::GnmDirected:
        case Model::GnmUndirected:
            cfg.m = 9000;
            break;
        case Model::Rgg2D:
            cfg.r = 0.05;
            break;
        case Model::Rhg:
        case Model::RhgStreaming:
            cfg.avg_deg = 6.0;
            cfg.gamma   = 2.8;
            break;
        default:
            break;
    }
    return cfg;
}

/// Single-process reference: generate_chunked into a BinaryFileSink.
inline std::string single_process_bytes(const Config& cfg, u64 pes) {
    const std::string path = tmp_path("reference.bin");
    BinaryFileSink sink(path);
    generate_chunked(cfg, pes, sink);
    sink.finish();
    std::string bytes = read_bytes(path);
    std::remove(path.c_str());
    return bytes;
}

/// Spawns `count` worker threads dialing 127.0.0.1:`port`, each running the
/// real `run_net_worker`. Transport errors are captured, not thrown out of
/// the thread (failure tests tear the coordinator down mid-conversation).
class WorkerFleet {
public:
    WorkerFleet(std::uint16_t port, u64 count, net::NetWorkerOptions opts = {}) {
        if (opts.scratch_dir.empty()) opts.scratch_dir = ::testing::TempDir();
        errors_.resize(count);
        const std::string spec = "127.0.0.1:" + std::to_string(port);
        for (u64 i = 0; i < count; ++i) {
            threads_.emplace_back([this, spec, opts, i] {
                try {
                    net::run_net_worker(spec, opts);
                } catch (const std::exception& e) {
                    errors_[i] = e.what();
                }
            });
        }
    }
    ~WorkerFleet() { join(); }
    WorkerFleet(const WorkerFleet&)            = delete;
    WorkerFleet& operator=(const WorkerFleet&) = delete;

    void join() {
        for (auto& t : threads_) {
            if (t.joinable()) t.join();
        }
    }
    const std::vector<std::string>& errors() const { return errors_; }

private:
    std::vector<std::string> errors_;
    std::vector<std::thread> threads_;
};

/// One run's shape, for either transport.
struct RunSpec {
    u64 ranks = 4;
    u64 pes   = 4;
    /// Merged output file; empty = stats only. With `keep_rank_files` over
    /// TCP it names the manifest instead (manifest mode has no merged file).
    std::string output_path;
    /// Rank files outlive the run: DistOptions::keep_rank_files for forked
    /// ranks, manifest mode for TCP workers.
    bool keep_rank_files = false;
    bool degree_stats    = false;
    std::string dedup_path;
    std::string scratch_dir; ///< empty = the test temp dir
    std::function<void(u64 rank)> rank_hook;
};

inline net::RunResult run_backend(Transport transport, const Config& cfg,
                                  const RunSpec& spec) {
    if (transport == Transport::fork) {
        dist::DistOptions opts;
        opts.num_ranks       = spec.ranks;
        opts.num_pes         = spec.pes;
        opts.output_path     = spec.output_path;
        opts.keep_rank_files = spec.keep_rank_files;
        opts.degree_stats    = spec.degree_stats;
        opts.dedup_path      = spec.dedup_path;
        opts.scratch_dir     = spec.scratch_dir;
        opts.rank_hook       = spec.rank_hook;
        return generate_distributed(cfg, opts);
    }
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener       = &listener;
    opts.expect_workers = spec.ranks;
    opts.num_pes        = spec.pes;
    (spec.keep_rank_files ? opts.manifest_path : opts.output_path) = spec.output_path;
    opts.degree_stats = spec.degree_stats;
    opts.dedup_path   = spec.dedup_path;
    net::NetWorkerOptions wopts;
    wopts.scratch_dir = spec.scratch_dir;
    wopts.rank_hook   = spec.rank_hook;
    WorkerFleet fleet(listener.port(), spec.ranks, wopts); // joined on throw too
    net::RunResult res = net::run_net_coordinator(cfg, opts);
    fleet.join();
    for (const auto& err : fleet.errors()) EXPECT_EQ(err, "") << "worker error";
    return res;
}

/// Runs a job expected to fail and returns its message. Asserts that no
/// output file and no rank file in the run's scratch dir survive it.
inline std::string run_failing(Transport transport, const Config& cfg, RunSpec spec,
                               const std::string& tag) {
    const ScratchDir scratch(tag);
    spec.scratch_dir = scratch.path();
    spec.output_path = tmp_path(tag + "_out.bin");
    std::string message;
    try {
        run_backend(transport, cfg, spec);
        ADD_FAILURE() << tag << ": expected the run to throw";
    } catch (const std::runtime_error& e) {
        message = e.what();
    }
    EXPECT_FALSE(file_exists(spec.output_path)) << tag << ": partial output left";
    EXPECT_TRUE(scratch.entries().empty())
        << tag << ": " << scratch.entries().size() << " rank file(s) left behind";
    std::remove(spec.output_path.c_str());
    return message;
}

/// A fake TCP worker that handshakes, takes its job, then dies without a
/// report (connection closed, as when its process is killed mid-job) or
/// sends a torn report frame.
enum class Sabotage { die_silently, torn_report };

inline void sabotaged_worker(std::uint16_t port, Sabotage mode) {
    net::Socket sock = net::connect_to(
        net::parse_endpoint("127.0.0.1:" + std::to_string(port)), 2000);
    sock.send_frame(net::encode_hello());
    std::vector<u8> payload;
    ASSERT_TRUE(sock.recv_frame(payload, 2000));
    net::decode_hello(payload);
    ASSERT_TRUE(sock.recv_frame(payload, 2000)); // the job
    if (mode == Sabotage::die_silently) {
        sock.close();
        return;
    }
    // A valid header promising a report that never finishes.
    std::vector<u8> partial;
    bytes::put_u64(partial, net::kFrameMagic);
    bytes::put_u64(partial, 1000);
    partial.resize(partial.size() + 17, u8{0x5a});
    ASSERT_EQ(::send(sock.fd(), partial.data(), partial.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(partial.size()));
    sock.close();
}

// ---------------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------------

class TransportMatrix : public ::testing::TestWithParam<Transport> {};

// Merged output byte-identical to the single-process chunked run: models ×
// semantics × ranks {1, 2, 4} × K {1, 3}.
TEST_P(TransportMatrix, ByteIdenticalAcrossModelsSemanticsRanksAndK) {
    const u64 pes = 4; // decomposition P, shared by both sides
    for (const Model model :
         {Model::GnmDirected, Model::GnmUndirected, Model::Rgg2D, Model::RhgStreaming}) {
        for (const EdgeSemantics semantics :
             {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
            for (const u64 k : {u64{1}, u64{3}}) {
                Config cfg         = model_config(model);
                cfg.chunks_per_pe  = k;
                cfg.edge_semantics = semantics;
                const std::string ref = single_process_bytes(cfg, pes);
                ASSERT_GE(ref.size(), 8u);
                for (const u64 ranks : {u64{1}, u64{2}, u64{4}}) {
                    RunSpec spec;
                    spec.ranks       = ranks;
                    spec.pes         = pes;
                    spec.output_path = tmp_path("identity.bin");
                    const net::RunResult res = run_backend(GetParam(), cfg, spec);
                    const std::string where = std::string(model_name(model)) + " " +
                                              semantics_name(semantics) + " ranks=" +
                                              std::to_string(ranks) + " K=" +
                                              std::to_string(k);
                    EXPECT_EQ(read_bytes(spec.output_path), ref) << where;
                    EXPECT_EQ(res.num_ranks, ranks);
                    EXPECT_EQ(res.num_chunks, k * pes);
                    EXPECT_EQ(res.edges_written * 16 + 8, ref.size()) << where;
                    EXPECT_EQ(res.merged_bytes, ref.size() - 8) << where;
                    EXPECT_EQ(res.count.semantics, semantics);
                    EXPECT_TRUE(res.manifest.empty()) << where;
                    std::remove(spec.output_path.c_str());
                }
            }
        }
    }
}

TEST_P(TransportMatrix, MoreRanksThanChunksLeavesEmptyRanks) {
    Config cfg        = model_config(Model::GnmDirected);
    cfg.chunks_per_pe = 1;
    cfg.total_chunks  = 2; // ranks 2..4 own empty chunk ranges
    RunSpec spec;
    spec.ranks       = 5;
    spec.pes         = 2;
    spec.output_path = tmp_path("fewchunks.bin");
    const net::RunResult res = run_backend(GetParam(), cfg, spec);
    EXPECT_EQ(read_bytes(spec.output_path), single_process_bytes(cfg, 2));
    ASSERT_EQ(res.ranks.size(), 5u);
    EXPECT_EQ(res.ranks[4].chunk_begin, res.ranks[4].chunk_end);
    EXPECT_EQ(res.ranks[4].file_edges, 0u);
    std::remove(spec.output_path.c_str());
}

TEST_P(TransportMatrix, PinnedTotalChunksIndependentOfRankCount) {
    Config cfg       = model_config(Model::Rgg2D);
    cfg.total_chunks = 10; // decomposition pinned: every (ranks, P) agrees
    const std::string ref = single_process_bytes(cfg, 3);
    for (const u64 ranks : {u64{2}, u64{4}}) {
        RunSpec spec;
        spec.ranks       = ranks;
        spec.pes         = 7; // irrelevant under pinned total_chunks
        spec.output_path = tmp_path("pinned.bin");
        run_backend(GetParam(), cfg, spec);
        EXPECT_EQ(read_bytes(spec.output_path), ref) << "ranks=" << ranks;
        std::remove(spec.output_path.c_str());
    }
}

TEST_P(TransportMatrix, StatsOnlyRunMergesExactlyAndWritesNoFiles) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 3;
    CountingSink count(cfg.edge_semantics);
    generate_chunked(cfg, 5, count);
    count.finish();
    DegreeStatsSink degrees(num_vertices(cfg), cfg.edge_semantics);
    generate_chunked(cfg, 5, degrees);
    degrees.finish();

    const ScratchDir scratch("stats");
    RunSpec spec;
    spec.pes          = 5;
    spec.degree_stats = true;
    spec.scratch_dir  = scratch.path();
    const net::RunResult res = run_backend(GetParam(), cfg, spec);

    EXPECT_EQ(res.count, count.summarize());
    EXPECT_EQ(res.count.str(), count.summary());
    ASSERT_TRUE(res.has_degrees);
    EXPECT_EQ(res.degrees, degrees.summarize());
    EXPECT_EQ(res.degrees.str(), degrees.summary());
    EXPECT_EQ(res.degrees.degrees, degrees.degrees()); // per-vertex, exact
    for (const auto& rep : res.ranks) EXPECT_TRUE(rep.degrees.degrees.empty());
    EXPECT_EQ(res.edges_written, 0u) << "stats-only run must write no file";
    EXPECT_TRUE(scratch.entries().empty());
}

TEST_P(TransportMatrix, ExactOnceMergedCountMatchesUnion) {
    Config cfg         = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe  = 2;
    cfg.edge_semantics = EdgeSemantics::exact_once;
    const u64 C        = 2 * 4;
    Config as_gen         = cfg;
    as_gen.edge_semantics = EdgeSemantics::as_generated;
    const auto legacy = pe::run_all(
        C, [&](u64 rank, u64 size) { return generate(as_gen, rank, size).edges; });
    RunSpec spec;
    const net::RunResult res = run_backend(GetParam(), cfg, spec);
    EXPECT_EQ(res.count.num_edges, pe::union_undirected(legacy).size());
}

TEST_P(TransportMatrix, DedupPassMatchesUnionUndirected) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const auto per_chunk = pe::run_all(
        2 * 3, [&](u64 rank, u64 size) { return generate(cfg, rank, size).edges; });
    const EdgeList expected = pe::union_undirected(per_chunk);

    RunSpec spec;
    spec.ranks       = 3;
    spec.pes         = 3;
    spec.output_path = tmp_path("dedup_raw.bin");
    spec.dedup_path  = tmp_path("dedup_out.bin");
    const net::RunResult res = run_backend(GetParam(), cfg, spec);
    EXPECT_EQ(read_bytes(spec.output_path), single_process_bytes(cfg, 3));
    EXPECT_EQ(res.dedup_edges, expected.size());
    EXPECT_EQ(io::read_edge_list_binary(spec.dedup_path), expected);
    std::remove(spec.output_path.c_str());
    std::remove(spec.dedup_path.c_str());
}

TEST_P(TransportMatrix, TelemetryRunStaysByteIdenticalAndMergesEveryRank) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const std::string ref = single_process_bytes(cfg, 4);
    cfg.trace_path        = tmp_path("trace.json");
    cfg.metrics_path      = tmp_path("metrics.json");

    RunSpec spec;
    spec.ranks       = 3;
    spec.output_path = tmp_path("telemetry.bin");
    const net::RunResult res = run_backend(GetParam(), cfg, spec);
    EXPECT_EQ(read_bytes(spec.output_path), ref) << "telemetry changed the output";

    u64 recycled = 0;
    for (const auto& rep : res.ranks) recycled += rep.stats.buffers_recycled;
    EXPECT_EQ(res.buffers_recycled, recycled);
    EXPECT_EQ(res.spilled_chunks, 0u);

    // One timeline per rank plus the coordinator's, with the ranks' generate
    // spans. The coordinator's merge spans are checked for forked ranks only:
    // in-process TCP worker threads share its recorder, and each worker's
    // end_rank_telemetry drains it.
    const std::string trace = read_bytes(cfg.trace_path);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    for (const char* name : {"\"rank 0\"", "\"rank 1\"", "\"rank 2\"", "\"coordinator\"",
                             "\"name\": \"generate\""}) {
        EXPECT_NE(trace.find(name), std::string::npos) << name;
    }
    if (GetParam() == Transport::fork) {
        EXPECT_NE(trace.find("\"name\": \"merge\""), std::string::npos);
    }
    const std::string metrics = read_bytes(cfg.metrics_path);
    for (const char* name : {"\"pe.chunks\"", "\"sink.edges_written\"",
                             GetParam() == Transport::fork ? "\"dist.merged_bytes\""
                                                           : "\"net.merged_bytes\""}) {
        EXPECT_NE(metrics.find(name), std::string::npos) << name;
    }
    std::remove(spec.output_path.c_str());
    std::remove(cfg.trace_path.c_str());
    std::remove(cfg.metrics_path.c_str());
}

// Kept rank files (forked keep_rank_files, TCP manifest mode) are listed in
// the result, and in rank order they concatenate to the reference payload.
TEST_P(TransportMatrix, KeptRankFilesAreListedAndConcatenateToTheOutput) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const std::string ref = single_process_bytes(cfg, 4);
    const ScratchDir scratch("kept");
    RunSpec spec;
    spec.ranks           = 3;
    spec.keep_rank_files = true;
    spec.scratch_dir     = scratch.path();
    spec.output_path     = tmp_path("kept.out");
    const net::RunResult res = run_backend(GetParam(), cfg, spec);

    ASSERT_EQ(res.manifest.size(), 3u);
    EXPECT_EQ(scratch.entries().size(), 3u);
    std::string payload;
    for (u64 r = 0; r < res.manifest.size(); ++r) {
        const net::ManifestEntry& entry = res.manifest[r];
        EXPECT_EQ(entry.rank, r);
        ASSERT_TRUE(file_exists(entry.path)) << entry.path;
        const std::string bytes = read_bytes(entry.path);
        EXPECT_EQ(bytes.size(), entry.bytes);
        EXPECT_EQ(bytes.size(), 8 + 16 * entry.edges);
        payload += bytes.substr(8);
    }
    EXPECT_EQ(payload, ref.substr(8));
    std::remove(spec.output_path.c_str());
}

TEST_P(TransportMatrix, FailingRankIsNamedAndNothingIsLeftBehind) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    RunSpec spec;
    spec.ranks     = 3;
    spec.rank_hook = [](u64 rank) {
        if (rank == 1) throw std::runtime_error("injected fault in rank 1");
    };
    const std::string message = run_failing(GetParam(), cfg, spec, "throw");
    EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
    EXPECT_NE(message.find("injected fault in rank 1"), std::string::npos) << message;
}

// The ranks that finished before the failing one must not keep their files
// either: a rank owns its file until the coordinator's verdict, and a failed
// run sends none.
TEST_P(TransportMatrix, FailedRunDiscardsEveryKeptRankFile) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    RunSpec spec;
    spec.ranks           = 4;
    spec.keep_rank_files = true;
    spec.rank_hook       = [](u64 rank) {
        if (rank == 3) throw std::runtime_error("injected fault in rank 3");
    };
    const std::string message = run_failing(GetParam(), cfg, spec, "keep");
    EXPECT_NE(message.find("rank 3"), std::string::npos) << message;
}

TEST_P(TransportMatrix, DeadRankErrorsFastNamingIt) {
    Config cfg = model_config(Model::GnmUndirected);
    const auto start = std::chrono::steady_clock::now();
    std::string message;
    if (GetParam() == Transport::fork) {
        RunSpec spec;
        spec.ranks     = 2;
        spec.rank_hook = [](u64 rank) {
            if (rank == 0) ::raise(SIGKILL);
        };
        message = run_failing(GetParam(), cfg, spec, "crash");
        EXPECT_NE(message.find("signal 9"), std::string::npos) << message;
    } else {
        net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
        net::NetOptions opts;
        opts.listener       = &listener;
        opts.expect_workers = 1;
        opts.output_path    = tmp_path("dead.bin");
        std::thread saboteur(sabotaged_worker, listener.port(), Sabotage::die_silently);
        try {
            net::run_net_coordinator(cfg, opts);
            ADD_FAILURE() << "a dead worker must fail the run";
        } catch (const std::runtime_error& e) {
            message = e.what();
        }
        saboteur.join();
        EXPECT_FALSE(file_exists(opts.output_path));
    }
    EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 10000)
        << "a dead rank must surface via EOF, not a hang";
}

} // namespace kagen::testing
