/// \file transport_matrix.hpp
/// \brief One test matrix for both transports of the coordinator
///        (net/coordinator.hpp): forked ranks and TCP workers.
///
/// Every case here runs on each transport: byte identity against the
/// in-process chunked engine across models × semantics × ranks × K, lease
/// schedules (a slowed rank, more ranks than chunks), merged statistics,
/// the dedup pass, telemetry, kept rank files, ranks spilling under their
/// own RunOptions, outputs that are not regular files, and failure
/// containment (the failing rank and the lease
/// it held are named, and no output or rank file survives). test_dist.cpp instantiates the matrix for forked ranks (ctest
/// label `dist`), test_net.cpp for loopback TCP workers (label `net`). They
/// stay two executables because the TSan job runs the `net` label and
/// cannot fork (DESIGN.md §12). Cases that apply to one transport only live
/// in that transport's file.
#pragma once

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
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

#include "graph/em_sort.hpp"
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

    std::vector<std::string> entries() const { return list(path_); }

    static std::vector<std::string> list(const std::string& path) {
        std::vector<std::string> out;
        DIR* dir = ::opendir(path.c_str());
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
    u64 ranks   = 4;
    u64 pes     = 4;
    u64 threads = 1; ///< pool threads inside each rank
    /// Merged output file; empty = stats only. With `keep_rank_files` over
    /// TCP it names the manifest instead (manifest mode has no merged file).
    std::string output_path;
    /// Rank files outlive the run: DistOptions::keep_rank_files for forked
    /// ranks, manifest mode for TCP workers.
    bool keep_rank_files = false;
    bool degree_stats    = false;
    std::string dedup_path;
    std::string scratch_dir; ///< empty = the test temp dir
    /// TCP workers' own RunOptions. Forked ranks run the coordinator's
    /// (the `cfg` passed to run_backend) instead.
    RunOptions worker_run;
    std::function<void(u64 rank)> rank_hook;
    std::function<void(u64 rank, const dist::Lease& lease)> lease_hook;
};

inline net::RunResult run_backend(Transport transport, const Config& cfg,
                                  const RunSpec& spec) {
    if (transport == Transport::fork) {
        dist::DistOptions opts;
        opts.num_ranks        = spec.ranks;
        opts.num_pes          = spec.pes;
        opts.threads_per_rank = spec.threads;
        opts.output_path      = spec.output_path;
        opts.keep_rank_files  = spec.keep_rank_files;
        opts.degree_stats     = spec.degree_stats;
        opts.dedup_path       = spec.dedup_path;
        opts.scratch_dir      = spec.scratch_dir;
        opts.rank_hook        = spec.rank_hook;
        opts.lease_hook       = spec.lease_hook;
        return generate_distributed(cfg, opts);
    }
    net::Listener listener(net::parse_endpoint("127.0.0.1:0"));
    net::NetOptions opts;
    opts.listener           = &listener;
    opts.expect_workers     = spec.ranks;
    opts.num_pes            = spec.pes;
    opts.threads_per_worker = spec.threads;
    (spec.keep_rank_files ? opts.manifest_path : opts.output_path) = spec.output_path;
    opts.degree_stats = spec.degree_stats;
    opts.dedup_path   = spec.dedup_path;
    net::NetWorkerOptions wopts;
    wopts.run         = spec.worker_run;
    wopts.scratch_dir = spec.scratch_dir;
    wopts.rank_hook   = spec.rank_hook;
    wopts.lease_hook  = spec.lease_hook;
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

/// A second name for the output a failing run is about to create, empty.
/// The coordinator writes -o in place, so the link sees every byte the run
/// wrote, and keeps them after the coordinator removed -o.
inline std::string link_witness(const std::string& output_path) {
    { std::ofstream create(output_path, std::ios::binary); }
    const std::string witness = output_path + ".witness";
    std::remove(witness.c_str());
    EXPECT_EQ(::link(output_path.c_str(), witness.c_str()), 0) << std::strerror(errno);
    return witness;
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
    cfg.total_chunks  = 2; // ranks 2..4 never get a lease
    RunSpec spec;
    spec.ranks       = 5;
    spec.pes         = 2;
    spec.output_path = tmp_path("fewchunks.bin");
    const net::RunResult res = run_backend(GetParam(), cfg, spec);
    EXPECT_EQ(read_bytes(spec.output_path), single_process_bytes(cfg, 2));
    ASSERT_EQ(res.ranks.size(), 5u);
    EXPECT_TRUE(res.ranks[4].leases.empty());
    EXPECT_EQ(res.ranks[4].file_edges, 0u);
    std::remove(spec.output_path.c_str());
}

/// The leases of every rank of `res`, sorted by chunk, must tile [0, C)
/// with no gap or overlap; each rank's stats count its leased chunks, and
/// the leases' edges sum to the run's.
inline void expect_leases_tile(const net::RunResult& res, const std::string& where) {
    std::vector<dist::Lease> all;
    u64 chunks = 0;
    for (const dist::RankReport& rep : res.ranks) {
        u64 leased = 0;
        for (const dist::Lease& l : rep.leases) leased += l.chunk_end - l.chunk_begin;
        EXPECT_EQ(rep.stats.num_chunks, leased) << where << " rank " << rep.rank;
        all.insert(all.end(), rep.leases.begin(), rep.leases.end());
        chunks += rep.stats.num_chunks;
    }
    std::sort(all.begin(), all.end(), [](const dist::Lease& a, const dist::Lease& b) {
        return a.chunk_begin < b.chunk_begin;
    });
    u64 next = 0, edges = 0;
    for (const dist::Lease& l : all) {
        EXPECT_EQ(l.chunk_begin, next) << where << ": gap or overlap";
        EXPECT_LT(l.chunk_begin, l.chunk_end) << where << ": empty lease";
        next = l.chunk_end;
        edges += l.edges;
    }
    EXPECT_EQ(next, res.num_chunks) << where;
    EXPECT_EQ(chunks, res.num_chunks) << where;
    EXPECT_EQ(edges, res.count.num_edges) << where;
}

/// In-process reference of a run with `-dedup-out`: the -o bytes of
/// generate_chunked and their em::sort_dedup_file.
inline std::pair<std::string, std::string> reference_with_dedup(const Config& cfg,
                                                                u64 pes) {
    const std::string raw      = single_process_bytes(cfg, pes);
    const std::string raw_path = tmp_path("lease_ref.bin");
    const std::string dd_path  = tmp_path("lease_ref.dd");
    {
        std::ofstream out(raw_path, std::ios::binary);
        out << raw;
    }
    em::sort_dedup_file(raw_path, dd_path, u64{64} << 20);
    std::string dedup = read_bytes(dd_path);
    std::remove(raw_path.c_str());
    std::remove(dd_path.c_str());
    return {raw, std::move(dedup)};
}

// One pull schedule for every chunk count: C = 1 (one rank works), C = W - 1
// (one rank gets no lease and reports an empty lease table) and C = 64 (about
// 21 guided leases), under both semantics. -o and -dedup-out stay the
// in-process bytes and the leases tile [0, C).
TEST_P(TransportMatrix, LeasesTileEveryChunkCountAndKeepTheBytes) {
    const u64 ranks = 4;
    for (const u64 chunks : {u64{1}, ranks - 1, u64{64}}) {
        for (const EdgeSemantics semantics :
             {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
            Config cfg         = model_config(Model::GnmUndirected);
            cfg.total_chunks   = chunks;
            cfg.edge_semantics = semantics;
            const auto [ref, ref_dedup] = reference_with_dedup(cfg, 1);
            RunSpec spec;
            spec.ranks       = ranks;
            spec.output_path = tmp_path("lease_tile.bin");
            spec.dedup_path  = tmp_path("lease_tile.dd");
            const net::RunResult res = run_backend(GetParam(), cfg, spec);
            const std::string where  = "C=" + std::to_string(chunks) + " " +
                                      semantics_name(semantics);
            EXPECT_EQ(read_bytes(spec.output_path), ref) << where;
            EXPECT_EQ(read_bytes(spec.dedup_path), ref_dedup) << where;
            expect_leases_tile(res, where);
            for (const dist::RankReport& rep : res.ranks) {
                if (rep.rank >= chunks) {
                    EXPECT_TRUE(rep.leases.empty()) << where << " rank " << rep.rank;
                    EXPECT_EQ(rep.file_edges, 0u) << where;
                }
            }
            if (chunks == 64) {
                u64 leases = 0;
                for (const dist::RankReport& rep : res.ranks) leases += rep.leases.size();
                EXPECT_EQ(leases, 21u) << where << ": guided self-scheduling, W = 4";
            }
            std::remove(spec.output_path.c_str());
            std::remove(spec.dedup_path.c_str());
        }
    }
}

// A rank slowed inside its lease loop pulls fewer chunks than the others,
// and the bytes of -o (and -dedup-out) do not change, whether the ranks
// place their leases (no dedup) or gather rank files (dedup). Rank 3 is the
// one slowed: its first lease is the smallest (6 of 64 chunks, against 8, 7
// and 7), so the others outgrow it even if one of them starts late.
TEST_P(TransportMatrix, SlowRankPullsFewerChunksAndKeepsTheBytes) {
    for (const bool dedup : {true, false}) {
        for (const EdgeSemantics semantics :
             {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
            Config cfg         = model_config(Model::GnmUndirected);
            cfg.total_chunks   = 64;
            cfg.edge_semantics = semantics;
            const auto [ref, ref_dedup] = reference_with_dedup(cfg, 1);
            RunSpec spec;
            spec.ranks       = 4;
            spec.output_path = tmp_path("lease_slow.bin");
            if (dedup) spec.dedup_path = tmp_path("lease_slow.dd");
            spec.lease_hook = [](u64 rank, const dist::Lease&) {
                if (rank == 3) std::this_thread::sleep_for(std::chrono::milliseconds(300));
            };
            const net::RunResult res = run_backend(GetParam(), cfg, spec);
            const std::string where  = std::string(semantics_name(semantics)) +
                                      (dedup ? " gathered" : " placed");
            EXPECT_EQ(read_bytes(spec.output_path), ref) << where;
            if (dedup) EXPECT_EQ(read_bytes(spec.dedup_path), ref_dedup) << where;
            EXPECT_EQ(res.placed_bytes, dedup ? 0 : ref.size() - 8) << where;
            expect_leases_tile(res, where);
            ASSERT_EQ(res.ranks.size(), 4u);
            for (u64 r = 0; r < 3; ++r) {
                EXPECT_LT(res.ranks[3].stats.num_chunks, res.ranks[r].stats.num_chunks)
                    << where << ": the slowed rank 3 against rank " << r;
            }
            std::remove(spec.output_path.c_str());
            std::remove(spec.dedup_path.c_str());
        }
    }
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

/// Sets the sort budget the ranks of `transport` run under: a forked
/// rank's comes from the coordinator's Config, a TCP worker's from its own
/// RunOptions (the coordinator's is never sent).
inline void set_rank_sort_memory(Transport transport, Config& cfg, RunSpec& spec,
                                 u64 bytes) {
    if (transport == Transport::fork) {
        cfg.sort_memory = bytes;
    } else {
        spec.worker_run.sort_memory = bytes;
    }
}

/// A counter of a `-metrics` JSON file (0 if absent).
inline u64 metrics_counter(const std::string& path, const std::string& name) {
    const std::string doc = read_bytes(path);
    const std::size_t at  = doc.find("\"" + name + "\": ");
    return at == std::string::npos ? 0
                                   : std::stoull(doc.substr(at + name.size() + 4));
}

// The dedup file is the union_undirected oracle byte for byte — for
// gnm_undirected, rgg2d and in-memory rhg, whether every rank forms one run
// (64 MiB) or many (1 B: the 1024-edge minimum run) — and so is the
// in-process tool path (a chunked file, then em::sort_dedup_file). The -o
// file stays the single-process bytes.
TEST_P(TransportMatrix, DedupPassMatchesUnionUndirected) {
    for (const Model model : {Model::GnmUndirected, Model::Rgg2D, Model::Rhg}) {
        Config cfg        = model_config(model);
        cfg.chunks_per_pe = 2;
        const auto per_chunk = pe::run_all(
            2 * 3, [&](u64 rank, u64 size) { return generate(cfg, rank, size).edges; });
        const EdgeList expected = pe::union_undirected(per_chunk);
        const std::string oracle_path = tmp_path("dedup_oracle.bin");
        io::write_edge_list_binary(oracle_path, expected);
        const std::string oracle = read_bytes(oracle_path);
        const std::string raw    = single_process_bytes(cfg, 3);
        const std::string raw_path = tmp_path("dedup_in_process.bin");
        {
            std::ofstream out(raw_path, std::ios::binary);
            out << raw;
        }
        for (const u64 budget : {u64{1}, u64{64} << 20}) {
            const std::string where = std::string(model_name(model)) +
                                      " sort_memory=" + std::to_string(budget);
            const std::string in_process = tmp_path("dedup_in_process.dd");
            em::sort_dedup_file(raw_path, in_process, budget);
            EXPECT_EQ(read_bytes(in_process), oracle) << where << " (in-process)";

            RunSpec spec;
            spec.ranks       = 3;
            spec.pes         = 3;
            spec.output_path = tmp_path("dedup_raw.bin");
            spec.dedup_path  = tmp_path("dedup_out.bin");
            Config run_cfg   = cfg;
            set_rank_sort_memory(GetParam(), run_cfg, spec, budget);
            const net::RunResult res = run_backend(GetParam(), run_cfg, spec);
            EXPECT_EQ(read_bytes(spec.output_path), raw) << where;
            EXPECT_EQ(res.dedup_edges, expected.size()) << where;
            EXPECT_EQ(read_bytes(spec.dedup_path), oracle) << where;
            u64 runs = 0;
            for (const auto& rep : res.ranks) {
                runs += rep.runs.size();
                if (budget > 1) EXPECT_EQ(rep.runs.size(), rep.file_edges > 0 ? 1u : 0u);
            }
            if (budget == 1) EXPECT_GT(runs, spec.ranks) << where;
            std::remove(in_process.c_str());
            std::remove(spec.output_path.c_str());
            std::remove(spec.dedup_path.c_str());
        }
        std::remove(raw_path.c_str());
        std::remove(oracle_path.c_str());
    }
}

// Each rank sorts its own file under its own budget — a forked rank under
// the coordinator's sort_memory, a TCP worker under its own (the TCP
// coordinator's 64 MiB would allow one run per rank). 1 B buys the
// 1024-edge minimum run: no run exceeds it, and a rank with E edges forms
// ceil(E / 1024) runs, which is what the merged em.runs counter sums to.
// No run file outlives the run, successful or failed.
TEST_P(TransportMatrix, RanksSortUnderTheirOwnBudgetAndLeaveNoRunFiles) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    const ScratchDir scratch("runs");
    RunSpec spec;
    spec.ranks       = 3;
    spec.pes         = 3;
    spec.scratch_dir = scratch.path();
    spec.output_path = tmp_path("runs_raw.bin");
    spec.dedup_path  = tmp_path("runs_out.bin");
    Config coordinator       = cfg;
    coordinator.metrics_path = tmp_path("runs.metrics.json");
    set_rank_sort_memory(GetParam(), coordinator, spec, 1);
    const net::RunResult res = run_backend(GetParam(), coordinator, spec);

    u64 expected_runs = 0;
    for (const auto& rep : res.ranks) {
        const u64 runs = (rep.file_edges + 1023) / 1024;
        EXPECT_EQ(rep.runs.size(), runs) << "rank " << rep.rank;
        for (const u64 len : rep.runs) EXPECT_LE(len, 1024u) << "rank " << rep.rank;
        expected_runs += runs;
    }
    EXPECT_GT(expected_runs, 2 * spec.ranks);
    const u64 counted = metrics_counter(coordinator.metrics_path, "em.runs");
    if (GetParam() == Transport::fork) {
        EXPECT_EQ(counted, expected_runs);
    } else {
        // In-process TCP worker threads share the coordinator's registry,
        // so its own delta may count their runs once more.
        EXPECT_GE(counted, expected_runs);
    }
    EXPECT_TRUE(scratch.entries().empty())
        << scratch.entries().size() << " file(s) left after a successful run";
    std::remove(spec.output_path.c_str());
    std::remove(spec.dedup_path.c_str());
    std::remove(coordinator.metrics_path.c_str());

    RunSpec failing   = spec;
    failing.rank_hook = [](u64 rank) {
        if (rank == 1) throw std::runtime_error("injected fault in rank 1");
    };
    const std::string message =
        run_failing(GetParam(), coordinator, failing, "runs_fail");
    EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
    EXPECT_FALSE(file_exists(failing.dedup_path)) << "partial dedup output left";
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
    EXPECT_EQ(res.stats.buffers_recycled, recycled);
    EXPECT_EQ(res.stats.spilled_chunks, 0u);

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
    // The coordinator counts each lease once, never per edge. In-process
    // TCP worker threads share its registry, so their deltas may count the
    // leases granted while they ran once more.
    u64 leases = 0;
    for (const auto& rep : res.ranks) leases += rep.leases.size();
    const u64 counted = metrics_counter(cfg.metrics_path, "coordinator.leases");
    if (GetParam() == Transport::fork) {
        EXPECT_EQ(counted, leases);
    } else {
        EXPECT_GE(counted, leases);
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
// the result with their lease segments; the segments tile [0, C), and taken
// in canonical order they concatenate to the reference payload. Over TCP
// the v2 manifest file lists the same segments, one line each, in that
// order.
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
    struct Piece {
        net::ManifestSegment segment;
        std::string bytes;
    };
    std::vector<Piece> pieces;
    for (u64 r = 0; r < res.manifest.size(); ++r) {
        const net::ManifestEntry& entry = res.manifest[r];
        EXPECT_EQ(entry.rank, r);
        ASSERT_TRUE(file_exists(entry.path)) << entry.path;
        const std::string bytes = read_bytes(entry.path);
        EXPECT_EQ(bytes.size(), entry.bytes);
        EXPECT_EQ(bytes.size(), 8 + 16 * entry.edges);
        u64 offset = 8;
        for (const net::ManifestSegment& seg : entry.segments) {
            EXPECT_EQ(seg.offset, offset) << "segments are back to back";
            offset += 16 * seg.edges;
            ASSERT_LE(offset, bytes.size());
            pieces.push_back({seg, bytes.substr(seg.offset, 16 * seg.edges)});
        }
        EXPECT_EQ(offset, bytes.size());
    }
    std::sort(pieces.begin(), pieces.end(), [](const Piece& a, const Piece& b) {
        return a.segment.chunk_begin < b.segment.chunk_begin;
    });
    std::string payload;
    u64 next = 0;
    for (const Piece& piece : pieces) {
        EXPECT_EQ(piece.segment.chunk_begin, next) << "segments must tile [0, C)";
        next = piece.segment.chunk_end;
        payload += piece.bytes;
    }
    EXPECT_EQ(next, res.num_chunks);
    EXPECT_EQ(payload, ref.substr(8));

    if (GetParam() == Transport::tcp) {
        // Reassemble from the manifest text alone, line by line.
        std::ifstream manifest(spec.output_path);
        std::string line;
        ASSERT_TRUE(std::getline(manifest, line));
        EXPECT_EQ(line, "# kagen partitioned output manifest v2");
        ASSERT_TRUE(std::getline(manifest, line)); // the run's summary
        std::string from_text;
        u64 lines = 0;
        while (std::getline(manifest, line)) {
            auto field = [&](const std::string& key) {
                const std::size_t at = line.find(" " + key + "=");
                EXPECT_NE(at, std::string::npos) << key << " in: " << line;
                const std::size_t from = at + key.size() + 2;
                return line.substr(from, line.find(' ', from) - from);
            };
            const std::string bytes = read_bytes(field("path"));
            from_text += bytes.substr(std::stoull(field("offset")),
                                      16 * std::stoull(field("edges")));
            ++lines;
        }
        EXPECT_EQ(lines, pieces.size());
        EXPECT_EQ(from_text, ref.substr(8));
    }
    std::remove(spec.output_path.c_str());
}

// A sized gather places every lease at its final offset while leases run,
// for directed and undirected G(n,m), both samplers, both semantics and
// C = 1, W - 1 and 64 (and two threads per rank at C = 64): -o is the
// in-process bytes, every payload byte was placed and none gathered, and no
// rank file appears in the scratch dir, during the run (each lease checks)
// or after it.
TEST_P(TransportMatrix, PlacedGnmMatchesInProcessAcrossChunkCountsSamplersAndSemantics) {
    const u64 ranks = 4;
    const ScratchDir scratch("placed");
    for (const Model model : {Model::GnmDirected, Model::GnmUndirected}) {
        for (const SamplerVersion sampler : {SamplerVersion::v1, SamplerVersion::v2}) {
            for (const EdgeSemantics semantics :
                 {EdgeSemantics::as_generated, EdgeSemantics::exact_once}) {
                for (const u64 chunks : {u64{1}, ranks - 1, u64{64}}) {
                    Config cfg          = model_config(model);
                    cfg.total_chunks    = chunks;
                    cfg.sampler_version = sampler;
                    cfg.edge_semantics  = semantics;
                    const std::string ref = single_process_bytes(cfg, 1);
                    for (const u64 threads : {u64{1}, u64{2}}) {
                        if (threads > 1 && chunks != 64) continue;
                        const std::string where =
                            std::string(model_name(model)) + " sampler v" +
                            std::to_string(sampler == SamplerVersion::v1 ? 1 : 2) +
                            " " + semantics_name(semantics) + " C=" + std::to_string(chunks) +
                            " threads=" + std::to_string(threads);
                        RunSpec spec;
                        spec.ranks       = ranks;
                        spec.threads     = threads;
                        spec.output_path = tmp_path("placed.bin");
                        spec.scratch_dir = scratch.path();
                        spec.lease_hook  = [dir = scratch.path()](u64, const dist::Lease&) {
                            if (!ScratchDir::list(dir).empty()) {
                                throw std::runtime_error("a rank file appeared while leases ran");
                            }
                        };
                        const net::RunResult res = run_backend(GetParam(), cfg, spec);
                        EXPECT_EQ(read_bytes(spec.output_path), ref) << where;
                        EXPECT_EQ(res.edges_written * 16 + 8, ref.size()) << where;
                        EXPECT_EQ(res.placed_bytes, ref.size() - 8) << where;
                        EXPECT_EQ(res.gathered_bytes, 0u) << where;
                        EXPECT_EQ(res.merged_bytes, ref.size() - 8) << where;
                        EXPECT_TRUE(scratch.entries().empty()) << where;
                        std::remove(spec.output_path.c_str());
                    }
                }
            }
        }
    }
}

// Where the payload moved: a placed run writes it at its slots while leases
// run, a rank-file run (unsized, with dedup) moves it after the last lease.
// Each lease is counted once, by the coordinator.
TEST_P(TransportMatrix, PayloadCountersShowPlacedAndGatheredBytes) {
    for (const Model model : {Model::GnmUndirected, Model::Rhg}) {
        Config cfg           = model_config(model);
        cfg.total_chunks     = 16;
        cfg.edge_semantics   = EdgeSemantics::exact_once;
        cfg.metrics_path     = tmp_path("payload.metrics.json");
        const bool placed    = model == Model::GnmUndirected;
        const std::string ref = single_process_bytes(cfg, 1);
        RunSpec spec;
        spec.output_path = tmp_path("payload.bin");
        if (!placed) spec.dedup_path = tmp_path("payload.dd");
        const net::RunResult res = run_backend(GetParam(), cfg, spec);
        const u64 payload        = ref.size() - 8;
        EXPECT_EQ(read_bytes(spec.output_path), ref) << model_name(model);
        EXPECT_EQ(res.placed_bytes, placed ? payload : 0) << model_name(model);
        EXPECT_EQ(res.gathered_bytes, placed ? 0 : payload) << model_name(model);
        const u64 placed_ctr   = metrics_counter(cfg.metrics_path, "coordinator.placed_bytes");
        const u64 gathered_ctr = metrics_counter(cfg.metrics_path, "coordinator.gathered_bytes");
        if (GetParam() == Transport::fork) {
            EXPECT_EQ(placed_ctr, res.placed_bytes) << model_name(model);
            EXPECT_EQ(gathered_ctr, res.gathered_bytes) << model_name(model);
        } else {
            // In-process TCP worker threads share the coordinator's registry,
            // so their deltas may count its leases once more.
            EXPECT_GE(placed_ctr, res.placed_bytes) << model_name(model);
            EXPECT_GE(gathered_ctr, res.gathered_bytes) << model_name(model);
            EXPECT_EQ(placed ? gathered_ctr : placed_ctr, 0u) << model_name(model);
        }
        std::remove(spec.output_path.c_str());
        std::remove(spec.dedup_path.c_str());
        std::remove(cfg.metrics_path.c_str());
    }
}

// A rank held back before its first lease while the others stream theirs:
// the coordinator places every frame on arrival, so its one receive buffer
// (the coordinator.receive_buffer_bytes gauge) never grows past one
// lease_data frame, and the bytes do not change.
TEST_P(TransportMatrix, HeldBackRankLeavesTheReceiveBufferAtOneFrame) {
    Config cfg       = model_config(Model::GnmUndirected);
    cfg.n            = 50000;
    cfg.m            = 400000; // 6.4 MB of payload, dozens of frames
    cfg.total_chunks = 32;
    cfg.metrics_path = tmp_path("held_back.metrics.json");
    const std::string ref = single_process_bytes(cfg, 1);
    RunSpec spec;
    spec.output_path = tmp_path("held_back.bin");
    spec.rank_hook   = [](u64 rank) {
        if (rank == 0) std::this_thread::sleep_for(std::chrono::milliseconds(300));
    };
    const net::RunResult res = run_backend(GetParam(), cfg, spec);
    EXPECT_EQ(read_bytes(spec.output_path), ref);
    EXPECT_EQ(res.placed_bytes, ref.size() - 8);
    const u64 buffer = metrics_counter(cfg.metrics_path, "coordinator.receive_buffer_bytes");
    EXPECT_GT(buffer, 0u);
    EXPECT_LE(buffer, net::kLeaseFrameBytes);
    std::remove(spec.output_path.c_str());
    std::remove(cfg.metrics_path.c_str());
}

// An output that is not a regular file is written but never sized or
// removed. A placed and a rank-file gather into /dev/null succeed and
// leave it a character device; a gather into a FIFO, which cannot seek,
// fails and leaves the FIFO where it was.
TEST_P(TransportMatrix, OutputThatIsNotARegularFileIsNeverRemoved) {
    const ScratchDir dir("nonregular");
    const std::string fifo = dir.path() + "/out.fifo";
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
    // A reader, so that opening the FIFO for writing does not block.
    const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
    ASSERT_GE(reader, 0) << std::strerror(errno);
    for (const Model model : {Model::GnmUndirected, Model::Rgg2D}) {
        const Config cfg = model_config(model);
        RunSpec spec;
        spec.output_path         = "/dev/null";
        const net::RunResult res = run_backend(GetParam(), cfg, spec);
        EXPECT_EQ(res.edges_written, res.count.num_edges) << model_name(model);
        struct stat st{};
        ASSERT_EQ(::stat("/dev/null", &st), 0) << model_name(model);
        EXPECT_TRUE(S_ISCHR(st.st_mode)) << model_name(model);

        spec.output_path = fifo;
        try {
            run_backend(GetParam(), cfg, spec);
            ADD_FAILURE() << model_name(model) << ": a gather into a FIFO cannot seek";
        } catch (const std::runtime_error&) {
        }
        ASSERT_EQ(::stat(fifo.c_str(), &st), 0) << model_name(model) << ": FIFO removed";
        EXPECT_TRUE(S_ISFIFO(st.st_mode)) << model_name(model);
    }
    ::close(reader);
    std::remove(fifo.c_str());
}

// -o is overwritten in place, not truncated at open, and cut to its final
// size at the end: a run into an existing, larger file leaves the bytes of
// a run into a fresh path, placed (G(n,m)) and gathered (RGG) alike.
TEST_P(TransportMatrix, OutputOverALargerFileMatchesAFreshOne) {
    for (const Model model : {Model::GnmUndirected, Model::Rgg2D}) {
        SCOPED_TRACE(model_name(model));
        const Config cfg = model_config(model);
        RunSpec spec;
        spec.output_path = tmp_path("fresh.bin");
        std::remove(spec.output_path.c_str());
        run_backend(GetParam(), cfg, spec);
        const std::string fresh = read_bytes(spec.output_path);
        ASSERT_FALSE(fresh.empty());

        spec.output_path = tmp_path("stale.bin");
        {
            std::ofstream stale(spec.output_path, std::ios::binary | std::ios::trunc);
            stale << std::string(2 * fresh.size() + 4096, '\x5a');
        }
        run_backend(GetParam(), cfg, spec);
        EXPECT_EQ(read_bytes(spec.output_path), fresh);
        std::remove(tmp_path("fresh.bin").c_str());
        std::remove(spec.output_path.c_str());
    }
}

// Run settings are rank-local: a spill-forcing budget and a spill path in
// the ranks' own RunOptions leave the merged bytes unchanged on both
// transports. A TCP coordinator's own spill path is never sent to its
// workers (the coordinator's directory need not exist on theirs), while a
// worker's own unusable spill path fails that worker. (An unsized model:
// G(n,m) knows its chunk edge counts and writes in place, never spilling.)
TEST_P(TransportMatrix, RanksSpillUnderTheirOwnRunOptions) {
    Config cfg        = model_config(Model::Rgg2D);
    cfg.chunks_per_pe = 8;
    const std::string ref = single_process_bytes(cfg, 4);
    const ScratchDir spill_dir("spill");
    RunOptions run;
    run.max_buffered_bytes = 4096; // below one chunk: any early chunk spills
    run.spill_path         = spill_dir.path() + "/s.bin";

    RunSpec spec;
    spec.ranks       = 2;
    spec.threads     = 4;
    spec.output_path = tmp_path("rank_spill.bin");
    Config coordinator = cfg;
    if (GetParam() == Transport::fork) {
        static_cast<RunOptions&>(coordinator) = run;
    } else {
        coordinator.max_buffered_bytes = run.max_buffered_bytes;
        coordinator.spill_path         = "/nonexistent_kagen_dir/s.bin";
        spec.worker_run                = run;
    }
    run_backend(GetParam(), coordinator, spec);
    EXPECT_EQ(read_bytes(spec.output_path), ref);
    EXPECT_TRUE(spill_dir.entries().empty()) << "spill files left behind";
    std::remove(spec.output_path.c_str());

    if (GetParam() == Transport::tcp) {
        spec.worker_run.spill_path = "/nonexistent_kagen_dir/s.bin";
        const std::string message = run_failing(GetParam(), cfg, spec, "bad_spill");
        EXPECT_NE(message.find("spill"), std::string::npos) << message;
    }
}

// A rank whose lease fails is named with the lease's chunk range. With
// C = 8 and W = 3 the first leases are [0, 2), [2, 3) and [3, 4).
TEST_P(TransportMatrix, FailureMidLeaseNamesTheLease) {
    Config cfg        = model_config(Model::GnmUndirected);
    cfg.chunks_per_pe = 2;
    RunSpec spec;
    spec.ranks      = 3;
    spec.lease_hook = [](u64 rank, const dist::Lease&) {
        if (rank == 1) throw std::runtime_error("injected fault in a lease");
    };
    std::string message = run_failing(GetParam(), cfg, spec, "lease_throw");
    EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
    EXPECT_NE(message.find("chunks [2, 3)"), std::string::npos) << message;
    EXPECT_NE(message.find("injected fault in a lease"), std::string::npos) << message;

    // A forked rank that dies in its lease loop: its channel reads EOF. A
    // SIGKILL gives it no chance to unlink its rank file; the coordinator
    // removes it once the failed fleet is reaped.
    if (GetParam() == Transport::fork) {
        const ScratchDir scratch("lease_kill");
        spec.scratch_dir = scratch.path();
        spec.output_path = tmp_path("lease_kill_out.bin");
        spec.lease_hook  = [](u64 rank, const dist::Lease&) {
            if (rank == 1) ::raise(SIGKILL);
        };
        // A placed run: the ranks write into -o themselves. Whatever they
        // wrote before the failure is the reference's byte at its offset.
        const std::string ref     = single_process_bytes(cfg, 4);
        const std::string witness = link_witness(spec.output_path);
        try {
            run_backend(GetParam(), cfg, spec);
            ADD_FAILURE() << "a killed rank must fail the run";
        } catch (const std::runtime_error& e) {
            message = e.what();
        }
        EXPECT_FALSE(file_exists(spec.output_path)) << "partial output left";
        const std::string written = read_bytes(witness);
        EXPECT_LE(written.size(), ref.size());
        for (std::size_t i = 0; i < written.size(); ++i) {
            if (written[i] != 0 && (i < 8 || written[i] != ref[i])) {
                ADD_FAILURE() << "byte " << i << " of the failed run's output is not the "
                              << "reference's: written outside a lease's slots";
                break;
            }
        }
        std::remove(witness.c_str());
        EXPECT_TRUE(scratch.entries().empty())
            << scratch.entries().size() << " rank file(s) left behind, e.g. "
            << (scratch.entries().empty() ? "" : scratch.entries().front());
        EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
        EXPECT_NE(message.find("chunks [2, 3)"), std::string::npos) << message;
        EXPECT_NE(message.find("signal 9"), std::string::npos) << message;
    }
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
    EXPECT_NE(message.find("chunks [0, 1)"), std::string::npos)
        << message << ": the lease the rank held";
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 10000)
        << "a dead rank must surface via EOF, not a hang";
}

} // namespace kagen::testing
