// Quickstart: generate a small instance of every supported network model —
// first through the classic per-PE facade (materialized edge lists), then
// through the chunked streaming engine (degree statistics without ever
// holding an edge list).
//
//   ./example_quickstart [n] [pes]
#include <cstdio>
#include <cstdlib>

#include "graph/stats.hpp"
#include "kagen.hpp"
#include "pe/pe.hpp"
#include "sink/sinks.hpp"

using namespace kagen;

int main(int argc, char** argv) {
    const u64 n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000;
    const u64 P = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4;

    std::printf("KaGen reproduction quickstart: n = %llu vertices on %llu "
                "simulated PEs\n\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(P));
    std::printf("%-16s %12s %10s %10s %12s\n", "model", "edges", "avg deg",
                "max deg", "components");

    const Model models[] = {Model::GnmDirected, Model::GnmUndirected,
                            Model::GnpUndirected, Model::Rgg2D, Model::Rgg3D,
                            Model::Rdg2D, Model::Rdg3D, Model::Rhg,
                            Model::RhgStreaming, Model::Ba, Model::Rmat};

    auto make_config = [&](Model model) {
        Config cfg;
        cfg.model     = model;
        cfg.n         = n;
        cfg.m         = 8 * n;
        cfg.p         = 16.0 / static_cast<double>(n);
        cfg.r         = 0.6 * std::sqrt(std::log(static_cast<double>(n)) /
                                        static_cast<double>(n));
        cfg.avg_deg   = 16;
        cfg.gamma     = 2.8;
        cfg.ba_degree = 8;
        cfg.seed      = 42;
        return cfg;
    };

    for (const Model model : models) {
        const Config cfg = make_config(model);
        // Every PE generates its part independently — no communication; the
        // union below stands in for whatever the application would do with
        // the distributed edge lists.
        const auto per_pe = pe::run_all(P, [&](u64 rank, u64 size) {
            return generate(cfg, rank, size).edges;
        });
        const EdgeList edges = pe::union_undirected(per_pe);
        const u64 nv         = num_vertices(cfg);
        const auto degs      = degrees(edges, nv);
        std::printf("%-16s %12zu %10.2f %10llu %12llu\n", model_name(model),
                    edges.size(), average_degree(degs),
                    static_cast<unsigned long long>(max_degree(degs)),
                    static_cast<unsigned long long>(connected_components(edges, nv)));
    }

    // Streaming path: the same generators emit into an edge sink through the
    // chunked engine — K·P logical chunks, dynamically scheduled — so
    // statistics of arbitrarily large instances never materialize an edge
    // list. (Counts include the intentional cross-chunk duplicates of the
    // incident-edge output models, exactly like the per-PE lists above
    // before union_undirected canonicalizes them.)
    std::printf("\nStreaming through the chunked engine (chunks_per_pe = 4, "
                "no edge list in memory):\n");
    std::printf("%-16s %12s %10s %10s %10s\n", "model", "edges", "avg deg",
                "max deg", "makespan");
    for (const Model model : models) {
        Config cfg        = make_config(model);
        cfg.chunks_per_pe = 4;
        DegreeStatsSink sink(num_vertices(cfg));
        const ChunkStats stats = generate_chunked(cfg, P, sink);
        sink.finish();
        std::printf("%-16s %12llu %10.2f %10llu %8.3fms\n", model_name(model),
                    static_cast<unsigned long long>(sink.num_edges()),
                    sink.average_degree(),
                    static_cast<unsigned long long>(sink.max_degree()),
                    stats.seconds * 1e3);
    }

    std::printf("\nAll models generated communication-free: each PE's (and "
                "chunk's) output is a pure function of (rank, P, seed, "
                "params).\n");
    return 0;
}
