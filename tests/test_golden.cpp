// Golden-file byte-identity: a generator stream is a *format*, not just a
// distribution — PR after PR may rearrange the engines, but the output for
// a pinned (model, params, seed, sampler, semantics, rank, size) must never
// move by a single byte, or silently re-generated datasets stop matching
// published ones. These fixtures freeze small instances of the ER family,
// one geometric model and the in-memory hyperbolic generator (whose query
// side may be rewritten for speed, never for bytes) under the default
// as_generated semantics and v1 sampler, plus the exact_once streams of
// undirected G(n,m)/G(n,p) under both samplers on a middle rank of a
// non-power-of-two size, where the rank has row and column chunks alike,
// and the exact_once streams of RGG2D, RDG2D and in-memory RHG.
// The byte-identity sweeps in test_er/test_dist cover self-consistency,
// this suite covers consistency *across commits*.
//
// Fixture format: u64 edge count, then count x (u64 u, u64 v), little
// endian, exactly as the edge list falls out of generate().
//
// Regeneration (only when intentionally changing a pinned stream, which is
// an API break and needs calling out in DESIGN.md):
//   KAGEN_GOLDEN_REGEN=1 ./build/test_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kagen.hpp"

namespace kagen {
namespace {

struct GoldenCase {
    const char* file;
    Model model;
    u64 n;
    u64 m;       // gnm models
    double p;    // gnp models
    double r;    // rgg models
    double avg_deg; // rhg models
    double gamma;   // rhg models
    u64 seed;
    u64 rank;
    u64 size;
    EdgeSemantics edge_semantics   = EdgeSemantics::as_generated;
    SamplerVersion sampler_version = SamplerVersion::v1;
};

// Small on purpose: a few thousand edges pin the stream just as hard as a
// few million, and the fixtures live in git.
const GoldenCase kCases[] = {
    {"gnm_directed_n2048_m4096_s7_r0of2.bin", Model::GnmDirected, 2048, 4096,
     0.0, 0.0, 0.0, 0.0, 7, 0, 2},
    {"gnm_undirected_n2048_m4096_s7_r1of2.bin", Model::GnmUndirected, 2048,
     4096, 0.0, 0.0, 0.0, 0.0, 7, 1, 2},
    {"gnp_directed_n2048_p0.001_s11_r0of2.bin", Model::GnpDirected, 2048, 0,
     0.001, 0.0, 0.0, 0.0, 11, 0, 2},
    {"rgg2d_n4096_r0.02_s13_r0of2.bin", Model::Rgg2D, 4096, 0, 0.0, 0.02, 0.0,
     0.0, 13, 0, 2},
    // In-memory RHG on a non-power-of-two chunk count: a typical instance
    // and a heavy tail (γ 2.1) whose inner-annulus windows reach π.
    {"rhg_n3000_d16_g2.6_s17_r2of7.bin", Model::Rhg, 3000, 0, 0.0, 0.0, 16.0,
     2.6, 17, 2, 7},
    {"rhg_n3000_d8_g2.1_s19_r4of5.bin", Model::Rhg, 3000, 0, 0.0, 0.0, 8.0,
     2.1, 19, 4, 5},
    // exact_once keeps rank 2's diagonal and column chunks and none of its
    // row chunks; v2 draws different positions from the same chunk seeds.
    {"gnm_undirected_n2048_m4096_s7_exact_once_v1_r2of5.bin", Model::GnmUndirected,
     2048, 4096, 0.0, 0.0, 0.0, 0.0, 7, 2, 5, EdgeSemantics::exact_once,
     SamplerVersion::v1},
    {"gnm_undirected_n2048_m4096_s7_exact_once_v2_r2of5.bin", Model::GnmUndirected,
     2048, 4096, 0.0, 0.0, 0.0, 0.0, 7, 2, 5, EdgeSemantics::exact_once,
     SamplerVersion::v2},
    {"gnp_undirected_n2048_p0.004_s23_exact_once_v1_r2of5.bin", Model::GnpUndirected,
     2048, 0, 0.004, 0.0, 0.0, 0.0, 23, 2, 5, EdgeSemantics::exact_once,
     SamplerVersion::v1},
    {"gnp_undirected_n2048_p0.004_s23_exact_once_v2_r2of5.bin", Model::GnpUndirected,
     2048, 0, 0.004, 0.0, 0.0, 0.0, 23, 2, 5, EdgeSemantics::exact_once,
     SamplerVersion::v2},
    // exact_once of the geometric and hyperbolic models: a middle rank
    // keeps its local edges and the halo edges whose lower endpoint is
    // local, and none of those whose lower endpoint lies below its ids.
    {"rgg2d_n4096_r0.02_s13_exact_once_r2of5.bin", Model::Rgg2D, 4096, 0, 0.0,
     0.02, 0.0, 0.0, 13, 2, 5, EdgeSemantics::exact_once},
    {"rdg2d_n2048_s29_exact_once_r2of5.bin", Model::Rdg2D, 2048, 0, 0.0, 0.0,
     0.0, 0.0, 29, 2, 5, EdgeSemantics::exact_once},
    {"rhg_n3000_d16_g2.6_s17_exact_once_r2of7.bin", Model::Rhg, 3000, 0, 0.0,
     0.0, 16.0, 2.6, 17, 2, 7, EdgeSemantics::exact_once},
    {"rhg_n3000_d8_g2.1_s19_exact_once_r4of5.bin", Model::Rhg, 3000, 0, 0.0, 0.0,
     8.0, 2.1, 19, 4, 5, EdgeSemantics::exact_once},
};

std::string golden_path(const char* file) {
    return std::string(GOLDEN_DIR) + "/" + file;
}

std::vector<unsigned char> serialize(const EdgeList& edges) {
    std::vector<unsigned char> bytes;
    bytes.reserve(8 + edges.size() * 16);
    const auto push_u64 = [&](u64 v) {
        for (int b = 0; b < 8; ++b) bytes.push_back((v >> (8 * b)) & 0xff);
    };
    push_u64(edges.size());
    for (const auto& [u, v] : edges) {
        push_u64(u);
        push_u64(v);
    }
    return bytes;
}

EdgeList generate_case(const GoldenCase& c) {
    Config cfg;
    cfg.model   = c.model;
    cfg.n       = c.n;
    cfg.m       = c.m;
    cfg.p       = c.p;
    cfg.r       = c.r;
    cfg.avg_deg = c.avg_deg;
    cfg.gamma   = c.gamma;
    cfg.seed    = c.seed;
    cfg.edge_semantics  = c.edge_semantics;
    cfg.sampler_version = c.sampler_version;
    return generate(cfg, c.rank, c.size).edges;
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, ByteIdentical) {
    const GoldenCase c = GetParam();
    const auto bytes   = serialize(generate_case(c));
    ASSERT_GT(bytes.size(), 8u) << "fixture instance generated no edges";

    const std::string path = golden_path(c.file);
    if (std::getenv("KAGEN_GOLDEN_REGEN") != nullptr) {
        std::FILE* f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr) << "cannot write " << path;
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
        std::fclose(f);
        GTEST_SKIP() << "regenerated " << path << " (" << bytes.size()
                     << " bytes)";
    }

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr) << "missing fixture " << path
                          << " (run with KAGEN_GOLDEN_REGEN=1 to create)";
    std::vector<unsigned char> expect;
    unsigned char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
        expect.insert(expect.end(), buf, buf + got);
    }
    std::fclose(f);

    ASSERT_EQ(bytes.size(), expect.size())
        << c.file << ": edge count moved — the pinned stream changed";
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        ASSERT_EQ(bytes[i], expect[i])
            << c.file << ": first divergence at byte " << i
            << " — the pinned stream is no longer bit-identical";
    }
}

INSTANTIATE_TEST_SUITE_P(PinnedStreams, Golden, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                             std::string name = info.param.file;
                             for (char& ch : name) {
                                 if (!std::isalnum(static_cast<unsigned char>(ch))) {
                                     ch = '_';
                                 }
                             }
                             return name;
                         });

} // namespace
} // namespace kagen
