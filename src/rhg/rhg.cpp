#include "rhg/rhg.hpp"

#include <algorithm>
#include <numbers>

#include "obs/metrics.hpp"

namespace kagen::rhg {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

} // namespace

u32 first_streaming_annulus(const hyp::HypGrid& grid) {
    const auto& space  = grid.space();
    const double limit = grid.chunk_width() / 2.0; // requests must fit a chunk
    for (u32 a = 0; a < grid.num_annuli(); ++a) {
        const hyp::RadialTerms& lower = grid.annulus_lower_terms(a);
        if (space.delta_theta(lower, lower) <= limit) {
            return a;
        }
    }
    return grid.num_annuli(); // everything global
}

void generate_inmemory(const hyp::Params& params, u64 rank, u64 size, EdgeSink& sink,
                       EdgeSemantics semantics) {
    const hyp::HypGrid grid(params, size);
    const bool exact_once = semantics == EdgeSemantics::exact_once;
    const auto& space    = grid.space();
    const u32 annuli     = grid.num_annuli();
    const auto chunks    = static_cast<i64>(grid.num_chunks());
    const double c_width = grid.chunk_width();

    // The chunk's vertices of every annulus, sorted by angle: annulus a's
    // are local[first[a], first[a + 1]).
    std::vector<hyp::HypPoint> local;
    std::vector<std::size_t> first{0};
    for (u32 a = 0; a < annuli; ++a) {
        const auto pts = grid.chunk_points(a, rank);
        local.insert(local.end(), pts.begin(), pts.end());
        first.push_back(local.size());
    }

    u64 queries    = 0;
    u64 candidates = 0;
    u64 recomputed = 0;
    EdgeList edges;
    std::vector<double> widths(annuli); // w(a, j) of the current target j
    std::vector<hyp::HypPoint> pts;     // target annulus' span, sorted by angle
    std::vector<double> keys;           // pts' angles, unwrapped past 0/2π
    for (u32 j = 0; j < annuli; ++j) {
        // Ids are annulus-major, so a target annulus j < a holds only ids
        // lower than any of annulus a's, and exact_once would skip them all:
        // it queries from the source annuli a <= j only.
        const u32 sources = exact_once ? j + 1 : annuli;

        // One window per (source a, target j), the Lemma-10 overestimate
        // from both lower boundaries (§7.1): θmax(r, b) does not increase
        // with r, so every vertex of annulus a, at r >= its lower boundary,
        // finds its neighbours in j inside w(a, j). Each window contains its
        // vertex's angle, which lies in the local chunk, so the span is the
        // union of the first and last vertex's windows of every source
        // annulus plus at most the local chunk.
        double lo  = kTwoPi;
        double hi  = 0.0;
        bool whole = false;
        u64 here   = 0; // this target's queries
        for (u32 a = 0; a < sources; ++a) {
            if (first[a] == first[a + 1]) continue;
            widths[a] = space.delta_theta(grid.annulus_lower_terms(a),
                                          grid.annulus_lower_terms(j));
            whole     = whole || widths[a] >= std::numbers::pi;
            lo        = std::min(lo, local[first[a]].theta - widths[a]);
            hi        = std::max(hi, local[first[a + 1] - 1].theta + widths[a]);
            here += first[a + 1] - first[a];
        }
        if (here == 0) continue;
        queries += here;
        auto c_lo = static_cast<i64>(std::floor(lo / c_width));
        auto c_hi = static_cast<i64>(std::floor(hi / c_width));
        if (whole || c_hi - c_lo + 1 >= chunks) {
            whole = true;
            c_lo  = 0;
            c_hi  = chunks - 1;
        }

        // Materialize the span once, recomputing its non-local chunks
        // (§7.1). Chunks past 0/2π keep their points' angles shifted by
        // ∓2π, so the span's keys ascend and every window is one range.
        pts.clear();
        keys.clear();
        for (i64 c = c_lo; c <= c_hi; ++c) {
            const auto chunk   = static_cast<u64>((c + chunks) % chunks);
            const double shift = c < 0 ? -kTwoPi : (c >= chunks ? kTwoPi : 0.0);
            const std::size_t begin = pts.size();
            if (chunk == rank) {
                pts.insert(pts.end(), local.begin() + static_cast<i64>(first[j]),
                           local.begin() + static_cast<i64>(first[j + 1]));
            } else {
                const auto cp = grid.chunk_points(j, chunk);
                pts.insert(pts.end(), cp.begin(), cp.end());
                recomputed += cp.size();
            }
            for (std::size_t q = begin; q < pts.size(); ++q) {
                keys.push_back(pts[q].theta + shift);
            }
        }

        // Each local pair would be found from both endpoints; the query of
        // its lower id emits it. Cross-chunk pairs are found from the local
        // endpoint only — both rely on every window containing the
        // vertex's neighbours in that annulus. Under exact_once the chunk
        // owning the lower id keeps a cross-chunk pair too, so every query
        // skips the lower ids.
        const auto [own_lo, own_hi] = grid.chunk_id_range(j, rank);
        const auto scan = [&](const hyp::HypPoint& v, std::size_t q, double to) {
            for (; q < keys.size() && keys[q] <= to; ++q) {
                const hyp::HypPoint& u = pts[q];
                if (u.id <= v.id && (exact_once || (u.id >= own_lo && u.id < own_hi))) {
                    continue;
                }
                ++candidates;
                if (space.edge(u, v)) {
                    edges.emplace_back(std::min(u.id, v.id), std::max(u.id, v.id));
                }
            }
        };
        for (u32 a = 0; a < sources; ++a) {
            const double w = widths[a];
            // The window is fixed and the vertices ascend by angle, so
            // window starts do not decrease: one cursor that only moves
            // forward stops where lower_bound would.
            std::size_t cursor = 0;
            for (std::size_t i = first[a]; i < first[a + 1]; ++i) {
                const hyp::HypPoint& v = local[i];
                double from            = v.theta - w;
                double to              = v.theta + w;
                if (whole) { // keys are the plain angles in [0, 2π)
                    if (w >= std::numbers::pi) {
                        from = 0.0;
                        to   = kTwoPi;
                    } else if (from < 0.0) {
                        const auto wrap = std::lower_bound(keys.begin(), keys.end(),
                                                           from + kTwoPi);
                        scan(v, static_cast<std::size_t>(wrap - keys.begin()), kTwoPi);
                        from = 0.0;
                    } else if (to > kTwoPi) {
                        scan(v, 0, to - kTwoPi);
                        to = kTwoPi;
                    }
                }
                while (cursor < keys.size() && keys[cursor] < from) ++cursor;
                scan(v, cursor, to);
            }
        }
    }

    // Per chunk, never per edge: the queries made (one per local vertex
    // and target annulus it queries), the Lemma-10 overestimation from
    // both lower boundaries as rhg.candidates / emitted edges of an
    // as_generated run (exact_once skips the lower-id candidates before
    // counting them), and the §7.1 recompute volume rhg.points_recomputed.
    static obs::Counter& queries_ctr = obs::Registry::global().counter("rhg.queries");
    static obs::Counter& candidates_ctr =
        obs::Registry::global().counter("rhg.candidates");
    static obs::Counter& recomputed_ctr =
        obs::Registry::global().counter("rhg.points_recomputed");
    queries_ctr.add(queries);
    candidates_ctr.add(candidates);
    recomputed_ctr.add(recomputed);

    // Sorted per chunk, as the output format wants; no pair was found
    // twice, so unique only guards that invariant.
    sort_unique(edges);
    for (const auto& [u, v] : edges) sink.emit(u, v);
    sink.flush();
}

void generate_streaming(const hyp::Params& params, u64 rank, u64 size, EdgeSink& sink) {
    const hyp::HypGrid grid(params, size);
    const auto& space    = grid.space();
    const u32 stream_lo  = first_streaming_annulus(grid);
    const u32 num_annuli = grid.num_annuli();
    EdgeList edges;

    // ---- Global phase (§7.2): vertices of the global annuli are
    // recomputed on every PE; request execution is distributed.
    std::vector<hyp::HypPoint> global_pts;
    for (u32 a = 0; a < stream_lo; ++a) {
        for (u64 c = 0; c < grid.num_chunks(); ++c) {
            const auto pts = grid.chunk_points(a, c);
            global_pts.insert(global_pts.end(), pts.begin(), pts.end());
        }
    }
    std::vector<hyp::RadialTerms> global_terms;
    global_terms.reserve(global_pts.size());
    for (const auto& v : global_pts) global_terms.push_back(hyp::RadialTerms::of(v.r));
    // Global-global pairs, each executed by the PE owning the lower-id
    // endpoint's angular position (even distribution, no duplication).
    for (std::size_t i = 0; i < global_pts.size(); ++i) {
        for (std::size_t j = i + 1; j < global_pts.size(); ++j) {
            const auto& u = global_pts[i];
            const auto& v = global_pts[j];
            const auto& low = u.id < v.id ? u : v;
            if (grid.chunk_of_angle(low.theta) != rank) continue;
            if (space.edge(u, v)) {
                edges.emplace_back(std::min(u.id, v.id), std::max(u.id, v.id));
            }
        }
    }

    // The streaming target chunks this PE owns or must replicate for the
    // endgame: its own chunk plus the two adjacent ones (§7.2 final phase).
    std::vector<u64> target_chunks{rank};
    if (size > 1) {
        target_chunks.push_back((rank + 1) % size);
        target_chunks.push_back((rank + size - 1) % size);
        std::sort(target_chunks.begin(), target_chunks.end());
        target_chunks.erase(std::unique(target_chunks.begin(), target_chunks.end()),
                            target_chunks.end());
    }

    // A request: angular interval plus the (precomputed) source point.
    struct Request {
        double begin;
        double end;
        u32 annulus;         // source annulus
        hyp::HypPoint src;
    };

    // Local chunk points per annulus, generated once, with cosh/sinh of
    // their radii for the request windows.
    std::vector<std::vector<hyp::HypPoint>> local_pts(num_annuli);
    std::vector<std::vector<hyp::RadialTerms>> local_terms(num_annuli);
    for (u32 a = stream_lo; a < num_annuli; ++a) {
        local_pts[a] = grid.chunk_points(a, rank);
        for (const auto& v : local_pts[a]) {
            local_terms[a].push_back(hyp::RadialTerms::of(v.r));
        }
    }

    for (u32 j = stream_lo; j < num_annuli; ++j) {
        // Local points of annulus j (sweep targets) plus replicated
        // neighbours; sorted by angle.
        std::vector<hyp::HypPoint> targets;
        for (const u64 c : target_chunks) {
            if (c == rank) {
                targets.insert(targets.end(), local_pts[j].begin(), local_pts[j].end());
            } else {
                const auto pts = grid.chunk_points(j, c);
                targets.insert(targets.end(), pts.begin(), pts.end());
            }
        }
        std::sort(targets.begin(), targets.end(),
                  [](const auto& a, const auto& b) { return a.theta < b.theta; });
        if (targets.empty()) continue;

        // Requests of local sources from annuli stream_lo..j; a request into
        // annulus j has width delta_theta(r_src, lower_j) <= half a chunk.
        const hyp::RadialTerms& lower = grid.annulus_lower_terms(j);
        std::vector<Request> requests;
        for (u32 i = stream_lo; i <= j; ++i) {
            for (std::size_t q = 0; q < local_pts[i].size(); ++q) {
                const auto& v  = local_pts[i][q];
                const double w = space.delta_theta(local_terms[i][q], lower);
                requests.push_back({v.theta - w, v.theta + w, i, v});
            }
        }
        // Global requests clipped to this PE: match all global sources
        // against local targets (their executions are distributed by
        // target ownership).
        for (std::size_t q = 0; q < global_pts.size(); ++q) {
            const auto& v  = global_pts[q];
            const double w = space.delta_theta(global_terms[q], lower);
            for (const auto& u : local_pts[j]) {
                double d = std::fabs(u.theta - v.theta);
                d        = std::min(d, kTwoPi - d);
                if (d <= w && space.edge(u, v)) {
                    edges.emplace_back(std::min(u.id, v.id), std::max(u.id, v.id));
                }
            }
        }

        // Unwrap: duplicate requests crossing 0/2π so every target angle in
        // [0, 2π) is covered by begin <= θ <= end on the real line.
        const std::size_t base = requests.size();
        for (std::size_t q = 0; q < base; ++q) {
            if (requests[q].begin < 0.0) {
                Request r = requests[q];
                r.begin += kTwoPi;
                r.end += kTwoPi;
                requests.push_back(r);
            } else if (requests[q].end > kTwoPi) {
                Request r = requests[q];
                r.begin -= kTwoPi;
                r.end -= kTwoPi;
                requests.push_back(r);
            }
        }
        std::sort(requests.begin(), requests.end(),
                  [](const Request& a, const Request& b) { return a.begin < b.begin; });

        // Angular sweep: advance over targets, activating requests whose
        // begin has passed and evicting (overwriting) expired ones (§7.2.1).
        std::vector<Request> active;
        std::size_t next = 0;
        for (const auto& u : targets) {
            while (next < requests.size() && requests[next].begin <= u.theta) {
                active.push_back(requests[next++]);
            }
            for (std::size_t q = 0; q < active.size();) {
                if (active[q].end < u.theta) {
                    active[q] = active.back();
                    active.pop_back();
                    continue;
                }
                const auto& v = active[q].src;
                // Same-annulus pairs are emitted once, from the lower id.
                const bool ordered = active[q].annulus < j || v.id < u.id;
                if (ordered && v.id != u.id && space.edge(u, v)) {
                    edges.emplace_back(std::min(u.id, v.id), std::max(u.id, v.id));
                }
                ++q;
            }
        }
    }
    sort_unique(edges);
    for (const auto& [u, v] : edges) sink.emit(u, v);
    sink.flush();
}

EdgeList brute_force(const hyp::Params& params, u64 size) {
    const hyp::HypGrid grid(params, size);
    const auto& space = grid.space();
    const auto pts    = grid.all_points();
    EdgeList edges;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        for (std::size_t j = i + 1; j < pts.size(); ++j) {
            if (space.edge(pts[i], pts[j])) {
                edges.emplace_back(std::min(pts[i].id, pts[j].id),
                                   std::max(pts[i].id, pts[j].id));
            }
        }
    }
    sort_unique(edges);
    return edges;
}

} // namespace kagen::rhg
