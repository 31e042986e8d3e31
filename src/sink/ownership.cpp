#include "sink/ownership.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace kagen {

bool parse_semantics(const std::string& name, EdgeSemantics* out) {
    if (name == semantics_name(EdgeSemantics::as_generated)) {
        *out = EdgeSemantics::as_generated;
        return true;
    }
    if (name == semantics_name(EdgeSemantics::exact_once)) {
        *out = EdgeSemantics::exact_once;
        return true;
    }
    return false;
}

bool owns_vertex(const IdIntervals& intervals, VertexId id) {
    // One interval is the common case (every model but RHG); the binary
    // search below degenerates to a two-compare check there.
    auto it = std::upper_bound(
        intervals.begin(), intervals.end(), id,
        [](VertexId v, const IdInterval& iv) { return v < iv.lo; });
    if (it == intervals.begin()) return false;
    --it;
    return id < it->hi;
}

void OwnershipFilterSink::finish() {
    flush();
    target_.flush();
    static obs::Counter& dropped = obs::Registry::global().counter("ownership.dropped");
    dropped.add(num_filtered_);
}

void OwnershipFilterSink::consume(const Edge* edges, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        const VertexId lower = std::min(edges[i].first, edges[i].second);
        if (owns_vertex(owned_, lower)) {
            target_.emit(edges[i].first, edges[i].second);
        } else {
            ++num_filtered_;
        }
    }
}

} // namespace kagen
