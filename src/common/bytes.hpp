/// \file bytes.hpp
/// \brief Tiny explicit-layout byte serialization used by the mergeable sink
///        summaries (sink/sinks.hpp) and the coordinator protocol
///        (dist/report.hpp, net/protocol.hpp).
///
/// Fixed little-endian encoding rather than raw struct memcpy: the frames
/// cross a process boundary (coordinator ↔ forked rank or TCP worker), so
/// the layout must not depend on padding or host endianness. Decoding is bounds-checked and throws on truncation — a
/// worker that died mid-frame must surface as a clean error, never as a
/// read past the end of the received buffer.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace kagen::bytes {

inline void put_u64(std::vector<u8>& out, u64 value) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<u8>(value >> shift));
    }
}

inline u64 get_u64(const u8*& p, const u8* end) {
    if (end - p < 8) throw std::runtime_error("bytes: truncated u64");
    u64 value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
        value |= static_cast<u64>(*p++) << shift;
    }
    return value;
}

/// A bool travels as the word 0 or 1. Decoding accepts only those two: a
/// frame has one canonical encoding, so "any nonzero word" is an error.
inline bool get_bool(const u8*& p, const u8* end) {
    const u64 value = get_u64(p, end);
    if (value > 1) throw std::runtime_error("bytes: non-canonical bool");
    return value == 1;
}

/// Doubles travel as their IEEE-754 bit pattern in a u64.
inline void put_f64(std::vector<u8>& out, double value) {
    u64 bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    put_u64(out, bits);
}

inline double get_f64(const u8*& p, const u8* end) {
    const u64 bits = get_u64(p, end);
    double value;
    __builtin_memcpy(&value, &bits, sizeof(value));
    return value;
}

inline void put_string(std::vector<u8>& out, const std::string& s) {
    put_u64(out, s.size());
    out.insert(out.end(), s.begin(), s.end());
}

inline std::string get_string(const u8*& p, const u8* end) {
    const u64 size = get_u64(p, end);
    if (static_cast<u64>(end - p) < size) {
        throw std::runtime_error("bytes: truncated string");
    }
    std::string s(reinterpret_cast<const char*>(p), size);
    p += size;
    return s;
}

inline void put_u64_vector(std::vector<u8>& out, const std::vector<u64>& v) {
    put_u64(out, v.size());
    for (const u64 x : v) put_u64(out, x);
}

inline std::vector<u64> get_u64_vector(const u8*& p, const u8* end) {
    const u64 size = get_u64(p, end);
    if (size > static_cast<u64>(end - p) / 8) { // no size*8: it could wrap
        throw std::runtime_error("bytes: truncated u64 vector");
    }
    std::vector<u64> v;
    v.reserve(size);
    for (u64 i = 0; i < size; ++i) v.push_back(get_u64(p, end));
    return v;
}

} // namespace kagen::bytes
