/**
 * @file
 * Deterministic pseudo-random number generation for graph synthesis and
 * workload construction. Everything in this repository that is "random" is
 * seeded explicitly, so every experiment is exactly reproducible.
 */

#pragma once

#include <array>
#include <cstdint>

namespace gds
{

/** SplitMix64: used to expand a single seed into generator state. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256** 1.0 (Blackman & Vigna). Fast, high-quality, 64-bit output;
 * the workhorse generator for graph synthesis.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
    {
        SplitMix64 sm(seed);
        for (auto &word : s)
            word = sm.next();
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free variant is fine here:
        // tiny modulo bias (< 2^-64 * bound) is irrelevant for synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace gds
