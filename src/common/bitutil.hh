/**
 * @file
 * Small arithmetic helpers used throughout the memory system and the
 * accelerator models.
 */

#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gds
{

/** Integer ceiling division. */
template <typename T>
constexpr T
ceilDiv(T num, T den)
{
    return (num + den - 1) / den;
}

/** True iff x is a power of two (x > 0). */
constexpr bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** floor(log2(x)) for x > 0. */
constexpr unsigned
log2Floor(std::uint64_t x)
{
    return 63u - static_cast<unsigned>(std::countl_zero(x));
}

/** Round x up to the next multiple of align (align must be a power of 2). */
constexpr std::uint64_t
alignUp(std::uint64_t x, std::uint64_t align)
{
    return (x + align - 1) & ~(align - 1);
}

/** Round x down to a multiple of align (align must be a power of 2). */
constexpr std::uint64_t
alignDown(std::uint64_t x, std::uint64_t align)
{
    return x & ~(align - 1);
}

/**
 * One-bit-per-engine scheduling masks, 64 engines per word: a per-cycle
 * loop visits only set bits, in ascending engine order, so its cost
 * follows the active engines rather than the configured width.
 */
using BitMask = std::vector<std::uint64_t>;

constexpr unsigned kMaskWordBits = 64;

/** A cleared mask for @p bits engines. */
inline BitMask
makeBitMask(std::size_t bits)
{
    return BitMask(ceilDiv<std::size_t>(bits, kMaskWordBits), 0);
}

inline bool
testBit(const BitMask &mask, std::size_t i)
{
    return (mask[i / kMaskWordBits] >> (i % kMaskWordBits)) & 1;
}

inline void
assignBit(BitMask &mask, std::size_t i, bool on)
{
    const std::uint64_t bit = std::uint64_t{1} << (i % kMaskWordBits);
    if (on)
        mask[i / kMaskWordBits] |= bit;
    else
        mask[i / kMaskWordBits] &= ~bit;
}

/** Lowest set bit at or above @p from, or mask.size() * 64 when none. */
inline unsigned
nextSetBit(const BitMask &mask, unsigned from)
{
    const auto none = static_cast<unsigned>(mask.size() * kMaskWordBits);
    std::size_t w = from / kMaskWordBits;
    if (w >= mask.size())
        return none;
    std::uint64_t bits =
        mask[w] & (~std::uint64_t{0} << (from % kMaskWordBits));
    while (bits == 0) {
        if (++w == mask.size())
            return none;
        bits = mask[w];
    }
    return static_cast<unsigned>(w * kMaskWordBits) +
           static_cast<unsigned>(std::countr_zero(bits));
}

inline bool
anyBit(const BitMask &mask)
{
    return std::any_of(mask.begin(), mask.end(),
                       [](std::uint64_t word) { return word != 0; });
}

/**
 * FNV-1a 64-bit hash of a raw byte range. One shared definition for
 * every integrity checksum in the tree: the binary graph format's
 * section checksums, checkpoint payloads, and the provenance
 * configHash (harness::fnv1a delegates here).
 */
inline std::uint64_t
fnv1a64(const void *data, std::size_t size,
        std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    const unsigned char *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace gds
