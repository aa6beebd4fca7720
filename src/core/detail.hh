/**
 * @file
 * Implementation-internal helpers shared by both accelerator models: the
 * HBM request tag codec and the request size limit. Each model defines
 * its own tag-kind enum; the codec packs a kind into the high byte of a
 * request tag and a payload (batch, record or group index) below it. Not
 * part of the public API.
 */

#pragma once

#include <cstdint>
#include <type_traits>

namespace gds::core::detail
{

/** Pack tag kind @p kind (a model's enum) and @p payload into a tag. */
template <typename Tag>
constexpr std::uint64_t
makeTag(Tag kind, std::uint64_t payload)
{
    static_assert(std::is_enum_v<Tag>, "tag kinds are enumerators");
    return (static_cast<std::uint64_t>(kind) << 56) | payload;
}

/** The kind packed into @p tag. */
template <typename Tag>
constexpr Tag
tagKind(std::uint64_t tag)
{
    static_assert(std::is_enum_v<Tag>, "tag kinds are enumerators");
    return static_cast<Tag>(tag >> 56);
}

/** The payload packed into @p tag. */
constexpr std::uint64_t
tagPayload(std::uint64_t tag)
{
    return tag & ((1ULL << 56) - 1);
}

/** Largest single HBM request the prefetchers issue. */
constexpr unsigned maxRequestBytes = 512;

} // namespace gds::core::detail
