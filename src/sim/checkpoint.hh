/**
 * @file
 * Versioned, checksummed checkpoint/restore of mid-run simulator state.
 *
 * Each checkpointed class lists its state once, in a static
 * `fields(self, ar)` visitor; a Serializer (a flat byte buffer) walks
 * that list to save and a Deserializer (the bounds-checked reader; every
 * defect throws a typed CheckpointError) walks the same list to restore.
 * The byte stream is a same-build artifact: values are host-endian
 * memcpy images guarded by a state-version stamp and an identity string,
 * never a portable interchange format — a checkpoint resumes the exact
 * binary that wrote it, which is all preemption tolerance needs. No
 * padding byte is ever copied, so equal state gives equal bytes.
 *
 * CheckpointStore manages the on-disk lifecycle: atomically published
 * files (`<base>.ckpt` via fsync + rename + directory fsync), one-deep
 * rotation to `<base>.ckpt.prev` so a crash mid-write — or a torn file
 * from a lost power event — falls back to the previous good checkpoint,
 * and checksum/version/length validation on load.
 *
 * Layout of one checkpoint file:
 *
 *   magic "GDSCKPT1"            8 bytes
 *   format version              u32 (layout of this envelope)
 *   state  version              u32 (producer's serialization layout)
 *   cycle                       u64 (component-local clock at the snapshot)
 *   identity length + bytes     u32 + n (config hash, graph, algo, kind)
 *   payload  length + bytes     u64 + n (the Serializer buffer)
 *   FNV-1a-64 checksum          u64 (over every preceding byte)
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "sim/component.hh"
#include "stats/stats.hh"

namespace gds::sim
{

/** Section marker in a field list: written on save, verified on restore. */
struct Marker
{
    std::uint32_t tag;
};

/**
 * A container whose length is configuration (one entry per HBM channel,
 * say): the count is written, and restore checks it against the live
 * container instead of resizing it.
 */
template <typename C>
struct FixedCount
{
    C &items;
};

template <typename C>
FixedCount<C>
fixedCount(C &items)
{
    return {items};
}

namespace detail
{

/** True when T is a specialization of the class template Tmpl. */
template <typename T, template <typename...> class Tmpl>
struct IsA : std::false_type
{};
template <template <typename...> class Tmpl, typename... Args>
struct IsA<Tmpl<Args...>, Tmpl> : std::true_type
{};

template <typename T>
constexpr bool kIsSequence =
    IsA<T, std::vector>::value || IsA<T, std::deque>::value;

/** Fewest payload bytes one element of T occupies; bounds restored
 *  counts so a corrupt one cannot size a huge allocation. */
template <typename T>
constexpr std::size_t
minPayloadBytes()
{
    if constexpr (kIsSequence<T>)
        return sizeof(std::uint64_t);
    else if constexpr (std::is_arithmetic_v<T>)
        return std::is_same_v<T, bool> ? 1 : sizeof(T);
    else
        return 1;
}

} // namespace detail

/**
 * The one overload set both archives share. `ar(a, b, ...)` saves each
 * field into a Serializer or restores it from a Deserializer, so a
 * class's static `fields(self, ar)` list is its whole checkpoint layout
 * and save/restore asymmetry cannot be expressed. Covered kinds:
 * child Components (through their virtual hooks), types with their own
 * `fields`, Marker, FixedCount, a stats group, bool, enums, registered
 * pointers, std::pair, std::vector (bool included) and std::deque, and
 * raw scalars. The raw memcpy path accepts only types without padding,
 * so equal state always gives equal bytes; padded structs and structs
 * with float members declare their own `fields`.
 */
template <typename Ar>
class FieldVisitor
{
  public:
    /** Visit each field in order; saving sees every field as const. */
    template <typename... Ts>
    void
    operator()(Ts &&...values)
    {
        if constexpr (Ar::kRestoring)
            (visit(values), ...);
        else
            (visit(std::as_const(values)), ...);
    }

  private:
    Ar &ar() { return static_cast<Ar &>(*this); }

    template <typename T>
    void
    visit(T &v)
    {
        using U = std::remove_const_t<T>;
        constexpr bool restoring = Ar::kRestoring;
        if constexpr (std::is_base_of_v<Component, U>) {
            ar().component(v);
        } else if constexpr (requires { U::fields(v, ar()); }) {
            U::fields(v, ar());
        } else if constexpr (std::is_same_v<U, Marker>) {
            ar().marker(v.tag);
        } else if constexpr (detail::IsA<U, FixedCount>::value) {
            ar().fixedCount(v.items.size());
            for (auto &e : v.items)
                visit(e);
        } else if constexpr (std::is_same_v<U, stats::Group>) {
            ar().statGroup(v);
        } else if constexpr (std::is_same_v<U, bool>) {
            ar().template as<std::uint8_t>(v);
        } else if constexpr (std::is_enum_v<U>) {
            ar().template as<std::underlying_type_t<U>>(v);
        } else if constexpr (std::is_pointer_v<U>) {
            ar().pointer(v);
        } else if constexpr (detail::IsA<U, std::pair>::value) {
            visit(v.first);
            visit(v.second);
        } else if constexpr (std::is_same_v<U, std::vector<bool>>) {
            const std::size_t n = ar().count(v.size(), 1);
            if constexpr (restoring)
                v.assign(n, false);
            for (std::size_t i = 0; i < n; ++i) {
                bool bit = v[i];
                visit(bit);
                if constexpr (restoring)
                    v[i] = bit;
            }
        } else if constexpr (detail::kIsSequence<U>) {
            using E = typename U::value_type;
            const std::size_t n =
                ar().count(v.size(), detail::minPayloadBytes<E>());
            if constexpr (restoring) {
                v.clear();
                v.resize(n);
            }
            if constexpr (std::is_arithmetic_v<E> &&
                          !std::is_same_v<E, bool> &&
                          std::is_same_v<U, std::vector<E>>) {
                ar().bytes(v.data(), n * sizeof(E));
            } else {
                for (auto &e : v)
                    visit(e);
            }
        } else {
            static_assert(std::has_unique_object_representations_v<U> ||
                              std::is_floating_point_v<U>,
                          "padded or float-carrying type: give it a "
                          "static fields(self, ar) list");
            ar().bytes(&v, sizeof v);
        }
    }
};

/** Typed append-only byte buffer that components save their state into. */
class Serializer : public FieldVisitor<Serializer>
{
  public:
    static constexpr bool kRestoring = false;

    Serializer() = default;

    void writeBool(bool v) { writeU8(v ? 1 : 0); }
    void writeU8(std::uint8_t v) { buf.push_back(v); }
    void writeU32(std::uint32_t v) { writeRaw(&v, sizeof v); }
    void writeU64(std::uint64_t v) { writeRaw(&v, sizeof v); }
    void writeDouble(double v) { writeRaw(&v, sizeof v); }

    void
    writeString(const std::string &v)
    {
        writeU64(v.size());
        writeRaw(v.data(), v.size());
    }

    /**
     * Enroll a live object address. Pointers are serialized as the index
     * of their registration; the restore side must registerPointer() the
     * same objects in the same order.
     */
    void
    registerPointer(const void *p)
    {
        gds_assert(p != nullptr, "cannot register a null pointer");
        const auto id = static_cast<std::uint32_t>(ids.size());
        ids.emplace(p, id);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf; }

    static constexpr std::uint32_t kNullPointer = ~std::uint32_t{0};

  private:
    friend class FieldVisitor<Serializer>;

    void
    writeRaw(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf.insert(buf.end(), p, p + n);
    }

    // Primitives of the shared field visitor.
    void bytes(const void *data, std::size_t n) { writeRaw(data, n); }

    std::size_t
    count(std::size_t n, std::size_t)
    {
        writeU64(n);
        return n;
    }

    void fixedCount(std::size_t n) { writeU64(n); }
    void marker(std::uint32_t tag) { writeU32(tag); }
    void component(const Component &c) { c.saveState(*this); }
    void statGroup(const stats::Group &group);

    template <typename U, typename T>
    void
    as(const T &v)
    {
        const U u = static_cast<U>(v);
        writeRaw(&u, sizeof u);
    }

    template <typename T>
    void
    pointer(const T *p)
    {
        if (p == nullptr) {
            writeU32(kNullPointer);
            return;
        }
        const auto it = ids.find(p);
        gds_assert(it != ids.end(),
                   "serialized pointer was never registered");
        writeU32(it->second);
    }

    std::vector<std::uint8_t> buf;
    std::unordered_map<const void *, std::uint32_t> ids;
};

/**
 * Bounds-checked reader over a checkpoint payload. Any underrun, marker
 * mismatch or malformed length throws CheckpointError; restore code can
 * therefore consume the stream without defensive length bookkeeping.
 */
class Deserializer : public FieldVisitor<Deserializer>
{
  public:
    static constexpr bool kRestoring = true;

    Deserializer(const std::uint8_t *payload, std::size_t size)
        : data(payload), len(size)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &payload)
        : Deserializer(payload.data(), payload.size())
    {}

    bool readBool() { return readU8() != 0; }

    std::uint8_t
    readU8()
    {
        need(1);
        return data[pos++];
    }

    std::uint32_t readU32() { return readRawAs<std::uint32_t>(); }
    std::uint64_t readU64() { return readRawAs<std::uint64_t>(); }
    double readDouble() { return readRawAs<double>(); }

    std::string
    readString()
    {
        const std::uint64_t n = readU64();
        need(n);
        std::string s(reinterpret_cast<const char *>(data + pos),
                      static_cast<std::size_t>(n));
        pos += static_cast<std::size_t>(n);
        return s;
    }

    /**
     * Read an element count, bounded by the bytes left: each element
     * occupies at least @p min_bytes of payload, so a corrupt count
     * throws CheckpointError instead of sizing a huge allocation.
     */
    std::size_t
    readCount(std::size_t min_bytes = 1)
    {
        const std::uint64_t n = readU64();
        gds_require(n <= remaining() / min_bytes, CheckpointError,
                    "checkpoint truncated: %llu elements of at least %zu "
                    "bytes exceed the %zu bytes left",
                    static_cast<unsigned long long>(n), min_bytes,
                    remaining());
        return static_cast<std::size_t>(n);
    }

    /** Mirror of Serializer::registerPointer; same objects, same order. */
    void registerPointer(void *p) { ptrs.push_back(p); }

    std::size_t remaining() const { return len - pos; }

    /** Assert the whole payload was consumed (catches layout drift). */
    void
    expectEnd() const
    {
        gds_require(pos == len, CheckpointError,
                    "checkpoint payload has %zu unread trailing bytes",
                    len - pos);
    }

  private:
    friend class FieldVisitor<Deserializer>;

    void
    need(std::uint64_t n)
    {
        gds_require(n <= len - pos, CheckpointError,
                    "checkpoint truncated: need %llu bytes at offset %zu "
                    "of %zu", static_cast<unsigned long long>(n), pos, len);
    }

    template <typename T>
    T
    readRawAs()
    {
        T v;
        bytes(&v, sizeof v);
        return v;
    }

    // Primitives of the shared field visitor.
    void
    bytes(void *out, std::size_t n)
    {
        need(n);
        if (n != 0)
            std::memcpy(out, data + pos, n);
        pos += n;
    }

    std::size_t
    count(std::size_t, std::size_t min_bytes)
    {
        return readCount(min_bytes);
    }

    void
    fixedCount(std::size_t n)
    {
        const std::uint64_t found = readU64();
        gds_require(found == n, CheckpointError,
                    "checkpoint has %llu entries where this configuration "
                    "has %zu", static_cast<unsigned long long>(found), n);
    }

    void
    marker(std::uint32_t tag)
    {
        const std::uint32_t found = readU32();
        gds_require(found == tag, CheckpointError,
                    "checkpoint section marker mismatch "
                    "(found 0x%08x, expected 0x%08x at offset %zu)",
                    found, tag, pos - sizeof(std::uint32_t));
    }

    void component(Component &c) { c.restoreState(*this); }
    void statGroup(stats::Group &group);

    template <typename U, typename T>
    void
    as(T &v)
    {
        v = static_cast<T>(readRawAs<U>());
    }

    template <typename T>
    void
    pointer(T *&p)
    {
        const std::uint32_t id = readU32();
        if (id == Serializer::kNullPointer) {
            p = nullptr;
            return;
        }
        gds_require(id < ptrs.size(), CheckpointError,
                    "checkpoint references unregistered pointer id %u "
                    "(only %zu registered)", id, ptrs.size());
        p = static_cast<T *>(ptrs[id]);
    }

    const std::uint8_t *data;
    std::size_t len;
    std::size_t pos = 0;
    std::vector<void *> ptrs;
};

/** Descriptive header of one checkpoint, verified before restoring. */
struct CheckpointMeta
{
    /** Producer's serialization-layout version (bump on layout change). */
    std::uint32_t stateVersion = 0;
    /** Who this state belongs to: config hash, graph shape, algorithm,
     *  accelerator kind. A resume with a different identity is refused. */
    std::string identity;
    /** Component-local clock at the snapshot (diagnostics only). */
    Cycle cycle = 0;
};

/**
 * On-disk lifecycle of one logical checkpoint: `<dir>/<base>.ckpt` plus a
 * one-deep `.prev` rotation. write() is atomic and durable; loadLatest()
 * validates and falls back, so a torn or corrupt current file costs at
 * most one checkpoint interval of recomputation.
 */
class CheckpointStore
{
  public:
    CheckpointStore(std::string directory, std::string base_name);

    const std::string &currentPath() const { return current; }
    const std::string &previousPath() const { return previous; }

    /**
     * Atomically publish a new checkpoint, rotating any existing current
     * file to `.prev` first. @throws CheckpointError on I/O failure.
     */
    void write(const CheckpointMeta &meta, const Serializer &payload);

    struct Loaded
    {
        CheckpointMeta meta;
        std::vector<std::uint8_t> payload;
        bool usedFallback = false; ///< current was bad; .prev supplied this
    };

    /**
     * Newest valid checkpoint: the current file, else the `.prev`
     * fallback. Corruption is reported through @p reason (never thrown):
     * falling back — or starting clean — is the contract. Missing files
     * are the routine cold-start case and leave @p reason empty.
     */
    std::optional<Loaded> loadLatest(std::string *reason = nullptr) const;

    /** Parse and validate one checkpoint file.
     *  @throws CheckpointError on any defect. */
    static Loaded readFile(const std::string &path);

    /** Delete both files (the run completed; nothing left to resume). */
    void removeAll() const;

  private:
    std::string dir;
    std::string current;
    std::string previous;
};

} // namespace gds::sim
