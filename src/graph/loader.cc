#include "graph/loader.hh"

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/bitutil.hh"
#include "common/fsio.hh"
#include "graph/builder.hh"

namespace gds::graph
{

namespace
{

constexpr std::uint32_t binaryMagic = 0x42534447; // "GDSB" little-endian
constexpr std::uint32_t binaryVersionV1 = 1;
constexpr std::uint32_t binaryVersionV2 = 2;
/** Written as 0x01020304; reads back permuted on a foreign-endian host. */
constexpr std::uint32_t endianGuardValue = 0x01020304;
/** Section alignment unit; one x86/arm base page. */
constexpr std::uint32_t formatPageBytes = 4096;

/** On-disk descriptor of one array section (format v2). */
struct SectionDesc
{
    std::uint64_t fileOffset = 0;
    std::uint64_t byteLength = 0;
    std::uint64_t checksum = 0; ///< FNV-1a-64 of the section bytes
};

/**
 * Format v2 header, stored in the first formatPageBytes of the file
 * (remainder zero). All fields little-endian (the endianGuard rejects
 * foreign-endian files before any other field is trusted).
 */
struct HeaderV2
{
    std::uint32_t magic = binaryMagic;
    std::uint32_t version = binaryVersionV2;
    std::uint32_t endianGuard = endianGuardValue;
    std::uint32_t pageBytes = formatPageBytes;
    std::uint64_t numVertices = 0;
    std::uint64_t numEdges = 0;
    std::uint64_t flags = 0; ///< bit 0: weighted
    SectionDesc sections[3]; ///< offsets, neighbors, weights
    std::uint64_t headerChecksum = 0; ///< FNV-1a-64 of bytes [0, 112)
};

static_assert(sizeof(HeaderV2) == 120,
              "v2 header layout is part of the on-disk format");
static_assert(offsetof(HeaderV2, headerChecksum) == 112,
              "headerChecksum must close the hashed prefix");
static_assert(sizeof(HeaderV2) <= formatPageBytes);

constexpr std::uint64_t flagWeighted = 1;

template <typename T>
void
writePod(std::ofstream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

void
writeZeroPad(std::ofstream &os, std::uint64_t current, std::uint64_t target)
{
    static const char zeros[512] = {};
    while (current < target) {
        const std::uint64_t n =
            std::min<std::uint64_t>(sizeof(zeros), target - current);
        os.write(zeros, static_cast<std::streamsize>(n));
        current += n;
    }
}

template <typename T>
std::uint64_t
sectionChecksum(std::span<const T> data)
{
    return fnv1a64(data.data(), data.size_bytes());
}

/** Write format v2 to an already-open stream (shared by both savers). */
void
writeBinaryV2(const Csr &graph, std::ofstream &out)
{
    const auto offsets = graph.offsetArray();
    const auto neighbors = graph.neighborArray();
    const auto weights = graph.weightArray();

    HeaderV2 h;
    h.numVertices = graph.numVertices();
    h.numEdges = graph.numEdges();
    h.flags = graph.hasWeights() ? flagWeighted : 0;

    std::uint64_t cursor = formatPageBytes;
    auto place = [&cursor](SectionDesc &sec, std::uint64_t byte_length,
                           std::uint64_t checksum) {
        sec.fileOffset = cursor;
        sec.byteLength = byte_length;
        sec.checksum = checksum;
        cursor = alignUp(cursor + byte_length, formatPageBytes);
    };
    place(h.sections[0], offsets.size_bytes(), sectionChecksum(offsets));
    place(h.sections[1], neighbors.size_bytes(),
          sectionChecksum(neighbors));
    place(h.sections[2], weights.size_bytes(), sectionChecksum(weights));
    h.headerChecksum = fnv1a64(&h, offsetof(HeaderV2, headerChecksum));

    writePod(out, h);
    writeZeroPad(out, sizeof(HeaderV2), formatPageBytes);
    std::uint64_t written = formatPageBytes;
    auto emit = [&](const SectionDesc &sec, const char *bytes) {
        out.write(bytes, static_cast<std::streamsize>(sec.byteLength));
        written = sec.fileOffset + sec.byteLength;
        // Pad up to the next section's page boundary (the final section
        // ends the file unpadded).
        writeZeroPad(out, written,
                     std::min<std::uint64_t>(cursor,
                                             alignUp(written,
                                                     formatPageBytes)));
    };
    emit(h.sections[0],
         reinterpret_cast<const char *>(offsets.data()));
    emit(h.sections[1],
         reinterpret_cast<const char *>(neighbors.data()));
    out.write(reinterpret_cast<const char *>(weights.data()),
              static_cast<std::streamsize>(weights.size_bytes()));
}

void
writeBinaryFile(const Csr &graph, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot write graph to '%s'", path.c_str());
    writeBinaryV2(graph, out);
    if (!out)
        fatal("write failure on '%s'", path.c_str());
}

/**
 * Binary reads over untrusted v1 files: every length field is checked
 * against the bytes actually remaining in the file before anything is
 * allocated or read, so a truncated or corrupted header raises
 * CorruptInputError instead of a huge allocation or a silent short read.
 */
class BoundedReader
{
  public:
    BoundedReader(std::ifstream &stream, const std::string &file_path)
        : is(stream), path(file_path)
    {
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (ec)
            throw CorruptInputError(path, 0, "cannot determine file size");
        remaining = static_cast<std::uint64_t>(size);
    }

    template <typename T>
    T
    readPod(const char *what)
    {
        T value{};
        need(sizeof(T), what);
        is.read(reinterpret_cast<char *>(&value), sizeof(T));
        check(what);
        remaining -= sizeof(T);
        return value;
    }

    template <typename T>
    std::vector<T>
    readVec(const char *what)
    {
        const auto n = readPod<std::uint64_t>(what);
        if (n > remaining / sizeof(T)) {
            throw CorruptInputError(
                path, 0,
                gds::detail::vformat(
                    "%s length %llu exceeds the remaining %llu bytes", what,
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(remaining)));
        }
        std::vector<T> v(n);
        is.read(reinterpret_cast<char *>(v.data()),
                static_cast<std::streamsize>(n * sizeof(T)));
        check(what);
        remaining -= n * sizeof(T);
        return v;
    }

  private:
    void
    need(std::uint64_t bytes, const char *what)
    {
        if (bytes > remaining) {
            throw CorruptInputError(
                path, 0,
                gds::detail::vformat("truncated while reading %s", what));
        }
    }

    void
    check(const char *what)
    {
        if (!is) {
            throw CorruptInputError(
                path, 0,
                gds::detail::vformat("read failure on %s", what));
        }
    }

    std::ifstream &is;
    const std::string &path;
    std::uint64_t remaining = 0;
};

/** Legacy v1 body: three length-prefixed arrays after magic+version. */
Csr
loadBinaryV1(std::ifstream &in, const std::string &path)
{
    BoundedReader reader(in, path);
    (void)reader.readPod<std::uint32_t>("magic");
    (void)reader.readPod<std::uint32_t>("version");
    auto offsets = reader.readVec<EdgeId>("offset array");
    auto neighbors = reader.readVec<VertexId>("neighbor array");
    auto weights = reader.readVec<Weight>("weight array");

    // Pre-validate so corrupted contents surface as a typed error rather
    // than tripping the Csr constructor's internal invariants.
    const Status valid = Csr::validateArrays(offsets, neighbors, weights);
    if (!valid.ok())
        throw CorruptInputError(path, 0, valid.message());
    return Csr(std::move(offsets), std::move(neighbors),
               std::move(weights));
}

/** Parsed, bounds-checked v2 sections as typed views into a mapping. */
struct ParsedV2
{
    std::span<const EdgeId> offsets;
    std::span<const VertexId> neighbors;
    std::span<const Weight> weights;
};

/**
 * Validate the v2 header against the live mapping and return typed
 * section views. @p verify_checksums additionally re-hashes every
 * section (touching all pages).
 */
ParsedV2
parseV2(const common::MappedFile &file, bool verify_checksums)
{
    const std::string &path = file.path();
    const auto header_view = file.viewAt<HeaderV2>(0, 1);
    const HeaderV2 &h = header_view.front();

    gds_require(h.magic == binaryMagic, CorruptInputError,
                "%s: not a GDSB graph file", path.c_str());
    gds_require(h.endianGuard == endianGuardValue, CorruptInputError,
                "%s: wrong endianness (guard reads 0x%08x, expected "
                "0x%08x): the binary cache is not portable across "
                "byte orders",
                path.c_str(), h.endianGuard, endianGuardValue);
    gds_require(h.version == binaryVersionV2, CorruptInputError,
                "%s: unsupported GDSB version %u", path.c_str(),
                h.version);
    gds_require(h.pageBytes == formatPageBytes, CorruptInputError,
                "%s: unsupported section alignment %u", path.c_str(),
                h.pageBytes);
    const std::uint64_t expected_header =
        fnv1a64(&h, offsetof(HeaderV2, headerChecksum));
    gds_require(h.headerChecksum == expected_header, CorruptInputError,
                "%s: header checksum mismatch (stored %016llx, computed "
                "%016llx)",
                path.c_str(),
                static_cast<unsigned long long>(h.headerChecksum),
                static_cast<unsigned long long>(expected_header));

    gds_require(h.numVertices < invalidVertex, CorruptInputError,
                "%s: vertex count %llu overflows 32-bit ids",
                path.c_str(),
                static_cast<unsigned long long>(h.numVertices));
    const std::uint64_t v_count = h.numVertices;
    const std::uint64_t e_count = h.numEdges;
    gds_require(h.sections[0].byteLength ==
                    (v_count + 1) * sizeof(EdgeId),
                CorruptInputError,
                "%s: offset section length %llu does not match V=%llu",
                path.c_str(),
                static_cast<unsigned long long>(
                    h.sections[0].byteLength),
                static_cast<unsigned long long>(v_count));
    gds_require(h.sections[1].byteLength == e_count * sizeof(VertexId),
                CorruptInputError,
                "%s: neighbor section length %llu does not match E=%llu",
                path.c_str(),
                static_cast<unsigned long long>(
                    h.sections[1].byteLength),
                static_cast<unsigned long long>(e_count));
    const bool weighted = (h.flags & flagWeighted) != 0;
    gds_require(h.sections[2].byteLength ==
                    (weighted ? e_count * sizeof(Weight) : 0),
                CorruptInputError,
                "%s: weight section length %llu inconsistent with "
                "weighted flag %d",
                path.c_str(),
                static_cast<unsigned long long>(
                    h.sections[2].byteLength),
                weighted ? 1 : 0);

    // viewAt bounds-checks each section against the mapping, so a file
    // truncated below what its header promises ("short map") raises
    // CorruptInputError here instead of SIGBUS on first access.
    ParsedV2 parsed;
    parsed.offsets = file.viewAt<EdgeId>(h.sections[0].fileOffset,
                                         v_count + 1);
    parsed.neighbors = file.viewAt<VertexId>(h.sections[1].fileOffset,
                                             e_count);
    parsed.weights = file.viewAt<Weight>(h.sections[2].fileOffset,
                                         weighted ? e_count : 0);

    if (verify_checksums) {
        const char *names[3] = {"offset", "neighbor", "weight"};
        const std::uint64_t computed[3] = {
            sectionChecksum(parsed.offsets),
            sectionChecksum(parsed.neighbors),
            sectionChecksum(parsed.weights),
        };
        for (int i = 0; i < 3; ++i) {
            gds_require(computed[i] == h.sections[i].checksum,
                        CorruptInputError,
                        "%s: %s section checksum mismatch (stored "
                        "%016llx, computed %016llx)",
                        path.c_str(), names[i],
                        static_cast<unsigned long long>(
                            h.sections[i].checksum),
                        static_cast<unsigned long long>(computed[i]));
        }
    }
    return parsed;
}

/** Magic+version sniff shared by both loaders. 0 on a too-short file. */
std::uint32_t
sniffVersion(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw ConfigError("cannot open graph '" + path + "'");
    std::uint32_t magic_and_version[2] = {0, 0};
    in.read(reinterpret_cast<char *>(magic_and_version),
            sizeof(magic_and_version));
    if (!in)
        throw CorruptInputError(path, 0,
                                "truncated while reading magic/version");
    if (magic_and_version[0] != binaryMagic)
        throw CorruptInputError(path, 0, "not a GDSB graph file");
    return magic_and_version[1];
}

} // namespace

Csr
loadEdgeList(const std::string &path, VertexId num_vertices, bool weighted)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open edge list '" + path + "'");

    std::vector<CooEdge> edges;
    VertexId max_vertex = 0;
    std::string line;
    std::uint64_t line_number = 0;
    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty() || line[0] == '#' || line[0] == '%')
            continue;
        std::istringstream iss(line);
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        std::uint64_t w = 1;
        if (!(iss >> src >> dst)) {
            throw CorruptInputError(path, line_number,
                                    "malformed edge-list line '" + line +
                                        "'");
        }
        if (weighted && !(iss >> w)) {
            throw CorruptInputError(path, line_number,
                                    "missing weight in '" + line + "'");
        }
        if (src >= invalidVertex || dst >= invalidVertex) {
            throw CorruptInputError(path, line_number,
                                    "vertex id overflows 32 bits in '" +
                                        line + "'");
        }
        edges.push_back(CooEdge{static_cast<VertexId>(src),
                                static_cast<VertexId>(dst),
                                static_cast<Weight>(w)});
        max_vertex = std::max({max_vertex, static_cast<VertexId>(src),
                               static_cast<VertexId>(dst)});
    }

    if (num_vertices == 0)
        num_vertices = edges.empty() ? 0 : max_vertex + 1;
    if (!edges.empty() && max_vertex >= num_vertices) {
        throw CorruptInputError(
            path, 0,
            gds::detail::vformat("endpoint %u out of range (V=%u)",
                                 max_vertex, num_vertices));
    }

    BuildOptions opts;
    opts.keepWeights = weighted;
    return buildCsr(num_vertices, std::move(edges), opts);
}

void
saveBinaryAtomic(const Csr &graph, const std::string &path)
{
    const std::string tmp_file =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    writeBinaryFile(graph, tmp_file);
    // Durable publish (fsync + rename + parent-dir fsync): a power loss
    // can otherwise leave a zero-length file under the final name, which
    // every later run would have to detect and regenerate.
    if (!durableRename(tmp_file, path)) {
        std::error_code ec;
        std::filesystem::remove(tmp_file, ec);
    }
}

Csr
loadBinary(const std::string &path)
{
    const std::uint32_t version = sniffVersion(path);
    if (version == binaryVersionV1) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            throw ConfigError("cannot open graph '" + path + "'");
        return loadBinaryV1(in, path);
    }
    if (version != binaryVersionV2) {
        throw CorruptInputError(
            path, 0,
            gds::detail::vformat("unsupported GDSB version %u", version));
    }
    // v2 heap path: map, verify everything, copy into owned vectors. The
    // mapping is released on return; only the heap copies survive.
    const auto file = common::MappedFile::open(path);
    file->adviseSequential(0, file->size());
    const ParsedV2 parsed = parseV2(*file, /*verify_checksums=*/true);
    std::vector<EdgeId> offsets(parsed.offsets.begin(),
                                parsed.offsets.end());
    std::vector<VertexId> neighbors(parsed.neighbors.begin(),
                                    parsed.neighbors.end());
    std::vector<Weight> weights(parsed.weights.begin(),
                                parsed.weights.end());
    const Status valid = Csr::validateArrays(offsets, neighbors, weights);
    if (!valid.ok())
        throw CorruptInputError(path, 0, valid.message());
    return Csr(std::move(offsets), std::move(neighbors),
               std::move(weights));
}

Csr
loadBinaryMapped(const std::string &path, const MapOptions &opts)
{
    const std::uint32_t version = sniffVersion(path);
    if (version == binaryVersionV1) {
        // v1 sections are neither aligned nor checksummed; serve the
        // legacy file through the heap loader instead.
        return loadBinary(path);
    }
    if (version != binaryVersionV2) {
        throw CorruptInputError(
            path, 0,
            gds::detail::vformat("unsupported GDSB version %u", version));
    }
    auto file = common::MappedFile::open(path);
    const ParsedV2 parsed = parseV2(*file, opts.verify);
    // The offset array is walked by every engine's per-vertex loop;
    // neighbours stream sequentially during traversal.
    file->adviseWillNeed(0, formatPageBytes +
                                parsed.offsets.size_bytes());
    file->adviseSequential(0, file->size());
    return Csr::fromMapping(parsed.offsets, parsed.neighbors,
                            parsed.weights, std::move(file),
                            /*deep_validate=*/opts.verify);
}

} // namespace gds::graph
