/**
 * @file
 * Tests of the zero-copy dataset memory layer: the binary CSR format v2
 * (page-aligned sections, endian guard, FNV-1a-64 checksums, v1
 * fallback), common::MappedFile hardening (short maps raise typed
 * errors, never SIGBUS), the deterministic parallel graph build and
 * chunked generators (byte-identical at every job count), heap- vs
 * mmap-backed simulation bit-identity, and the DatasetPool storage
 * gauges.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/reference_engine.hh"
#include "common/error.hh"
#include "common/mapped_file.hh"
#include "common/rng.hh"
#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/loader.hh"
#include "harness/dataset_pool.hh"
#include "span_eq.hh"

namespace gds
{
namespace
{

namespace fs = std::filesystem;

/** Self-deleting temp path (the test writes the file itself). */
class ScratchFile
{
  public:
    explicit ScratchFile(const std::string &name)
        : _path((fs::temp_directory_path() /
                 ("gds_dsl_" + name + "_" + std::to_string(::getpid())))
                    .string())
    {}

    ~ScratchFile()
    {
        std::error_code ec;
        fs::remove(_path, ec);
    }

    const std::string &path() const { return _path; }

  private:
    std::string _path;
};

/** A small deterministic graph with interesting degree skew. */
graph::Csr
sampleGraph(bool weighted = true)
{
    return graph::powerLaw(400, 3000, 0.6, /*seed=*/7, weighted);
}

/** Flip one byte of the file at @p offset. */
void
flipByte(const std::string &path, std::uint64_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
}

/** Truncate the file to @p keep_bytes. */
void
truncateTo(const std::string &path, std::uint64_t keep_bytes)
{
    fs::resize_file(path, keep_bytes);
}

template <typename T>
void
writePod(std::ofstream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
void
writeVec(std::ofstream &os, const std::vector<T> &v)
{
    writePod<std::uint64_t>(os, v.size());
    os.write(reinterpret_cast<const char *>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/** Write a legacy v1 GDSB file (length-prefixed arrays, no checksums). */
void
writeV1(const std::string &path, const std::vector<EdgeId> &offsets,
        const std::vector<VertexId> &neighbors,
        const std::vector<Weight> &weights)
{
    std::ofstream out(path, std::ios::binary);
    writePod<std::uint32_t>(out, 0x42534447); // "GDSB"
    writePod<std::uint32_t>(out, 1);
    writeVec(out, offsets);
    writeVec(out, neighbors);
    writeVec(out, weights);
}

// ---------------------------------------------------------------------
// common::MappedFile.
// ---------------------------------------------------------------------

TEST(MappedFile, MapsWholeFileAndServesTypedViews)
{
    const ScratchFile file("mapbasic");
    const std::vector<std::uint64_t> values = {1, 2, 3, 4, 5};
    {
        std::ofstream out(file.path(), std::ios::binary);
        out.write(reinterpret_cast<const char *>(values.data()),
                  static_cast<std::streamsize>(values.size() * 8));
    }
    const auto map = common::MappedFile::open(file.path());
    EXPECT_EQ(map->size(), values.size() * 8);
    const auto view = map->viewAt<std::uint64_t>(8, 3);
    ASSERT_EQ(view.size(), 3u);
    EXPECT_EQ(view[0], 2u);
    EXPECT_EQ(view[2], 4u);
    // Advice is best-effort; it must at least not throw on valid ranges.
    map->adviseWillNeed(0, map->size());
    map->adviseSequential(0, map->size());
}

TEST(MappedFile, ViewBeyondMappingIsCorruptInput)
{
    const ScratchFile file("mapshort");
    {
        std::ofstream out(file.path(), std::ios::binary);
        const std::uint64_t v = 42;
        writePod(out, v);
    }
    const auto map = common::MappedFile::open(file.path());
    EXPECT_THROW((void)map->viewAt<std::uint64_t>(0, 2),
                 CorruptInputError);
    EXPECT_THROW((void)map->viewAt<std::uint64_t>(8, 1),
                 CorruptInputError);
}

TEST(MappedFile, MissingFileIsConfigError)
{
    EXPECT_THROW((void)common::MappedFile::open("/nonexistent/f.bin"),
                 ConfigError);
}

// ---------------------------------------------------------------------
// Format v2 round trips.
// ---------------------------------------------------------------------

TEST(FormatV2, MappedRoundTripIsZeroCopy)
{
    const ScratchFile file("v2map");
    const graph::Csr g = sampleGraph();
    graph::saveBinaryAtomic(g, file.path());

    const graph::Csr mapped = graph::loadBinaryMapped(file.path());
    EXPECT_TRUE(mapped.isMapped());
    EXPECT_GT(mapped.mappedBytes(), 0u);
    EXPECT_EQ(mapped.heapBytes(), 0u);
    EXPECT_SPAN_EQ(mapped.offsetArray(), g.offsetArray());
    EXPECT_SPAN_EQ(mapped.neighborArray(), g.neighborArray());
    EXPECT_SPAN_EQ(mapped.weightArray(), g.weightArray());
}

TEST(FormatV2, MappedRoundTripWithFullVerification)
{
    const ScratchFile file("v2verify");
    const graph::Csr g = sampleGraph(false);
    graph::saveBinaryAtomic(g, file.path());
    const graph::Csr mapped =
        graph::loadBinaryMapped(file.path(), {.verify = true});
    EXPECT_TRUE(mapped.isMapped());
    EXPECT_SPAN_EQ(mapped.neighborArray(), g.neighborArray());
    EXPECT_TRUE(mapped.weightArray().empty());
}

TEST(FormatV2, HeapRoundTripMatchesMapped)
{
    const ScratchFile file("v2heap");
    const graph::Csr g = sampleGraph();
    graph::saveBinaryAtomic(g, file.path());
    const graph::Csr heap = graph::loadBinary(file.path());
    EXPECT_FALSE(heap.isMapped());
    EXPECT_GT(heap.heapBytes(), 0u);
    EXPECT_EQ(heap.mappedBytes(), 0u);
    const graph::Csr mapped = graph::loadBinaryMapped(file.path());
    EXPECT_SPAN_EQ(heap.offsetArray(), mapped.offsetArray());
    EXPECT_SPAN_EQ(heap.neighborArray(), mapped.neighborArray());
    EXPECT_SPAN_EQ(heap.weightArray(), mapped.weightArray());
}

TEST(FormatV2, EmptyGraphRoundTrips)
{
    const ScratchFile file("v2empty");
    const graph::Csr g = graph::buildCsr(3, {});
    graph::saveBinaryAtomic(g, file.path());
    const graph::Csr mapped = graph::loadBinaryMapped(file.path());
    EXPECT_EQ(mapped.numVertices(), 3u);
    EXPECT_EQ(mapped.numEdges(), 0u);
}

// ---------------------------------------------------------------------
// Format v2 hardening: every corruption is a typed error.
// ---------------------------------------------------------------------

TEST(FormatV2, RejectsBadMagic)
{
    const ScratchFile file("v2magic");
    graph::saveBinaryAtomic(sampleGraph(), file.path());
    flipByte(file.path(), 0); // first magic byte
    EXPECT_THROW((void)graph::loadBinary(file.path()),
                 CorruptInputError);
    EXPECT_THROW((void)graph::loadBinaryMapped(file.path()),
                 CorruptInputError);
}

TEST(FormatV2, RejectsWrongEndianGuard)
{
    const ScratchFile file("v2endian");
    graph::saveBinaryAtomic(sampleGraph(), file.path());
    // Corrupt the endian guard at header offset 8 — the header a
    // big-endian writer would have produced.
    flipByte(file.path(), 8);
    try {
        (void)graph::loadBinaryMapped(file.path());
        FAIL() << "wrong-endian file must be rejected";
    } catch (const CorruptInputError &e) {
        EXPECT_NE(std::string(e.what()).find("endian"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FormatV2, RejectsHeaderBitFlip)
{
    const ScratchFile file("v2hdrflip");
    graph::saveBinaryAtomic(sampleGraph(), file.path());
    flipByte(file.path(), 24); // inside numVertices
    EXPECT_THROW((void)graph::loadBinaryMapped(file.path()),
                 CorruptInputError);
}

TEST(FormatV2, RejectsSectionBitFlipWhenVerifying)
{
    const ScratchFile file("v2secflip");
    graph::saveBinaryAtomic(sampleGraph(), file.path());
    // Past the header page, inside the offsets section.
    flipByte(file.path(), 4096 + 16);
    // Full-verify paths re-hash the sections and must notice.
    EXPECT_THROW((void)graph::loadBinary(file.path()),
                 CorruptInputError);
    EXPECT_THROW(
        (void)graph::loadBinaryMapped(file.path(), {.verify = true}),
        CorruptInputError);
}

TEST(FormatV2, RejectsTruncatedHeader)
{
    const ScratchFile file("v2trunchdr");
    graph::saveBinaryAtomic(sampleGraph(), file.path());
    truncateTo(file.path(), 64);
    EXPECT_THROW((void)graph::loadBinaryMapped(file.path()),
                 CorruptInputError);
}

TEST(FormatV2, ShortMapIsTypedErrorNotSigbus)
{
    const ScratchFile file("v2shortmap");
    graph::saveBinaryAtomic(sampleGraph(), file.path());
    const std::uint64_t full = fs::file_size(file.path());
    // Keep the header and offsets but cut the neighbors section short.
    truncateTo(file.path(), full - 512);
    EXPECT_THROW((void)graph::loadBinaryMapped(file.path()),
                 CorruptInputError);
    EXPECT_THROW((void)graph::loadBinary(file.path()),
                 CorruptInputError);
}

TEST(FormatV2, RejectsTinyFile)
{
    const ScratchFile file("v2tiny");
    {
        std::ofstream out(file.path(), std::ios::binary);
        out << "GD";
    }
    EXPECT_THROW((void)graph::loadBinaryMapped(file.path()),
                 CorruptInputError);
}

// ---------------------------------------------------------------------
// v1 fallback.
// ---------------------------------------------------------------------

TEST(FormatV1, LegacyFileStillLoads)
{
    const ScratchFile file("v1compat");
    writeV1(file.path(), {0, 2, 3}, {1, 0, 0}, {5, 6, 7});
    const graph::Csr g = graph::loadBinary(file.path());
    EXPECT_EQ(g.numVertices(), 2u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.neighborArray()[0], 1u);
    EXPECT_EQ(g.weightArray()[2], 7u);
}

TEST(FormatV1, MappedLoaderFallsBackToHeap)
{
    const ScratchFile file("v1mapfall");
    writeV1(file.path(), {0, 1, 2}, {1, 0}, {});
    const graph::Csr g = graph::loadBinaryMapped(file.path());
    EXPECT_FALSE(g.isMapped()); // v1 has no aligned sections to map
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_TRUE(g.weightArray().empty());
}

TEST(FormatV2, SavedFilesAreV2)
{
    const ScratchFile file("v2version");
    graph::saveBinaryAtomic(sampleGraph(false), file.path());
    std::ifstream in(file.path(), std::ios::binary);
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    in.read(reinterpret_cast<char *>(&magic), 4);
    in.read(reinterpret_cast<char *>(&version), 4);
    EXPECT_EQ(magic, 0x42534447u);
    EXPECT_EQ(version, 2u);
}

// ---------------------------------------------------------------------
// Deterministic parallel build.
// ---------------------------------------------------------------------

std::vector<graph::CooEdge>
randomEdges(std::size_t count, VertexId num_vertices, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<graph::CooEdge> edges(count);
    for (auto &e : edges) {
        e.src = static_cast<VertexId>(rng.below(num_vertices));
        e.dst = static_cast<VertexId>(rng.below(num_vertices));
        e.weight = static_cast<Weight>(1 + rng.below(255));
    }
    return edges;
}

TEST(ParallelBuild, ByteIdenticalAcrossJobCounts)
{
    const VertexId v = 1000;
    const auto edges = randomEdges(200000, v, 11);
    graph::BuildOptions opts;
    opts.keepWeights = true;
    opts.jobs = 1;
    const graph::Csr serial = graph::buildCsr(v, edges, opts);
    for (const unsigned jobs : {2u, 3u, 8u}) {
        opts.jobs = jobs;
        const graph::Csr parallel = graph::buildCsr(v, edges, opts);
        EXPECT_SPAN_EQ(parallel.offsetArray(), serial.offsetArray());
        EXPECT_SPAN_EQ(parallel.neighborArray(),
                       serial.neighborArray());
        EXPECT_SPAN_EQ(parallel.weightArray(), serial.weightArray());
    }
}

TEST(ParallelBuild, StableOrderPreservedWithinVertex)
{
    // Duplicate (src, dst) pairs with distinct weights: the counting
    // sort must keep input order inside each vertex's adjacency run at
    // every job count (this is what "byte-identical" rests on).
    std::vector<graph::CooEdge> edges;
    for (Weight w = 1; w <= 64; ++w)
        edges.push_back({0, static_cast<VertexId>(w % 3), w});
    graph::BuildOptions opts;
    opts.keepWeights = true;
    opts.jobs = 8;
    const graph::Csr g = graph::buildCsr(3, edges, opts);
    ASSERT_EQ(g.numEdges(), 64u);
    // All edges come from vertex 0 in input order.
    for (std::size_t i = 1; i < g.weightArray().size(); ++i)
        EXPECT_LT(g.weightArray()[i - 1], g.weightArray()[i]);
}

TEST(ParallelBuild, DedupeAndSelfLoopOptionsMatchSerial)
{
    const VertexId v = 300;
    auto edges = randomEdges(20000, v, 23);
    for (std::size_t i = 0; i < edges.size(); i += 17)
        edges[i].dst = edges[i].src; // plant self loops
    graph::BuildOptions opts;
    opts.keepWeights = true;
    opts.removeSelfLoops = true;
    opts.removeDuplicates = true;
    opts.jobs = 1;
    const graph::Csr serial = graph::buildCsr(v, edges, opts);
    opts.jobs = 8;
    const graph::Csr parallel = graph::buildCsr(v, edges, opts);
    EXPECT_SPAN_EQ(parallel.offsetArray(), serial.offsetArray());
    EXPECT_SPAN_EQ(parallel.neighborArray(), serial.neighborArray());
    EXPECT_SPAN_EQ(parallel.weightArray(), serial.weightArray());
}

TEST(Generators, ChunkedGenerationIdenticalAcrossJobCounts)
{
    for (const unsigned jobs : {2u, 3u, 8u}) {
        {
            const auto a = graph::rmat(10, 8, 42, {}, true, 1);
            const auto b = graph::rmat(10, 8, 42, {}, true, jobs);
            EXPECT_SPAN_EQ(a.offsetArray(), b.offsetArray());
            EXPECT_SPAN_EQ(a.neighborArray(), b.neighborArray());
            EXPECT_SPAN_EQ(a.weightArray(), b.weightArray());
        }
        {
            const auto a = graph::powerLaw(2000, 30000, 0.6, 7, true, 1);
            const auto b =
                graph::powerLaw(2000, 30000, 0.6, 7, true, jobs);
            EXPECT_SPAN_EQ(a.offsetArray(), b.offsetArray());
            EXPECT_SPAN_EQ(a.neighborArray(), b.neighborArray());
            EXPECT_SPAN_EQ(a.weightArray(), b.weightArray());
        }
        {
            const auto a = graph::uniform(1500, 20000, 9, false, 1);
            const auto b = graph::uniform(1500, 20000, 9, false, jobs);
            EXPECT_SPAN_EQ(a.offsetArray(), b.offsetArray());
            EXPECT_SPAN_EQ(a.neighborArray(), b.neighborArray());
        }
    }
}

// ---------------------------------------------------------------------
// Storage-independent simulation results.
// ---------------------------------------------------------------------

TEST(MappedGraph, ReferenceRunBitIdenticalToHeap)
{
    const ScratchFile file("simident");
    graph::saveBinaryAtomic(sampleGraph(), file.path());
    const graph::Csr heap = graph::loadBinary(file.path());
    const graph::Csr mapped = graph::loadBinaryMapped(file.path());

    for (const auto id :
         {algo::AlgorithmId::Bfs, algo::AlgorithmId::Sssp,
          algo::AlgorithmId::Pr}) {
        const auto algorithm_a = algo::makeAlgorithm(id);
        const auto algorithm_b = algo::makeAlgorithm(id);
        const auto a = algo::runReference(heap, *algorithm_a,
                                          algo::defaultSource(heap));
        const auto b = algo::runReference(mapped, *algorithm_b,
                                          algo::defaultSource(mapped));
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_EQ(a.totalEdgesProcessed, b.totalEdgesProcessed);
        ASSERT_EQ(a.properties.size(), b.properties.size());
        EXPECT_EQ(std::memcmp(a.properties.data(), b.properties.data(),
                              a.properties.size() * sizeof(PropValue)),
                  0);
    }
}

TEST(MappedGraph, TransformsKeepMappedTopology)
{
    const ScratchFile file("simxform");
    graph::saveBinaryAtomic(sampleGraph(false), file.path());
    const graph::Csr mapped = graph::loadBinaryMapped(file.path());
    // Weight synthesis must not force a copy of the mapped topology.
    const graph::Csr weighted = mapped.withRandomWeights(3);
    EXPECT_TRUE(weighted.isMapped());
    EXPECT_GT(weighted.heapBytes(), 0u); // weights live on the heap
    EXPECT_SPAN_EQ(weighted.neighborArray(), mapped.neighborArray());
}

// ---------------------------------------------------------------------
// DatasetPool gauges.
// ---------------------------------------------------------------------

TEST(DatasetPool, ReportsMappedAndHeapBytes)
{
    const auto scratch = std::make_shared<ScratchFile>("poolgauge");
    graph::saveBinaryAtomic(sampleGraph(), scratch->path());
    harness::DatasetPool pool(
        [scratch](const std::string &name, bool) -> graph::Csr {
            if (name == "mapped")
                return graph::loadBinaryMapped(scratch->path());
            return graph::loadBinary(scratch->path());
        });
    EXPECT_EQ(pool.mappedBytes(), 0u);
    EXPECT_EQ(pool.heapBytes(), 0u);

    pool.expect("mapped", false);
    pool.expect("heap", false);
    const auto mapped = pool.get("mapped", false);
    const auto heap = pool.get("heap", false);
    EXPECT_EQ(pool.mappedBytes(), mapped->mappedBytes());
    EXPECT_GT(pool.mappedBytes(), 0u);
    EXPECT_EQ(pool.heapBytes(), heap->heapBytes());
    EXPECT_GT(pool.heapBytes(), 0u);

    pool.release("mapped", false);
    EXPECT_EQ(pool.mappedBytes(), 0u);
    EXPECT_GT(pool.heapBytes(), 0u);
    pool.release("heap", false);
    EXPECT_EQ(pool.heapBytes(), 0u);
}

TEST(DatasetPool, HighWaterTracksOverlapReleaseAndFailedLoads)
{
    const auto scratch = std::make_shared<ScratchFile>("poolpeak");
    graph::saveBinaryAtomic(sampleGraph(), scratch->path());
    auto loads = std::make_shared<int>(0);
    harness::DatasetPool pool(
        [scratch, loads](const std::string &name, bool) -> graph::Csr {
            ++*loads;
            if (name == "broken")
                throw std::runtime_error("fake loader: unreadable input");
            if (name == "mapped")
                return graph::loadBinaryMapped(scratch->path());
            return graph::powerLaw(800, 9000, 0.6, /*seed=*/3, false);
        });
    const auto peak = [&pool] { return pool.highWater(); };
    EXPECT_EQ(peak().resident, 0u);

    pool.expect("big", false);
    pool.expect("big", false);
    pool.expect("mapped", false);
    pool.expect("broken", false);

    // Two overlapping consumers of different graphs.
    const std::uint64_t big_heap = pool.get("big", false)->heapBytes();
    const std::uint64_t mapped_bytes =
        pool.get("mapped", false)->mappedBytes();
    EXPECT_GT(big_heap, 0u);
    EXPECT_GT(mapped_bytes, 0u);
    EXPECT_EQ(pool.residentCount(), 2u);
    EXPECT_EQ(peak().resident, 2u);
    EXPECT_EQ(peak().mappedBytes, mapped_bytes);
    EXPECT_EQ(peak().heapBytes, pool.heapBytes());
    EXPECT_GE(peak().heapBytes, big_heap);
    const std::uint64_t heap_peak = peak().heapBytes;

    // One of big's two consumers is done: it stays resident and shared.
    pool.release("big", false);
    EXPECT_EQ(pool.residentCount(), 2u);
    EXPECT_EQ(pool.get("big", false)->heapBytes(), big_heap);
    EXPECT_EQ(*loads, 2);

    // Its last consumer frees it; the high-water marks stay.
    pool.release("big", false);
    pool.release("mapped", false);
    EXPECT_EQ(pool.residentCount(), 0u);
    EXPECT_EQ(pool.mappedBytes(), 0u);
    EXPECT_EQ(pool.heapBytes(), 0u);
    EXPECT_EQ(peak().resident, 2u);
    EXPECT_EQ(peak().mappedBytes, mapped_bytes);
    EXPECT_EQ(peak().heapBytes, heap_peak);

    // A failed load is resident until released but adds no bytes.
    EXPECT_THROW(pool.get("broken", false), std::runtime_error);
    EXPECT_EQ(pool.residentCount(), 1u);
    EXPECT_EQ(pool.mappedBytes(), 0u);
    EXPECT_EQ(pool.heapBytes(), 0u);
    pool.release("broken", false);
    EXPECT_EQ(pool.residentCount(), 0u);
    EXPECT_EQ(peak().resident, 2u);
    EXPECT_EQ(peak().mappedBytes, mapped_bytes);
    EXPECT_EQ(peak().heapBytes, heap_peak);
}

} // namespace
} // namespace gds
