/**
 * @file
 * Dataset-layer benchmark: what it costs to materialize a Table 4
 * dataset (generate + COO→CSR build) and to re-load it from the binary
 * cache, heap-copied vs mmap-served. Every timing pair is also an
 * equivalence gate — the parallel build must be byte-identical to the
 * serial build (compared only when common::jobCount() > 1: at one job
 * there is no parallel build to time or compare), the mapped graph
 * byte-identical to the heap graph, and a functional BFS must produce
 * bit-identical properties on both — and the bench exits nonzero on any
 * mismatch.
 *
 * Modes:
 *   (default)                 full measurement matrix, writes
 *                             BENCH_dataset.json
 *   --prepare NAME            generate + cache NAME at the current
 *                             GDS_SCALE (for a later cold-load run)
 *   --measure-load NAME       fresh-process cold load of the cached
 *                             NAME via mmap: load + full-scan wall time
 *                             and peak RSS, written to
 *                             BENCH_dataset.json;
 *                             --rss-budget-mb N exits nonzero when peak
 *                             RSS exceeds the budget
 *
 * The split into --prepare and --measure-load exists so CI can measure a
 * cold load in a process whose peak RSS was never inflated by
 * generation-time heap arrays.
 */

#include "bench_util.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "algo/reference_engine.hh"
#include "common/parallel.hh"
#include "common/rss.hh"
#include "graph/loader.hh"
#include "harness/experiment.hh"
#include "harness/walltime.hh"
#include "stats/json.hh"

using namespace gds;

namespace
{

template <typename T>
bool
sameBytes(std::span<const T> a, std::span<const T> b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/** Byte-level equality of two graphs' arrays. */
bool
sameGraph(const graph::Csr &a, const graph::Csr &b)
{
    return sameBytes(a.offsetArray(), b.offsetArray()) &&
           sameBytes(a.neighborArray(), b.neighborArray()) &&
           sameBytes(a.weightArray(), b.weightArray());
}

/** Functional BFS whose result must not depend on the graph's storage. */
algo::ReferenceResult
functionalBfs(const graph::Csr &g)
{
    auto algorithm = algo::makeAlgorithm(algo::AlgorithmId::Bfs);
    return algo::runReference(g, *algorithm, algo::defaultSource(g));
}

struct LoadCell
{
    double wallSeconds = 0.0;
    std::uint64_t heapBytes = 0;
    std::uint64_t mappedBytes = 0;
};

/** Min-of-repeats timed load through @p load. */
template <typename LoadFn>
LoadCell
timeLoad(const LoadFn &load, unsigned repeats)
{
    LoadCell best;
    for (unsigned r = 0; r < repeats; ++r) {
        double seconds = 0.0;
        {
            const harness::ScopedWallTimer timer(seconds);
            const graph::Csr g = load();
            best.heapBytes = g.heapBytes();
            best.mappedBytes = g.mappedBytes();
        }
        best.wallSeconds =
            r == 0 ? seconds : std::min(best.wallSeconds, seconds);
    }
    return best;
}

void
emitCell(std::ostream &os, bool &first, const std::string &dataset,
         const char *phase, const char *mode, double wall_seconds,
         double speedup, std::uint64_t heap_bytes,
         std::uint64_t mapped_bytes)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"dataset\":";
    stats::emitJsonString(os, dataset);
    os << ",\"phase\":";
    stats::emitJsonString(os, phase);
    os << ",\"mode\":";
    stats::emitJsonString(os, mode);
    os << ",\"wallSeconds\":";
    stats::emitJsonNumber(os, wall_seconds);
    os << ",\"speedup\":";
    stats::emitJsonNumber(os, speedup);
    os << ",\"heapBytes\":" << heap_bytes
       << ",\"mappedBytes\":" << mapped_bytes
       << ",\"peakRssBytes\":" << common::peakRssBytes() << "}";
}

int
prepare(const std::string &name)
{
    bench::banner("dataset --prepare", "generate + cache " + name);
    double seconds = 0.0;
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
    {
        const harness::ScopedWallTimer timer(seconds);
        const graph::Csr g = harness::loadDataset(name, false);
        vertices = g.numVertices();
        edges = g.numEdges();
    }
    const std::string path = harness::datasetCachePath(
        name, graph::datasetScaleDivisor(), false);
    std::printf("%s: |V|=%llu |E|=%llu in %.2fs -> %s\n", name.c_str(),
                static_cast<unsigned long long>(vertices),
                static_cast<unsigned long long>(edges), seconds,
                path.c_str());
    return std::filesystem::exists(path) ? 0 : 1;
}

int
measureLoad(const std::string &name, std::uint64_t rss_budget_mb)
{
    bench::banner("dataset --measure-load",
                  "cold mmap load + full scan of " + name);
    const std::string path = harness::datasetCachePath(
        name, graph::datasetScaleDivisor(), false);
    if (!std::filesystem::exists(path)) {
        std::printf("cache '%s' missing: run --prepare %s first\n",
                    path.c_str(), name.c_str());
        return 2;
    }

    double map_seconds = 0.0;
    double scan_seconds = 0.0;
    std::uint64_t mapped_bytes = 0;
    std::uint64_t heap_bytes = 0;
    std::uint64_t edge_sum = 0;
    {
        const harness::ScopedWallTimer timer(map_seconds);
        const graph::Csr g = graph::loadBinaryMapped(path);
        mapped_bytes = g.mappedBytes();
        heap_bytes = g.heapBytes();
        {
            const harness::ScopedWallTimer scan_timer(scan_seconds);
            // Touch every page the way a simulation would: the offset
            // array per vertex, the neighbour array per edge.
            const graph::DegreeStats ds = g.degreeStats();
            for (const VertexId dst : g.neighborArray())
                edge_sum += dst;
            std::printf("degrees: min %llu max %llu mean %.2f; "
                        "neighbour checksum %llu\n",
                        static_cast<unsigned long long>(ds.minDegree),
                        static_cast<unsigned long long>(ds.maxDegree),
                        ds.meanDegree,
                        static_cast<unsigned long long>(edge_sum));
        }
    }
    const std::uint64_t peak_rss = common::peakRssBytes();
    const double peak_mb =
        static_cast<double>(peak_rss) / (1024.0 * 1024.0);
    std::printf("map %.4fs  scan %.3fs  mapped %.1f MiB  heap %.1f MiB  "
                "peak RSS %.1f MiB\n",
                map_seconds, scan_seconds,
                static_cast<double>(mapped_bytes) / (1024.0 * 1024.0),
                static_cast<double>(heap_bytes) / (1024.0 * 1024.0),
                peak_mb);

    std::ofstream json("BENCH_dataset.json");
    json << "{\n  \"bench\": \"dataset\",\n  \"mode\": \"measure-load\","
         << "\n  \"dataset\": ";
    stats::emitJsonString(json, name);
    json << ",\n  \"scale\": " << graph::datasetScaleDivisor()
         << ",\n  \"mapSeconds\": ";
    stats::emitJsonNumber(json, map_seconds);
    json << ",\n  \"scanSeconds\": ";
    stats::emitJsonNumber(json, scan_seconds);
    json << ",\n  \"mappedBytes\": " << mapped_bytes
         << ",\n  \"heapBytes\": " << heap_bytes
         << ",\n  \"peakRssBytes\": " << peak_rss << "\n}\n";
    json.close();
    std::printf("wrote BENCH_dataset.json\n");

    if (rss_budget_mb > 0) {
        const bool ok =
            peak_rss <= rss_budget_mb * 1024ULL * 1024ULL;
        bench::expectation("cold-load peak RSS",
                           "<= " + std::to_string(rss_budget_mb) + " MiB",
                           std::to_string(peak_mb) + " MiB" +
                               (ok ? "" : " OVER BUDGET"));
        if (!ok)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned repeats = 5;
    std::string prepare_name;
    std::string measure_name;
    std::uint64_t rss_budget_mb = 0;
    std::vector<std::string> datasets;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            repeats = static_cast<unsigned>(
                std::max(1, std::atoi(argv[++i])));
        } else if (std::strcmp(argv[i], "--dataset") == 0 &&
                   i + 1 < argc) {
            datasets.emplace_back(argv[++i]);
        } else if (std::strcmp(argv[i], "--prepare") == 0 &&
                   i + 1 < argc) {
            prepare_name = argv[++i];
        } else if (std::strcmp(argv[i], "--measure-load") == 0 &&
                   i + 1 < argc) {
            measure_name = argv[++i];
        } else if (std::strcmp(argv[i], "--rss-budget-mb") == 0 &&
                   i + 1 < argc) {
            rss_budget_mb = static_cast<std::uint64_t>(
                std::max(0, std::atoi(argv[++i])));
        } else {
            std::printf(
                "usage: %s [--quick] [--repeat N] [--dataset NAME]...\n"
                "       %s --prepare NAME\n"
                "       %s --measure-load NAME [--rss-budget-mb N]\n",
                argv[0], argv[0], argv[0]);
            return 2;
        }
    }
    if (!prepare_name.empty())
        return prepare(prepare_name);
    if (!measure_name.empty())
        return measureLoad(measure_name, rss_budget_mb);

    bench::banner("dataset",
                  quick ? "dataset load/build performance (quick smoke)"
                        : "dataset load/build performance");
    if (datasets.empty()) {
        datasets = quick ? std::vector<std::string>{"FR"}
                         : std::vector<std::string>{"FR", "RM22"};
    }
    const unsigned parallel_jobs = common::jobCount();
    // At one job the "parallel" build is the serial build again: neither
    // a speed-up nor an equivalence check, so it is not run at all.
    const bool compare_parallel = parallel_jobs > 1;
    std::printf("parallel jobs: %u (hardware threads: %u)\n\n",
                parallel_jobs, std::thread::hardware_concurrency());

    std::ofstream json("BENCH_dataset.json");
    json << "{\n  \"bench\": \"dataset\",\n  \"mode\": \"full\",\n"
         << "  \"quick\": " << (quick ? "true" : "false")
         << ",\n  \"scale\": " << graph::datasetScaleDivisor()
         << ",\n  \"parallelJobs\": " << parallel_jobs
         << ",\n  \"cells\": [\n";

    bool mismatch = false;
    bool first_cell = true;
    double last_build_speedup = 0.0;
    double last_load_speedup = 0.0;
    const unsigned scale = graph::datasetScaleDivisor();
    for (const std::string &name : datasets) {
        const graph::DatasetSpec &spec = graph::datasetByName(name);

        // Generate + build, serial vs parallel; must be byte-identical.
        double serial_seconds = 0.0;
        graph::Csr serial_graph;
        {
            const harness::ScopedWallTimer timer(serial_seconds);
            serial_graph = graph::makeDataset(spec, scale, false, 1);
        }
        std::printf("%s  (|V|=%llu |E|=%llu)\n", name.c_str(),
                    static_cast<unsigned long long>(
                        serial_graph.numVertices()),
                    static_cast<unsigned long long>(
                        serial_graph.numEdges()));
        emitCell(json, first_cell, name, "generate", "serial",
                 serial_seconds, 1.0, serial_graph.heapBytes(), 0);
        if (compare_parallel) {
            double parallel_seconds = 0.0;
            graph::Csr parallel_graph;
            {
                const harness::ScopedWallTimer timer(parallel_seconds);
                parallel_graph =
                    graph::makeDataset(spec, scale, false, parallel_jobs);
            }
            const double build_speedup =
                parallel_seconds > 0.0 ? serial_seconds / parallel_seconds
                                       : 0.0;
            last_build_speedup = build_speedup;
            const bool build_identical =
                sameGraph(serial_graph, parallel_graph);
            if (!build_identical) {
                std::printf("  MISMATCH: parallel build of %s differs "
                            "from serial\n",
                            name.c_str());
                mismatch = true;
            }
            std::printf("  generate+build  serial %7.3fs | %u jobs "
                        "%7.3fs | speedup %5.2fx | %s\n",
                        serial_seconds, parallel_jobs, parallel_seconds,
                        build_speedup,
                        build_identical ? "identical" : "MISMATCH");
            emitCell(json, first_cell, name, "generate", "parallel",
                     parallel_seconds, build_speedup,
                     parallel_graph.heapBytes(), 0);
        } else {
            std::printf("  generate+build  serial %7.3fs | parallel not "
                        "measured (1 job)\n",
                        serial_seconds);
        }

        // Cache write, then cache-hit loads: heap copy vs zero-copy map.
        const std::string path = harness::datasetCachePath(name, scale,
                                                           false);
        double save_seconds = 0.0;
        {
            const harness::ScopedWallTimer timer(save_seconds);
            graph::saveBinaryAtomic(serial_graph, path);
        }
        emitCell(json, first_cell, name, "save", "atomic", save_seconds,
                 1.0, 0, 0);

        const LoadCell heap_load = timeLoad(
            [&path] { return graph::loadBinary(path); }, repeats);
        const LoadCell mmap_load = timeLoad(
            [&path] { return graph::loadBinaryMapped(path); }, repeats);
        const double load_speedup =
            mmap_load.wallSeconds > 0.0
                ? heap_load.wallSeconds / mmap_load.wallSeconds
                : 0.0;
        last_load_speedup = load_speedup;
        std::printf("  cache-hit load  heap   %7.4fs | mmap   %7.4fs | "
                    "speedup %5.2fx\n",
                    heap_load.wallSeconds, mmap_load.wallSeconds,
                    load_speedup);
        emitCell(json, first_cell, name, "load", "heap",
                 heap_load.wallSeconds, 1.0, heap_load.heapBytes,
                 heap_load.mappedBytes);
        emitCell(json, first_cell, name, "load", "mmap",
                 mmap_load.wallSeconds, load_speedup,
                 mmap_load.heapBytes, mmap_load.mappedBytes);

        // Storage equivalence: the mapped graph must be byte-identical
        // to the heap graph, and a functional BFS bit-identical on both.
        const graph::Csr heap_graph = graph::loadBinary(path);
        const graph::Csr mmap_graph = graph::loadBinaryMapped(path);
        const bool arrays_identical = sameGraph(heap_graph, mmap_graph);
        const algo::ReferenceResult heap_bfs = functionalBfs(heap_graph);
        const algo::ReferenceResult mmap_bfs = functionalBfs(mmap_graph);
        const bool sim_identical =
            heap_bfs.iterations == mmap_bfs.iterations &&
            heap_bfs.properties.size() == mmap_bfs.properties.size() &&
            (heap_bfs.properties.empty() ||
             std::memcmp(heap_bfs.properties.data(),
                         mmap_bfs.properties.data(),
                         heap_bfs.properties.size() *
                             sizeof(PropValue)) == 0);
        if (!arrays_identical || !sim_identical) {
            std::printf("  MISMATCH: heap vs mmap %s differ (arrays %s, "
                        "bfs %s)\n",
                        name.c_str(),
                        arrays_identical ? "identical" : "DIFFER",
                        sim_identical ? "identical" : "DIFFER");
            mismatch = true;
        } else {
            std::printf("  heap vs mmap    arrays identical | functional "
                        "BFS bit-identical (%u iterations)\n",
                        heap_bfs.iterations);
        }
        std::printf("\n");
    }

    json << "\n  ],\n  \"equivalent\": " << (mismatch ? "false" : "true")
         << ",\n  \"peakRssBytes\": " << common::peakRssBytes()
         << "\n}\n";
    json.close();

    if (compare_parallel) {
        bench::expectation("parallel vs serial build", "byte-identical",
                           mismatch ? "MISMATCH" : "identical");
        bench::expectation(
            "build speedup at " + std::to_string(parallel_jobs) + " jobs",
            ">=2x on >=8 hardware threads",
            std::to_string(last_build_speedup) + "x");
    } else {
        bench::expectation("parallel vs serial build", "byte-identical",
                           "not measured at 1 job (set GDS_JOBS > 1)");
    }
    bench::expectation("mmap vs heap cache-hit load", ">=5x",
                       std::to_string(last_load_speedup) + "x");
    std::printf("\nwrote BENCH_dataset.json\n");
    return mismatch ? 1 : 0;
}
