/**
 * @file
 * Self-performance benchmark of the cycle engine: simulated cycles per
 * wall-second and traversed edges per wall-second for each workload, across
 * {naive, fast-forward} x {telemetry off, telemetry on}. Every cell pair is
 * also an equivalence check — the fast-forwarded run must report exactly
 * the naive cycle count, edge count and iteration count, and the bench
 * exits nonzero on any mismatch.
 *
 * Workloads cover both ends of the idleness spectrum: BFS on a 2D ribbon
 * grid (road-network-like; tiny frontiers leave the datapath waiting on
 * memory almost permanently), the same ribbon against a latency-amplified
 * far-memory tier (every wait stretches to hundreds of cycles while the
 * busy work stays constant — the truly memory-bound cell the >=3x
 * acceptance target is measured on), BFS and PR on RMAT (social-network
 * skew; busier pipelines, smaller but still real wins), and BFS and PR
 * on the Graphicionado baseline (the PR cell is the large default-timing
 * cell, long enough to time without the noise of the short ones).
 *
 * Writes BENCH_simperf.json next to the binary's working directory.
 * --quick shrinks the graphs for CI smoke runs.
 */

#include "bench_util.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "common/rss.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"
#include "harness/walltime.hh"
#include "mem/hbm.hh"
#include "stats/json.hh"

using namespace gds;

namespace
{

struct Workload
{
    std::string name;      ///< JSON key, e.g. "gds/bfs/grid"
    std::string what;      ///< human description for the table
    std::function<graph::Csr()> make;
    algo::AlgorithmId algorithm = algo::AlgorithmId::Bfs;
    bool graphicionado = false;
    unsigned maxIterations = 1000;
    /**
     * Multiply the HBM core timings (tCl/tRcd/tRp) by this factor,
     * modelling a far-memory tier (e.g. CXL-attached or disaggregated
     * DRAM). 1 keeps the paper's HBM 1.0 timing.
     */
    Cycle memLatencyScale = 1;
};

struct CellResult
{
    double wallSeconds = 0.0;
    Cycle cycles = 0;
    std::uint64_t edges = 0;
    unsigned iterations = 0;
    bool completed = false;
    Cycle steppedCycles = 0;
    Cycle skippedCycles = 0;
    std::uint64_t skipWindows = 0;
    /** Process peak RSS after this cell (high-water mark, monotone
     *  across the bench run); 0 when the probe is unavailable. */
    std::uint64_t peakRssBytes = 0;
};

CellResult
runCellOnce(const Workload &w, const graph::Csr &g, bool fast_forward,
            bool telemetry)
{
    auto algorithm = algo::makeAlgorithm(w.algorithm);
    core::RunOptions run;
    run.source = 0;
    run.fastForward = fast_forward;
    obs::Tracer tracer;
    obs::Sampler sampler;
    std::optional<obs::ScopedActiveTracer> scope;
    if (telemetry) {
        sampler.setInterval(1000);
        run.sampler = &sampler;
        run.traceCounterInterval = 1000;
        scope.emplace(&tracer);
    }

    const auto stretch = [&w](mem::HbmConfig &hbm) {
        hbm.tCl *= w.memLatencyScale;
        hbm.tRcd *= w.memLatencyScale;
        hbm.tRp *= w.memLatencyScale;
    };

    CellResult cell;
    core::RunResult result;
    if (w.graphicionado) {
        baseline::GraphicionadoConfig cfg;
        cfg.maxIterations = w.maxIterations;
        stretch(cfg.hbm);
        baseline::GraphicionadoAccel accel(cfg, g, *algorithm);
        const harness::ScopedWallTimer timer(cell.wallSeconds);
        result = accel.run(run);
    } else {
        core::GdsConfig cfg;
        cfg.maxIterations = w.maxIterations;
        stretch(cfg.hbm);
        core::GdsAccel accel(cfg, g, *algorithm);
        const harness::ScopedWallTimer timer(cell.wallSeconds);
        result = accel.run(run);
    }
    cell.cycles = result.cycles;
    cell.edges = result.edgesProcessed;
    cell.iterations = result.iterations;
    cell.completed = result.completed();
    cell.steppedCycles = result.report.steppedCycles;
    cell.skippedCycles = result.report.skippedCycles;
    cell.skipWindows = result.report.skipWindows;
    cell.peakRssBytes = common::peakRssBytes();
    return cell;
}

/**
 * Repeat a cell and keep the fastest wall time: on a shared/noisy host the
 * minimum is the least-biased estimate of the simulator's true cost. The
 * simulated numbers are deterministic and must agree across repeats.
 */
CellResult
runCell(const Workload &w, const graph::Csr &g, bool fast_forward,
        bool telemetry, unsigned repeats)
{
    CellResult best = runCellOnce(w, g, fast_forward, telemetry);
    for (unsigned r = 1; r < repeats; ++r) {
        const CellResult again = runCellOnce(w, g, fast_forward, telemetry);
        gds_assert(again.cycles == best.cycles,
                   "nondeterministic simulation across bench repeats");
        best.wallSeconds = std::min(best.wallSeconds, again.wallSeconds);
    }
    return best;
}

double
rate(double numerator, double seconds)
{
    return seconds > 0.0 ? numerator / seconds : 0.0;
}

void
emitCellJson(std::ostream &os, const Workload &w, const char *mode,
             bool telemetry, const CellResult &cell, double speedup)
{
    os << "    {\"workload\":";
    stats::emitJsonString(os, w.name);
    os << ",\"mode\":";
    stats::emitJsonString(os, mode);
    os << ",\"telemetry\":" << (telemetry ? "true" : "false")
       << ",\"completed\":" << (cell.completed ? "true" : "false")
       << ",\"simCycles\":" << cell.cycles
       << ",\"edges\":" << cell.edges
       << ",\"iterations\":" << cell.iterations << ",\"wallSeconds\":";
    stats::emitJsonNumber(os, cell.wallSeconds);
    os << ",\"cyclesPerSecond\":";
    stats::emitJsonNumber(
        os, rate(static_cast<double>(cell.cycles), cell.wallSeconds));
    os << ",\"edgesPerSecond\":";
    stats::emitJsonNumber(
        os, rate(static_cast<double>(cell.edges), cell.wallSeconds));
    os << ",\"steppedCycles\":" << cell.steppedCycles
       << ",\"skippedCycles\":" << cell.skippedCycles
       << ",\"skipWindows\":" << cell.skipWindows
       << ",\"peakRssBytes\":" << cell.peakRssBytes
       << ",\"speedupVsNaive\":";
    stats::emitJsonNumber(os, speedup);
    os << "}";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned repeats = 3;
    std::string only;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            repeats = std::max(1, std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
            only = argv[++i];
        } else {
            std::printf("usage: %s [--quick] [--repeat N] "
                        "[--workload substring]\n", argv[0]);
            return 2;
        }
    }

    bench::banner("simperf",
                  quick ? "simulator self-performance (quick smoke)"
                        : "simulator self-performance");

    std::vector<Workload> workloads;
    workloads.push_back(
        {"gds/bfs/grid", "BFS, ribbon grid (latency-bound)",
         [quick] {
             // A narrow, long grid: road-network-like huge diameter and a
             // frontier of a handful of vertices, so every BFS level is a
             // few small requests followed by a full HBM round-trip wait.
             return graph::grid2d(4, quick ? 2048 : 8192, 7, false);
         },
         algo::AlgorithmId::Bfs, false, 100000});
    workloads.push_back(
        {"gds/bfs/grid-slowmem",
         "BFS, ribbon grid, far-memory tier (memory-bound; >=3x target)",
         [quick] {
             // Same ribbon, but against a 16x-latency far-memory tier:
             // every per-level round trip stretches to hundreds of pure
             // wait cycles while the busy work per level is unchanged, so
             // nearly all simulated time is skippable. This is the
             // memory-bound cell the >=3x acceptance target measures.
             return graph::grid2d(4, quick ? 1024 : 4096, 7, false);
         },
         algo::AlgorithmId::Bfs, false, 100000, 16});
    workloads.push_back(
        {"gds/bfs/rmat", "BFS, RMAT (social-network skew)",
         [quick] { return graph::rmat(quick ? 10 : 13, 16, 42, {}, false); },
         algo::AlgorithmId::Bfs, false, 1000});
    workloads.push_back(
        {"gds/pr/rmat", "PR, RMAT (compute-heavy)",
         [quick] { return graph::rmat(quick ? 9 : 12, 16, 42, {}, false); },
         algo::AlgorithmId::Pr, false, quick ? 10u : 20u});
    workloads.push_back(
        {"graphicionado/bfs/rmat", "BFS, RMAT, Graphicionado baseline",
         [quick] { return graph::rmat(quick ? 10 : 12, 16, 42, {}, false); },
         algo::AlgorithmId::Bfs, true, 1000});
    workloads.push_back(
        {"graphicionado/pr/rmat",
         "PR, RMAT, Graphicionado baseline (large default-timing cell)",
         [quick] { return graph::rmat(quick ? 10 : 13, 16, 42, {}, false); },
         algo::AlgorithmId::Pr, true, quick ? 10u : 20u});

    std::ofstream json("BENCH_simperf.json");
    json << "{\n  \"bench\": \"simperf\",\n  \"quick\": "
         << (quick ? "true" : "false") << ",\n  \"cells\": [\n";

    bool mismatch = false;
    bool first_cell = true;
    double target_speedup_quiet = 0.0;
    for (const Workload &w : workloads) {
        if (!only.empty() && w.name.find(only) == std::string::npos)
            continue;
        const graph::Csr g = w.make();
        std::printf("%s  (|V|=%llu |E|=%llu)\n", w.what.c_str(),
                    static_cast<unsigned long long>(g.numVertices()),
                    static_cast<unsigned long long>(g.numEdges()));
        for (const bool telemetry : {false, true}) {
            const CellResult naive = runCell(w, g, false, telemetry, repeats);
            const CellResult fast = runCell(w, g, true, telemetry, repeats);
            const double speedup =
                fast.wallSeconds > 0.0
                    ? naive.wallSeconds / fast.wallSeconds
                    : 0.0;
            if (w.name == "gds/bfs/grid-slowmem" && !telemetry)
                target_speedup_quiet = speedup;
            std::printf("  telemetry %-3s  naive %8.3fs %11.3g cyc/s | "
                        "ff %8.3fs %11.3g cyc/s | speedup %5.2fx | "
                        "%llu cycles\n",
                        telemetry ? "on" : "off", naive.wallSeconds,
                        rate(static_cast<double>(naive.cycles),
                             naive.wallSeconds),
                        fast.wallSeconds,
                        rate(static_cast<double>(fast.cycles),
                             fast.wallSeconds),
                        speedup,
                        static_cast<unsigned long long>(fast.cycles));
            if (naive.cycles != fast.cycles ||
                naive.edges != fast.edges ||
                naive.iterations != fast.iterations ||
                naive.completed != fast.completed) {
                std::printf("  MISMATCH: naive %llu cycles/%llu edges/"
                            "%u iters vs ff %llu/%llu/%u\n",
                            static_cast<unsigned long long>(naive.cycles),
                            static_cast<unsigned long long>(naive.edges),
                            naive.iterations,
                            static_cast<unsigned long long>(fast.cycles),
                            static_cast<unsigned long long>(fast.edges),
                            fast.iterations);
                mismatch = true;
            }
            if (!first_cell)
                json << ",\n";
            first_cell = false;
            emitCellJson(json, w, "naive", telemetry, naive, 1.0);
            json << ",\n";
            emitCellJson(json, w, "fastforward", telemetry, fast, speedup);
        }
        std::printf("\n");
    }

    const std::uint64_t peak_rss = common::peakRssBytes();
    json << "\n  ],\n  \"memoryBoundBfsSpeedupTelemetryOff\": ";
    stats::emitJsonNumber(json, target_speedup_quiet);
    json << ",\n  \"peakRssBytes\": " << peak_rss
         << ",\n  \"equivalent\": " << (mismatch ? "false" : "true")
         << "\n}\n";
    json.close();

    bench::expectation("memory-bound BFS speedup (telemetry off)",
                       ">=3x",
                       std::to_string(target_speedup_quiet) + "x");
    bench::expectation("ff vs naive simulated statistics", "identical",
                       mismatch ? "MISMATCH" : "identical");
    if (peak_rss > 0) {
        std::printf("\npeak RSS: %.1f MiB\n",
                    static_cast<double>(peak_rss) / (1024.0 * 1024.0));
    }
    std::printf("\nwrote BENCH_simperf.json\n");
    return mismatch ? 1 : 0;
}
