/**
 * @file
 * Fast-forward equivalence suite: the idle-cycle skipping engine must be
 * invisible in every observable artifact. Each test runs the same workload
 * twice — RunOptions::fastForward on and off — and requires byte-identical
 * cycle counts, iteration counts, computed properties, end-of-run stats
 * JSON, sampler CSV and trace JSON, on both accelerator models, with and
 * without telemetry attached, and under an active fault injector. Also
 * holds the non-power-of-two sampler-interval regression for the countdown
 * boundary cache.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "stats/json.hh"

namespace gds
{
namespace
{

using algo::AlgorithmId;

/** Everything observable about one run, captured for comparison. */
struct Artifacts
{
    core::RunResult result;
    std::string statsJson;
    std::string samplerCsv;
    std::string traceJson;
    unsigned slices = 0;
};

/** Knobs of one equivalence cell (everything except fastForward). */
struct Cell
{
    AlgorithmId algorithm = AlgorithmId::Bfs;
    bool telemetry = false;
    sim::FaultPlan faults;
    Cycle samplerInterval = 100;
    /** PR cells cap iterations: equivalence needs cycles, not convergence. */
    unsigned maxIterations = 1000;
    /** Shrink on-chip storage so the graph runs in two slices. */
    bool sliced = false;
    /** A 1 x kRoadLength path instead of the RMAT graph: frontiers of one
     *  vertex, so each iteration is an HBM round trip and Apply-bound. */
    bool road = false;
    /** GraphDynS only: fetch edge parts 64 B-aligned (EP ablation). */
    bool inexactPrefetch = false;
    /** GraphDynS only: edge-buffer budget; 0 keeps the default. */
    unsigned eprefBufferEdges = 0;
};

constexpr VertexId kRoadLength = 512;

template <typename Accel, typename Config>
Artifacts
runOnce(const Cell &cell, bool fast_forward)
{
    const graph::Csr g = cell.road ? graph::grid2d(1, kRoadLength, 1)
                                   : graph::rmat(8, 16, 42, {}, false);
    Config cfg;
    cfg.maxIterations = cell.maxIterations;
    if (cell.sliced) {
        // 128 of the 256 vertices per slice in either model.
        if constexpr (std::is_same_v<Config, core::GdsConfig>)
            cfg.vbBytesPerUe = bytesPerWord;
        else
            cfg.onChipBytes = 128 * bytesPerWord;
    }
    if constexpr (std::is_same_v<Config, core::GdsConfig>) {
        cfg.exactPrefetch = !cell.inexactPrefetch;
        if (cell.eprefBufferEdges != 0)
            cfg.eprefBufferEdges = cell.eprefBufferEdges;
    }
    auto algorithm = algo::makeAlgorithm(cell.algorithm);
    Accel accel(cfg, g, *algorithm);

    core::RunOptions run;
    run.source = 0;
    run.fastForward = fast_forward;
    run.faults = cell.faults;
    obs::Tracer tracer;
    obs::Sampler sampler;
    std::optional<obs::ScopedActiveTracer> scope;
    if (cell.telemetry) {
        sampler.setInterval(cell.samplerInterval);
        run.sampler = &sampler;
        run.traceCounterInterval = cell.samplerInterval;
        scope.emplace(&tracer);
    }

    Artifacts a;
    a.result = accel.run(run);
    a.slices = accel.numSlices();
    std::ostringstream stats_os;
    stats::dumpJson(accel.statsGroup(), stats_os);
    a.statsJson = stats_os.str();
    if (cell.telemetry) {
        std::ostringstream csv_os;
        sampler.writeCsv(csv_os);
        a.samplerCsv = csv_os.str();
        std::ostringstream trace_os;
        tracer.write(trace_os);
        a.traceJson = trace_os.str();
    }
    return a;
}

/** Run the cell naive and fast-forwarded; every artifact must match. */
template <typename Accel, typename Config>
void
expectEquivalent(const Cell &cell)
{
    const Artifacts naive = runOnce<Accel, Config>(cell, false);
    const Artifacts fast = runOnce<Accel, Config>(cell, true);

    EXPECT_EQ(naive.result.report.outcome, fast.result.report.outcome);
    EXPECT_EQ(naive.result.report.cycles, fast.result.report.cycles);
    EXPECT_EQ(naive.result.report.lastProgressCycle,
              fast.result.report.lastProgressCycle);
    EXPECT_EQ(naive.result.cycles, fast.result.cycles);
    EXPECT_EQ(naive.result.iterations, fast.result.iterations);
    EXPECT_EQ(naive.result.edgesProcessed, fast.result.edgesProcessed);
    EXPECT_EQ(naive.result.vertexUpdates, fast.result.vertexUpdates);
    EXPECT_EQ(naive.result.memoryBytes, fast.result.memoryBytes);
    EXPECT_EQ(naive.result.schedulingOps, fast.result.schedulingOps);
    EXPECT_EQ(naive.result.atomicStalls, fast.result.atomicStalls);
    EXPECT_EQ(naive.result.properties, fast.result.properties);
    EXPECT_EQ(naive.statsJson, fast.statsJson);
    EXPECT_EQ(naive.samplerCsv, fast.samplerCsv);
    EXPECT_EQ(naive.traceJson, fast.traceJson);
    // A no-op equivalence (nothing ran) would pass vacuously; rule it out.
    EXPECT_TRUE(fast.result.completed());
    EXPECT_GT(fast.result.cycles, 0u);
    // Sliced cells must really slice and really skip, or they would
    // prove nothing about slice-subgraph reads under fast-forward.
    if (cell.sliced) {
        EXPECT_EQ(fast.slices, 2u);
        EXPECT_GT(fast.result.report.skippedCycles, 0u);
    }
    // A road run waits on memory most of the time: most cycles skip.
    if (cell.road) {
        EXPECT_EQ(fast.result.iterations, kRoadLength);
        EXPECT_GT(2 * fast.result.report.skippedCycles, fast.result.cycles);
    }
}

// --- GraphDynS -----------------------------------------------------------

TEST(FastForwardEquiv, GdsBfsPlain)
{
    Cell cell;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsBfsTelemetry)
{
    Cell cell;
    cell.telemetry = true;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsPageRankTelemetry)
{
    Cell cell;
    cell.algorithm = AlgorithmId::Pr;
    cell.telemetry = true;
    cell.maxIterations = 20;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsBfsFaulted)
{
    // Delayed and rejected HBM responses draw from the injector's RNG, so
    // equivalence additionally proves the skip never swallows a cycle in
    // which a faultable decision would have been drawn.
    Cell cell;
    cell.faults.delayResponseProb = 0.05;
    cell.faults.delayCycles = 200;
    cell.faults.rejectRequestProb = 0.02;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsBfsFaultedTelemetry)
{
    Cell cell;
    cell.telemetry = true;
    cell.faults.delayResponseProb = 0.05;
    cell.faults.delayCycles = 200;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsBfsRoad)
{
    Cell cell;
    cell.road = true;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsPageRankSlicedTelemetry)
{
    Cell cell;
    cell.algorithm = AlgorithmId::Pr;
    cell.telemetry = true;
    cell.maxIterations = 10;
    cell.sliced = true;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsBfsSlicedFaulted)
{
    Cell cell;
    cell.sliced = true;
    cell.faults.delayResponseProb = 0.05;
    cell.faults.delayCycles = 200;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsPageRankInexactPrefetch)
{
    // 64 B-aligned edge parts, never coalesced: every record takes the
    // part-fetch path, so its quiescence clauses decide every skip.
    Cell cell;
    cell.algorithm = AlgorithmId::Pr;
    cell.maxIterations = 10;
    cell.inexactPrefetch = true;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

TEST(FastForwardEquiv, GdsPageRankEprefBuffer64Faulted)
{
    // A 64-edge buffer: records wait for budget in FIFO order and hubs
    // run alone, under delayed HBM responses.
    Cell cell;
    cell.algorithm = AlgorithmId::Pr;
    cell.maxIterations = 10;
    cell.eprefBufferEdges = 64;
    cell.faults.delayResponseProb = 0.05;
    cell.faults.delayCycles = 200;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

// --- Graphicionado baseline ----------------------------------------------

TEST(FastForwardEquiv, GraphicionadoBfsPlain)
{
    Cell cell;
    expectEquivalent<baseline::GraphicionadoAccel,
                     baseline::GraphicionadoConfig>(cell);
}

TEST(FastForwardEquiv, GraphicionadoBfsTelemetry)
{
    Cell cell;
    cell.telemetry = true;
    expectEquivalent<baseline::GraphicionadoAccel,
                     baseline::GraphicionadoConfig>(cell);
}

TEST(FastForwardEquiv, GraphicionadoPageRankPlain)
{
    Cell cell;
    cell.algorithm = AlgorithmId::Pr;
    cell.maxIterations = 20;
    expectEquivalent<baseline::GraphicionadoAccel,
                     baseline::GraphicionadoConfig>(cell);
}

TEST(FastForwardEquiv, GraphicionadoBfsFaulted)
{
    Cell cell;
    cell.faults.delayResponseProb = 0.05;
    cell.faults.delayCycles = 200;
    expectEquivalent<baseline::GraphicionadoAccel,
                     baseline::GraphicionadoConfig>(cell);
}

TEST(FastForwardEquiv, GraphicionadoPageRankSlicedTelemetry)
{
    Cell cell;
    cell.algorithm = AlgorithmId::Pr;
    cell.telemetry = true;
    cell.maxIterations = 10;
    cell.sliced = true;
    expectEquivalent<baseline::GraphicionadoAccel,
                     baseline::GraphicionadoConfig>(cell);
}

TEST(FastForwardEquiv, GraphicionadoBfsSlicedFaulted)
{
    Cell cell;
    cell.sliced = true;
    cell.faults.delayResponseProb = 0.05;
    cell.faults.delayCycles = 200;
    expectEquivalent<baseline::GraphicionadoAccel,
                     baseline::GraphicionadoConfig>(cell);
}

// --- Sampler boundary regression -----------------------------------------

TEST(SamplerBoundary, NonPowerOfTwoIntervalSamplesEveryBoundary)
{
    // The cached next-boundary fast path must not skip or duplicate
    // samples for intervals that do not divide anything convenient.
    obs::Sampler s;
    s.setInterval(37);
    Cycle probe_cycle = 0;
    s.add("cycle", [&] { return static_cast<double>(probe_cycle); });
    for (Cycle c = 0; c < 500; ++c) {
        probe_cycle = c;
        s.tick(c);
    }
    ASSERT_EQ(s.sampleCount(), 14u); // 0, 37, ..., 481
    for (std::size_t i = 0; i < s.sampleCount(); ++i) {
        EXPECT_EQ(s.series().cycleAt(i), i * 37);
        EXPECT_DOUBLE_EQ(s.series().value(i, 0),
                         static_cast<double>(i * 37));
    }
}

TEST(SamplerBoundary, CyclesUntilNextSampleIsConsistentWithTick)
{
    obs::Sampler s;
    s.setInterval(37);
    for (Cycle c = 0; c < 200; ++c) {
        const Cycle d = s.cyclesUntilNextSample(c);
        EXPECT_EQ(d, c % 37 == 0 ? 0u : 37u - c % 37);
    }
    obs::Sampler off;
    EXPECT_EQ(off.cyclesUntilNextSample(123), ~Cycle{0});
}

TEST(SamplerBoundary, ClockJumpAcrossBoundariesStillSamples)
{
    // The fast-forward engine clamps skips at boundaries, but the sampler
    // itself must also survive a caller whose clock jumps (rewind, restart
    // with a reused sampler object after setInterval).
    obs::Sampler s;
    s.setInterval(10);
    s.add("one", [] { return 1.0; });
    s.tick(0);
    s.tick(30); // jumped a boundary: the divide path must re-arm correctly
    s.tick(31);
    s.tick(40);
    ASSERT_EQ(s.sampleCount(), 3u);
    EXPECT_EQ(s.series().cycleAt(1), 30u);
    EXPECT_EQ(s.series().cycleAt(2), 40u);
}

TEST(FastForwardEquiv, NonPowerOfTwoSamplerIntervalEndToEnd)
{
    // Interval 37 never aligns with phase boundaries; the skip clamp must
    // still land a real tick on every multiple of 37.
    Cell cell;
    cell.telemetry = true;
    cell.samplerInterval = 37;
    expectEquivalent<core::GdsAccel, core::GdsConfig>(cell);
}

} // namespace
} // namespace gds
