/**
 * @file
 * End-to-end tests of the GraphDynS cycle-level model: functional results
 * must match the reference engine for every algorithm, across graph
 * families, ablation configurations, UE counts and forced slicing; timing
 * and stats must satisfy basic sanity invariants (throughput below peak,
 * scheduling-op accounting, RB effectiveness).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algo/reference_engine.hh"
#include "algo/validate.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"

namespace gds::core
{
namespace
{

using algo::AlgorithmId;

/** Graph + algorithm pairing used across the tests. */
graph::Csr
testGraph(VertexId v_count, EdgeId e_count, std::uint64_t seed)
{
    return graph::powerLaw(v_count, e_count, 0.6, seed, /*weighted=*/true);
}

/**
 * Compare a timing-model run against the functional reference.
 *
 * Min/max algorithms are order-insensitive, so the match is exact. PR's
 * floating-point accumulation order differs between the crossbar arrival
 * order and the reference's sequential order, so PR is compared with a
 * relative tolerance and may converge one iteration apart.
 */
void
expectMatchesReference(const GdsConfig &cfg, const graph::Csr &g,
                       AlgorithmId id, VertexId source)
{
    auto algo_ref = algo::makeAlgorithm(id);
    algo::ReferenceOptions ref_opts;
    ref_opts.maxIterations = cfg.maxIterations;
    const auto golden = algo::runReference(g, *algo_ref, source, ref_opts);

    auto algo_sim = algo::makeAlgorithm(id);
    GdsAccel accel(cfg, g, *algo_sim);
    RunOptions run;
    run.source = source;
    const RunResult result = accel.run(run);

    ASSERT_EQ(result.properties.size(), golden.properties.size());
    if (id == AlgorithmId::Pr) {
        // Activation-gated PR is order-dependent: the crossbar arrival
        // order differs from the reference's sequential order, and once a
        // vertex's change dips below the activation tolerance its whole
        // contribution drops out of its neighbours' sums. Individual
        // vertices may drift a few percent between equally-valid
        // trajectories, so check aggregate fidelity instead.
        EXPECT_NEAR(static_cast<double>(result.iterations),
                    static_cast<double>(golden.iterations), 3.0);
        double err_sum = 0.0;
        double max_err = 0.0;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            const double want = golden.properties[v];
            const double got = result.properties[v];
            const double rel =
                std::fabs(got - want) / std::max(std::fabs(want), 1e-12);
            err_sum += rel;
            max_err = std::max(max_err, rel);
        }
        EXPECT_LT(err_sum / g.numVertices(), 0.02)
            << "PR mean relative error too large";
        EXPECT_LT(max_err, 0.15) << "PR worst-vertex error too large";
        return;
    }

    EXPECT_EQ(result.iterations, golden.iterations)
        << algo_ref->name() << ": iteration count diverged";
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(result.properties[v], golden.properties[v])
            << algo_ref->name() << " vertex " << v;
    }
    EXPECT_EQ(result.edgesProcessed, golden.totalEdgesProcessed);
    EXPECT_EQ(result.vertexUpdates, golden.totalVertexUpdates);
}

TEST(GdsAccel, BfsMatchesReference)
{
    const auto g = testGraph(2000, 16000, 11);
    expectMatchesReference(GdsConfig{}, g, AlgorithmId::Bfs,
                           algo::defaultSource(g));
}

TEST(GdsAccel, SsspMatchesReference)
{
    const auto g = testGraph(2000, 16000, 12);
    expectMatchesReference(GdsConfig{}, g, AlgorithmId::Sssp,
                           algo::defaultSource(g));
}

TEST(GdsAccel, CcMatchesReference)
{
    const auto g = testGraph(1500, 12000, 13);
    expectMatchesReference(GdsConfig{}, g, AlgorithmId::Cc, 0);
}

TEST(GdsAccel, SswpMatchesReference)
{
    const auto g = testGraph(1500, 12000, 14);
    expectMatchesReference(GdsConfig{}, g, AlgorithmId::Sswp,
                           algo::defaultSource(g));
}

TEST(GdsAccel, PrMatchesReference)
{
    GdsConfig cfg;
    // Stop while all vertices are still active: near convergence,
    // activation-gated PR is sensitive to the reduce order (see the
    // AblationSweep comment).
    cfg.maxIterations = 8;
    const auto g = testGraph(1000, 8000, 15);
    expectMatchesReference(cfg, g, AlgorithmId::Pr, 0);
}

TEST(GdsAccel, UniformGraphBfs)
{
    const auto g = graph::uniform(3000, 24000, 21, true);
    expectMatchesReference(GdsConfig{}, g, AlgorithmId::Bfs,
                           algo::defaultSource(g));
}

TEST(GdsAccel, GridGraphSssp)
{
    const auto g = graph::grid2d(40, 40, 22, true);
    expectMatchesReference(GdsConfig{}, g, AlgorithmId::Sssp, 0);
}

TEST(GdsAccel, RmatGraphCc)
{
    const auto g = graph::rmat(10, 8, 23, {}, true);
    expectMatchesReference(GdsConfig{}, g, AlgorithmId::Cc, 0);
}

TEST(GdsAccel, SlicesNotAlignedToRbGroupsApplyEveryUpdate)
{
    // 36 B per UE makes 1152-vertex slices, 4.5 Ready-to-Update groups
    // each, so slice boundaries cut groups in half. Apply must still take
    // every updated vertex of a ready group's part inside the slice: an
    // update in the upper half of a group whose lower half lies in the
    // previous slice used to be skipped, which broke BFS, SSSP and SSWP.
    GdsConfig cfg;
    cfg.vbBytesPerUe = 36;
    ASSERT_EQ(cfg.sliceCapacity(), 1152u);
    ASSERT_NE(cfg.sliceCapacity() % cfg.rbGroupSize, 0u);
    const auto g = graph::rmat(12, 16, 7, {}, /*weighted=*/true);
    for (const AlgorithmId id : algo::allAlgorithms) {
        SCOPED_TRACE(algo::algorithmName(id));
        // The evaluation's iteration caps: PR runs a fixed budget.
        cfg.maxIterations = id == AlgorithmId::Pr ? 10 : 1000;
        auto a = algo::makeAlgorithm(id);
        GdsAccel accel(cfg, g, *a);
        ASSERT_GT(accel.numSlices(), 1u);
        RunOptions run;
        run.source = 0;
        const RunResult r = accel.run(run);
        ASSERT_TRUE(r.completed());
        const algo::ValidationResult v =
            algo::validate(id, g, 0, r.properties);
        EXPECT_TRUE(v.valid) << v.message;
        expectMatchesReference(cfg, g, id, 0);
    }
}

TEST(GdsAccel, ThroughputBelowComputePeak)
{
    GdsConfig cfg;
    cfg.maxIterations = 10;
    const auto g = testGraph(4000, 64000, 31);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GdsAccel accel(cfg, g, *pr);
    const RunResult r = accel.run();
    // Peak is numPes * nSimt = 128 edges/cycle.
    EXPECT_LT(r.gteps(), 128.0);
    EXPECT_GT(r.gteps(), 1.0);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.memoryBytes, 0u);
    EXPECT_LE(r.bandwidthUtilization, 1.0);
}

TEST(GdsAccel, SchedulingOpsFarFewerThanEdges)
{
    // Fig. 14a: batch dispatch cuts scheduling operations by ~16x.
    GdsConfig cfg;
    cfg.maxIterations = 5;
    const auto g = testGraph(4000, 64000, 32);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GdsAccel accel(cfg, g, *pr);
    const RunResult r = accel.run();
    EXPECT_LT(r.schedulingOps, r.edgesProcessed / 4);
}

TEST(GdsAccel, NoWorkloadBalanceSchedulesPerEdge)
{
    GdsConfig cfg;
    cfg.workloadBalance = false;
    cfg.maxIterations = 5;
    const auto g = testGraph(2000, 32000, 33);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GdsAccel accel(cfg, g, *pr);
    const RunResult r = accel.run();
    EXPECT_EQ(r.schedulingOps, r.edgesProcessed);
}

TEST(GdsAccel, ZeroStallModeHasNoAtomicStalls)
{
    GdsConfig cfg;
    cfg.maxIterations = 5;
    const auto g = testGraph(2000, 32000, 34);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GdsAccel accel(cfg, g, *pr);
    const RunResult r = accel.run();
    EXPECT_EQ(r.atomicStalls, 0u);
}

TEST(GdsAccel, StallModeIncursAtomicStallsOnPr)
{
    GdsConfig cfg;
    cfg.zeroStallAtomics = false;
    cfg.maxIterations = 5;
    const auto g = testGraph(2000, 32000, 34);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GdsAccel accel(cfg, g, *pr);
    const RunResult r = accel.run();
    EXPECT_GT(r.atomicStalls, 0u);
}

TEST(GdsAccel, UpdateSchedulingSkipsWorkOnBfs)
{
    GdsConfig cfg;
    const auto g = testGraph(4000, 32000, 35);
    auto bfs = algo::makeAlgorithm(AlgorithmId::Bfs);
    GdsAccel accel(cfg, g, *bfs);
    RunOptions run;
    run.source = algo::defaultSource(g);
    const RunResult r = accel.run(run);
    // BFS touches few vertices per iteration; most groups must be skipped.
    EXPECT_GT(r.updatesSkipped, 0u);
}

TEST(GdsAccel, UpdateSchedulingOffSkipsNothing)
{
    GdsConfig cfg;
    cfg.updateScheduling = false;
    const auto g = testGraph(2000, 16000, 35);
    auto bfs = algo::makeAlgorithm(AlgorithmId::Bfs);
    GdsAccel accel(cfg, g, *bfs);
    RunOptions run;
    run.source = algo::defaultSource(g);
    const RunResult r = accel.run(run);
    EXPECT_EQ(r.updatesSkipped, 0u);
}

TEST(GdsAccel, PeLoadsCollectedWhenRequested)
{
    GdsConfig cfg;
    cfg.maxIterations = 4;
    const auto g = testGraph(2000, 32000, 36);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GdsAccel accel(cfg, g, *pr);
    RunOptions run;
    run.collectPeLoads = true;
    const RunResult r = accel.run(run);
    ASSERT_EQ(r.peLoads.size(), r.iterations);
    std::uint64_t total = 0;
    for (const auto &iter_loads : r.peLoads) {
        ASSERT_EQ(iter_loads.size(), cfg.numPes);
        for (const auto l : iter_loads)
            total += l;
    }
    EXPECT_EQ(total, r.edgesProcessed);
}

TEST(GdsAccel, WorkloadBalanceEvensPeLoads)
{
    GdsConfig cfg;
    cfg.maxIterations = 3;
    const auto g = testGraph(4000, 64000, 37);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GdsAccel accel(cfg, g, *pr);
    RunOptions run;
    run.collectPeLoads = true;
    const RunResult r = accel.run(run);
    // Heaviest iteration: per-PE load within 15% of the mean (Fig. 14b
    // shows ~1.00 +- 0.02 at full scale; small graphs are noisier).
    const auto &loads = r.peLoads.front();
    double mean = 0;
    for (const auto l : loads)
        mean += static_cast<double>(l);
    mean /= loads.size();
    for (const auto l : loads)
        EXPECT_NEAR(static_cast<double>(l), mean, mean * 0.15);
}

TEST(GdsAccel, ForcedSlicingPreservesResults)
{
    GdsConfig cfg;
    // Shrink the Vertex Buffer so a 3000-vertex graph needs 3 slices.
    cfg.vbBytesPerUe = 4096 / cfg.numUes * 128; // keep it divisible
    cfg.vbBytesPerUe = 32; // 128 UEs * 32 B / 4 B = 1024 vertices/slice
    const auto g = testGraph(3000, 24000, 38);
    auto sssp = algo::makeAlgorithm(AlgorithmId::Sssp);
    GdsAccel accel(cfg, g, *sssp);
    EXPECT_EQ(accel.numSlices(), 3u);
    expectMatchesReference(cfg, g, AlgorithmId::Sssp,
                           algo::defaultSource(g));
}

TEST(GdsAccel, ForcedSlicingPrPreservesResults)
{
    GdsConfig cfg;
    cfg.vbBytesPerUe = 32;
    cfg.maxIterations = 20;
    const auto g = testGraph(2500, 20000, 39);
    expectMatchesReference(cfg, g, AlgorithmId::Pr, 0);
}

TEST(GdsAccel, FootprintSmallerThanSrcVidFormats)
{
    const auto g = testGraph(2000, 16000, 40);
    auto bfs = algo::makeAlgorithm(AlgorithmId::Bfs);
    GdsAccel accel(GdsConfig{}, g, *bfs);
    // Unweighted run: edges at 4 B, active records at 12 B. The edge
    // array alone dominates; total must be below a src_vid design.
    const std::uint64_t edges4 = g.numEdges() * 4;
    EXPECT_GE(accel.footprintBytes(), edges4);
    EXPECT_LT(accel.footprintBytes(), edges4 * 3);
}

TEST(GdsAccel, WeightedAlgorithmNeedsWeights)
{
    const auto g = graph::uniform(100, 500, 1, false);
    auto sssp = algo::makeAlgorithm(AlgorithmId::Sssp);
    EXPECT_THROW(GdsAccel(GdsConfig{}, g, *sssp), ConfigError);
}

TEST(GdsAccel, SourceOutOfRange)
{
    const auto g = graph::uniform(100, 500, 1, true);
    auto bfs = algo::makeAlgorithm(AlgorithmId::Bfs);
    GdsAccel accel(GdsConfig{}, g, *bfs);
    RunOptions run;
    run.source = 100;
    EXPECT_THROW((void)accel.run(run), ConfigError);
}

/**
 * The full cross-product sweep: every algorithm, with every single
 * ablation knob disabled, still computes exactly the reference result
 * (the knobs change timing, never semantics).
 */
class AblationSweep
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, int>>
{};

TEST_P(AblationSweep, ResultsInvariantUnderKnobs)
{
    const auto [id, knob] = GetParam();
    GdsConfig cfg;
    // Near convergence, activation-gated PR is inherently sensitive to
    // the floating-point reduce order (a deactivated vertex's contribution
    // drops out of its neighbours' sums entirely), so the PR sweep stops
    // while every vertex is still active and trajectories stay comparable.
    cfg.maxIterations = id == AlgorithmId::Pr ? 8 : 25;
    switch (knob) {
      case 0:
        cfg.workloadBalance = false;
        break;
      case 1:
        cfg.exactPrefetch = false;
        break;
      case 2:
        cfg.zeroStallAtomics = false;
        break;
      case 3:
        cfg.updateScheduling = false;
        break;
      default:
        break; // full configuration
    }
    const auto g = testGraph(1200, 9600, 50 + knob);
    expectMatchesReference(cfg, g, id, algo::defaultSource(g));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllKnobs, AblationSweep,
    ::testing::Combine(::testing::Values(AlgorithmId::Bfs,
                                         AlgorithmId::Sssp, AlgorithmId::Cc,
                                         AlgorithmId::Sswp,
                                         AlgorithmId::Pr),
                       ::testing::Values(0, 1, 2, 3, 4)));

/** UE-count sweep (Fig. 14e hardware space) preserves results. */
class UeSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(UeSweep, ResultsInvariantUnderUeCount)
{
    GdsConfig cfg;
    cfg.numUes = GetParam();
    cfg.maxIterations = 20;
    const auto g = testGraph(1500, 12000, 60);
    expectMatchesReference(cfg, g, AlgorithmId::Sssp,
                           algo::defaultSource(g));
}

INSTANTIATE_TEST_SUITE_P(UeCounts, UeSweep,
                         ::testing::Values(32u, 64u, 128u, 256u));

} // namespace
} // namespace gds::core
