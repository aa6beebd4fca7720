/**
 * @file
 * End-to-end tests of the Graphicionado baseline model: functional
 * equivalence with the reference engine, the behaviours the GraphDynS
 * paper attributes to it (hash-placement imbalance, atomic stalls, full
 * Apply sweep, src_vid storage overhead), and cross-model comparisons
 * against GraphDynS (speedup/traffic/footprint directions of Figs. 6-12).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "algo/reference_engine.hh"
#include "baseline/graphicionado.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"

namespace gds::baseline
{
namespace
{

using algo::AlgorithmId;

graph::Csr
testGraph(VertexId v_count, EdgeId e_count, std::uint64_t seed)
{
    return graph::powerLaw(v_count, e_count, 0.6, seed, /*weighted=*/true);
}

void
expectMatchesReference(const GraphicionadoConfig &cfg, const graph::Csr &g,
                       AlgorithmId id, VertexId source)
{
    auto algo_ref = algo::makeAlgorithm(id);
    algo::ReferenceOptions ref_opts;
    ref_opts.maxIterations = cfg.maxIterations;
    const auto golden = algo::runReference(g, *algo_ref, source, ref_opts);

    auto algo_sim = algo::makeAlgorithm(id);
    GraphicionadoAccel accel(cfg, g, *algo_sim);
    core::RunOptions run;
    run.source = source;
    const core::RunResult result = accel.run(run);

    ASSERT_EQ(result.properties.size(), golden.properties.size());
    if (id == AlgorithmId::Pr) {
        // See test_gds_accel.cc: activation-gated PR is order-dependent.
        double err_sum = 0.0;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
            const double want = golden.properties[v];
            err_sum += std::fabs(result.properties[v] - want) /
                       std::max(std::fabs(want), 1e-12);
        }
        EXPECT_LT(err_sum / g.numVertices(), 0.02);
        return;
    }
    EXPECT_EQ(result.iterations, golden.iterations);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        EXPECT_EQ(result.properties[v], golden.properties[v])
            << algo_ref->name() << " vertex " << v;
    }
    EXPECT_EQ(result.edgesProcessed, golden.totalEdgesProcessed);
}

TEST(Graphicionado, BfsMatchesReference)
{
    const auto g = testGraph(2000, 16000, 81);
    expectMatchesReference(GraphicionadoConfig{}, g, AlgorithmId::Bfs,
                           algo::defaultSource(g));
}

TEST(Graphicionado, SsspMatchesReference)
{
    const auto g = testGraph(2000, 16000, 82);
    expectMatchesReference(GraphicionadoConfig{}, g, AlgorithmId::Sssp,
                           algo::defaultSource(g));
}

TEST(Graphicionado, CcMatchesReference)
{
    const auto g = testGraph(1500, 12000, 83);
    expectMatchesReference(GraphicionadoConfig{}, g, AlgorithmId::Cc, 0);
}

TEST(Graphicionado, SswpMatchesReference)
{
    const auto g = testGraph(1500, 12000, 84);
    expectMatchesReference(GraphicionadoConfig{}, g, AlgorithmId::Sswp,
                           algo::defaultSource(g));
}

TEST(Graphicionado, PrMatchesReference)
{
    GraphicionadoConfig cfg;
    cfg.maxIterations = 8;
    const auto g = testGraph(1000, 8000, 85);
    expectMatchesReference(cfg, g, AlgorithmId::Pr, 0);
}

TEST(Graphicionado, AtomicStallsOccurOnSkewedGraphs)
{
    GraphicionadoConfig cfg;
    cfg.maxIterations = 5;
    const auto g = testGraph(2000, 32000, 86);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GraphicionadoAccel accel(cfg, g, *pr);
    const auto r = accel.run();
    EXPECT_GT(r.atomicStalls, 0u);
}

TEST(Graphicionado, InconsistentConfigsThrowConfigError)
{
    const auto g = testGraph(64, 256, 5);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GraphicionadoConfig no_queue;
    no_queue.streamQueueRecords = 0;
    EXPECT_THROW(GraphicionadoAccel(no_queue, g, *pr), ConfigError);
    GraphicionadoConfig no_streams;
    no_streams.numStreams = 0;
    EXPECT_THROW(GraphicionadoAccel(no_streams, g, *pr), ConfigError);
    // The RAW wake ring holds one slot per cycle of the window.
    GraphicionadoConfig huge_window;
    huge_window.atomicPipelineDepth = Cycle{1} << 40;
    EXPECT_THROW(GraphicionadoAccel(huge_window, g, *pr), ConfigError);
}

TEST(Graphicionado, NeverSkipsUpdates)
{
    const auto g = testGraph(2000, 16000, 87);
    auto bfs = algo::makeAlgorithm(AlgorithmId::Bfs);
    GraphicionadoAccel accel(GraphicionadoConfig{}, g, *bfs);
    core::RunOptions run;
    run.source = algo::defaultSource(g);
    const auto r = accel.run(run);
    EXPECT_EQ(r.updatesSkipped, 0u);
    // Full sweep: applyOps == V per iteration.
    EXPECT_EQ(accel.statsGroup().scalar("applyOps").value(),
              static_cast<double>(g.numVertices()) * r.iterations);
}

TEST(Graphicionado, HashPlacementIsImbalanced)
{
    GraphicionadoConfig cfg;
    cfg.maxIterations = 2;
    const auto g = testGraph(4000, 64000, 88);
    auto pr = algo::makeAlgorithm(AlgorithmId::Pr);
    GraphicionadoAccel accel(cfg, g, *pr);
    core::RunOptions run;
    run.collectPeLoads = true;
    const auto r = accel.run(run);
    // On a power-law graph the hub's stream carries far more than the
    // mean (Sec. 3.2: "only half of the pipelines experiencing
    // workloads").
    const auto &loads = r.peLoads.front();
    double mean = 0;
    for (const auto l : loads)
        mean += static_cast<double>(l);
    mean /= loads.size();
    double max_load = 0;
    for (const auto l : loads)
        max_load = std::max(max_load, static_cast<double>(l));
    EXPECT_GT(max_load, 2.0 * mean);
}

TEST(Graphicionado, FootprintLargerThanGraphDynS)
{
    const auto g = testGraph(2000, 16000, 89);
    auto bfs_a = algo::makeAlgorithm(AlgorithmId::Bfs);
    auto bfs_b = algo::makeAlgorithm(AlgorithmId::Bfs);
    GraphicionadoAccel graphicionado(GraphicionadoConfig{}, g, *bfs_a);
    core::GdsAccel gds(core::GdsConfig{}, g, *bfs_b);
    // src_vid-tagged edges roughly double unweighted edge storage.
    EXPECT_GT(graphicionado.footprintBytes(), gds.footprintBytes());
}

TEST(Graphicionado, SlicingPreservesResults)
{
    GraphicionadoConfig cfg;
    cfg.onChipBytes = 1024 * bytesPerWord; // 1024-vertex slices
    const auto g = testGraph(3000, 24000, 90);
    auto sssp = algo::makeAlgorithm(AlgorithmId::Sssp);
    GraphicionadoAccel accel(cfg, g, *sssp);
    EXPECT_EQ(accel.numSlices(), 3u);
    expectMatchesReference(cfg, g, AlgorithmId::Sssp,
                           algo::defaultSource(g));
}

TEST(Graphicionado, GraphDynSIsFasterOnPr)
{
    // The headline comparison (Fig. 6 direction): GraphDynS beats
    // Graphicionado on the same memory system.
    const auto g = testGraph(20000, 320000, 91);
    auto pr_a = algo::makeAlgorithm(AlgorithmId::Pr);
    auto pr_b = algo::makeAlgorithm(AlgorithmId::Pr);
    GraphicionadoConfig gi_cfg;
    gi_cfg.maxIterations = 5;
    core::GdsConfig gds_cfg;
    gds_cfg.maxIterations = 5;
    GraphicionadoAccel graphicionado(gi_cfg, g, *pr_a);
    core::GdsAccel gds(gds_cfg, g, *pr_b);
    const auto r_gi = graphicionado.run();
    const auto r_gds = gds.run();
    EXPECT_LT(r_gds.cycles, r_gi.cycles);
    // Fig. 12 direction: GraphDynS moves fewer bytes (no src_vid, no
    // sentinel reads, selective updates).
    EXPECT_LT(r_gds.memoryBytes, r_gi.memoryBytes);
}

/** All algorithms x graph families produce reference results. */
class GraphicionadoSweep
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, unsigned>>
{};

TEST_P(GraphicionadoSweep, MatchesReference)
{
    const auto [id, family] = GetParam();
    GraphicionadoConfig cfg;
    cfg.maxIterations = id == AlgorithmId::Pr ? 8 : 25;
    graph::Csr g = family == 0 ? testGraph(1200, 9600, 92)
                   : family == 1
                       ? graph::uniform(1200, 9600, 93, true)
                       : graph::rmat(10, 8, 94, {}, true);
    expectMatchesReference(cfg, g, id, algo::defaultSource(g));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllFamilies, GraphicionadoSweep,
    ::testing::Combine(::testing::Values(AlgorithmId::Bfs,
                                         AlgorithmId::Sssp, AlgorithmId::Cc,
                                         AlgorithmId::Sswp,
                                         AlgorithmId::Pr),
                       ::testing::Values(0u, 1u, 2u)));

} // namespace
} // namespace gds::baseline
