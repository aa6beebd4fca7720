/**
 * @file
 * Robustness sweeps over the GraphDynS configuration space: extreme
 * queue depths, buffer budgets, batch sizes, SIMT widths and fabric
 * sizes must never deadlock or change functional results -- they may
 * only change timing. This is the failure-injection net for the
 * backpressure and flow-control logic.
 */

#include <gtest/gtest.h>

#include "algo/reference_engine.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"

namespace gds::core
{
namespace
{

graph::Csr
sweepGraph()
{
    static const graph::Csr g =
        graph::powerLaw(1200, 9600, 0.65, 99, /*weighted=*/true);
    return g;
}

void
expectSsspCorrect(const GdsConfig &cfg)
{
    const graph::Csr g = sweepGraph();
    const VertexId source = algo::defaultSource(g);

    auto ref_algo = algo::makeAlgorithm(algo::AlgorithmId::Sssp);
    const auto golden = algo::runReference(g, *ref_algo, source);

    auto sim_algo = algo::makeAlgorithm(algo::AlgorithmId::Sssp);
    GdsAccel accel(cfg, g, *sim_algo);
    RunOptions run;
    run.source = source;
    const RunResult result = accel.run(run);

    ASSERT_EQ(result.iterations, golden.iterations);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_EQ(result.properties[v], golden.properties[v]);
}

TEST(ConfigSweep, TinyPeQueues)
{
    GdsConfig cfg;
    // The queue must cover the largest whole-list dispatch, so shrink
    // the split threshold along with it.
    cfg.peQueueEdges = 16;
    cfg.eThreshold = 16;
    cfg.eListSize = 8;
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, QueueSmallerThanDispatchUnitIsRejected)
{
    GdsConfig cfg;
    cfg.peQueueEdges = 16; // < eThreshold (128): a latent deadlock
    const graph::Csr g = sweepGraph();
    auto sssp = algo::makeAlgorithm(algo::AlgorithmId::Sssp);
    EXPECT_THROW(GdsAccel(cfg, g, *sssp), ConfigError);
}

TEST(ConfigSweep, TinyVpb)
{
    GdsConfig cfg;
    cfg.vpbRecords = 2;
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, TinyEprefBudget)
{
    GdsConfig cfg;
    cfg.eprefBufferEdges = 64; // hubs exceed this: solo-oversize path
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, SingleEntryUeInboxes)
{
    GdsConfig cfg;
    cfg.ueQueueDepth = 1;
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, SingleRecordVprefBatches)
{
    GdsConfig cfg;
    cfg.vprefBatch = 1;
    cfg.vprefMaxInflight = 4;
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, UnbatchedAuStores)
{
    GdsConfig cfg;
    cfg.auBatchRecords = 1;
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, TinyApplyWindow)
{
    GdsConfig cfg;
    cfg.applyMaxInflightGroups = 1;
    cfg.applyListQueue = 2;
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, LowSplitThreshold)
{
    GdsConfig cfg;
    cfg.eThreshold = 4; // nearly every list splits
    cfg.eListSize = 4;
    expectSsspCorrect(cfg);
}

TEST(ConfigSweep, MinimalEverything)
{
    GdsConfig cfg;
    cfg.peQueueEdges = 16;
    cfg.eThreshold = 16;
    cfg.eListSize = 8;
    cfg.vpbRecords = 2;
    cfg.eprefBufferEdges = 64;
    cfg.ueQueueDepth = 1;
    cfg.vprefBatch = 1;
    cfg.vprefMaxInflight = 2;
    cfg.eprefMaxInflight = 2;
    cfg.auBatchRecords = 1;
    cfg.applyMaxInflightGroups = 1;
    cfg.applyListQueue = 1;
    expectSsspCorrect(cfg);
}

/** Fabric-shape sweep: (numPes, nSimt, numUes). */
class FabricSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned,
                                                 unsigned>>
{};

TEST_P(FabricSweep, FunctionalAcrossFabricShapes)
{
    const auto [pes, simt, ues] = GetParam();
    GdsConfig cfg;
    cfg.numPes = pes;
    cfg.nSimt = simt;
    cfg.numUes = ues;
    expectSsspCorrect(cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FabricSweep,
    ::testing::Values(std::make_tuple(8u, 8u, 64u),
                      std::make_tuple(8u, 4u, 32u),
                      std::make_tuple(16u, 16u, 128u),
                      std::make_tuple(32u, 8u, 128u),
                      std::make_tuple(4u, 2u, 16u)));

/** Tight configs must be slower, never wrong: check timing monotonicity
 *  of one representative pairing. */
TEST(ConfigSweep, TightConfigIsSlowerNotWrong)
{
    const graph::Csr g = sweepGraph();
    auto a1 = algo::makeAlgorithm(algo::AlgorithmId::Sssp);
    auto a2 = algo::makeAlgorithm(algo::AlgorithmId::Sssp);
    GdsConfig roomy;
    GdsConfig tight;
    tight.vprefMaxInflight = 2;
    tight.eprefMaxInflight = 2;
    tight.ueQueueDepth = 1;
    GdsAccel fast(roomy, g, *a1);
    GdsAccel slow(tight, g, *a2);
    RunOptions run;
    run.source = algo::defaultSource(g);
    const auto r_fast = fast.run(run);
    const auto r_slow = slow.run(run);
    EXPECT_LE(r_fast.cycles, r_slow.cycles);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        ASSERT_EQ(r_fast.properties[v], r_slow.properties[v]);
}

} // namespace
} // namespace gds::core
