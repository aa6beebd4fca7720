/**
 * @file
 * Golden timing pins: the simulated cycle count and an FNV-1a hash of the
 * end-of-run stats JSON of both accelerator models, for PR, BFS, CC and
 * weighted SSSP on one RMAT graph, at the default configuration, at a
 * forced multi-slice one, with GraphDynS's stalling (non-zero-stall) UE
 * atomics, and at two Graphicionado RAW-window depths. Four more variants
 * pin the memory front end's fetch and store paths: GraphDynS's 64 B-
 * aligned (non-exact) edge parts, its edge-buffer budget, its store queue
 * with every group applied, and Graphicionado's one-record stream batches.
 *
 * The fast-forward equivalence suite compares two modes of one build, so
 * it cannot notice a change that shifts both modes alike; these pins can.
 * A host-performance change must leave every value here untouched. A
 * deliberate timing-model change updates the table (the failure message
 * prints the replacement row).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "common/bitutil.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"
#include "stats/json.hh"

namespace gds
{
namespace
{

using algo::AlgorithmId;

/** How a pinned run's configuration departs from the defaults. */
enum class Variant
{
    Default,
    Sliced,       ///< on-chip storage for 256 vertices: four slices
    StallAtomics, ///< GraphDynS UEs stall on RAW conflicts
    Depth1,       ///< Graphicionado RAW window of one cycle
    Depth5,       ///< Graphicionado RAW window of five cycles
    InexactPrefetch,  ///< GraphDynS edge parts over-fetched to 64 B lines
    EprefBuffer64,    ///< GraphDynS edge buffer of 64 edges: budget-
                      ///< blocked records and oversize records alone
    NoUpdateSchedule, ///< GraphDynS Apply sweeps every group
    VprefBatch1,      ///< Graphicionado streams one record per request
};

/** One pinned run and its expected outcome. */
struct Golden
{
    const char *name;
    bool graphicionado;
    AlgorithmId algorithm;
    Variant variant;
    Cycle cycles;
    std::uint64_t statsHash;
};

/** Cycles plus stats-JSON hash of one run. */
struct Observed
{
    Cycle cycles = 0;
    std::uint64_t statsHash = 0;
    unsigned slices = 0;
    bool completed = false;
};

const graph::Csr &
goldenGraph()
{
    static const graph::Csr g = graph::rmat(10, 16, 42, {}, true);
    return g;
}

template <typename Accel>
Observed
observe(Accel &accel, const graph::Csr &g)
{
    core::RunOptions run;
    run.source = algo::defaultSource(g);
    const core::RunResult result = accel.run(run);
    std::ostringstream json;
    stats::dumpJson(accel.statsGroup(), json);
    const std::string text = json.str();
    Observed o;
    o.cycles = result.cycles;
    o.statsHash = fnv1a64(text.data(), text.size());
    o.slices = accel.numSlices();
    o.completed = result.completed();
    return o;
}

Observed
runGolden(const Golden &c)
{
    const graph::Csr &g = goldenGraph();
    auto algorithm = algo::makeAlgorithm(c.algorithm);
    // PR is capped: the pins need cycles, not convergence.
    const unsigned max_iterations =
        c.algorithm == AlgorithmId::Pr ? 10u : 1000u;
    if (c.graphicionado) {
        baseline::GraphicionadoConfig cfg;
        cfg.maxIterations = max_iterations;
        if (c.variant == Variant::Sliced)
            cfg.onChipBytes = 256 * bytesPerWord; // 256-vertex slices
        if (c.variant == Variant::Depth1)
            cfg.atomicPipelineDepth = 1;
        if (c.variant == Variant::Depth5)
            cfg.atomicPipelineDepth = 5;
        if (c.variant == Variant::VprefBatch1)
            cfg.vprefBatch = 1;
        baseline::GraphicionadoAccel accel(cfg, g, *algorithm);
        return observe(accel, g);
    }
    core::GdsConfig cfg;
    cfg.maxIterations = max_iterations;
    if (c.variant == Variant::Sliced)
        cfg.vbBytesPerUe = 8; // 128 UEs x 8 B / 4 B = 256-vertex slices
    if (c.variant == Variant::StallAtomics)
        cfg.zeroStallAtomics = false;
    if (c.variant == Variant::InexactPrefetch)
        cfg.exactPrefetch = false;
    if (c.variant == Variant::EprefBuffer64)
        cfg.eprefBufferEdges = 64;
    if (c.variant == Variant::NoUpdateSchedule)
        cfg.updateScheduling = false;
    core::GdsAccel accel(cfg, g, *algorithm);
    return observe(accel, g);
}

/** Test-name-friendly printer (gtest would dump the raw bytes). */
void
PrintTo(const Golden &c, std::ostream *os)
{
    *os << c.name;
}

class TimingGolden : public ::testing::TestWithParam<Golden>
{};

TEST_P(TimingGolden, CyclesAndStatsArePinned)
{
    const Golden &c = GetParam();
    const Observed o = runGolden(c);
    ASSERT_TRUE(o.completed);
    if (c.variant == Variant::Sliced)
        EXPECT_EQ(o.slices, 4u);
    else
        EXPECT_EQ(o.slices, 1u);
    char row[128];
    std::snprintf(row, sizeof row, "observed row: %lluu, 0x%016llxULL",
                  static_cast<unsigned long long>(o.cycles),
                  static_cast<unsigned long long>(o.statsHash));
    SCOPED_TRACE(row);
    EXPECT_EQ(o.cycles, c.cycles);
    EXPECT_EQ(o.statsHash, c.statsHash);
}

// Captured from the model before the scatter-datapath host-performance
// rework; every later change must reproduce them exactly. The four PR
// statsHash values were re-captured when JSON numbers became exact (the
// old 6-digit rendering rounded PR's large counters); the same model with
// only the number formatter swapped yields them, and no cycle moved. The
// last five rows (CC, stalling UEs, RAW-window depths) were captured from
// the model before the stream head registers, sleeping RAW-stalled streams
// and the UE occupancy mask.
const Golden kGolden[] = {
    {"gds_pr_default", false, AlgorithmId::Pr, Variant::Default,
     11723u, 0xe25cd6fff8477276ULL},
    {"gds_bfs_default", false, AlgorithmId::Bfs, Variant::Default,
     1534u, 0x609ea6db0461f1bfULL},
    {"gds_sssp_default", false, AlgorithmId::Sssp, Variant::Default,
     3103u, 0x760f3f20f5af74e0ULL},
    {"gds_pr_sliced", false, AlgorithmId::Pr, Variant::Sliced,
     24986u, 0x31f24d887042b9f1ULL},
    {"gds_bfs_sliced", false, AlgorithmId::Bfs, Variant::Sliced,
     3814u, 0xb29fc4b2e54c34e9ULL},
    {"gds_sssp_sliced", false, AlgorithmId::Sssp, Variant::Sliced,
     7528u, 0xf810bf4bd102315bULL},
    {"gi_pr_default", true, AlgorithmId::Pr, Variant::Default,
     34748u, 0x7e87c9319bc27c4fULL},
    {"gi_bfs_default", true, AlgorithmId::Bfs, Variant::Default,
     4806u, 0x96c63526f70a47ebULL},
    {"gi_sssp_default", true, AlgorithmId::Sssp, Variant::Default,
     8866u, 0x73606033dfdd5805ULL},
    {"gi_pr_sliced", true, AlgorithmId::Pr, Variant::Sliced,
     63434u, 0x5e5f44ab8ae99ebbULL},
    {"gi_bfs_sliced", true, AlgorithmId::Bfs, Variant::Sliced,
     8309u, 0x865a9daf145e81e5ULL},
    {"gi_sssp_sliced", true, AlgorithmId::Sssp, Variant::Sliced,
     16172u, 0xa39c287c01de664eULL},
    {"gds_cc_default", false, AlgorithmId::Cc, Variant::Default,
     3822u, 0xfc2b103890ea42acULL},
    {"gi_cc_default", true, AlgorithmId::Cc, Variant::Default,
     11001u, 0x96c75e9691e3e8b5ULL},
    {"gds_pr_stall_atomics", false, AlgorithmId::Pr, Variant::StallAtomics,
     31745u, 0xcd4f303d9a9dca73ULL},
    {"gi_pr_depth1", true, AlgorithmId::Pr, Variant::Depth1,
     16111u, 0x9b9f16ee918a1a0bULL},
    {"gi_pr_depth5", true, AlgorithmId::Pr, Variant::Depth5,
     54512u, 0x63cfbcd981817713ULL},
    // Captured from the model before the record stream, the edge
    // part-fetch and the store queue moved into the shared frame.
    {"gds_pr_inexact_prefetch", false, AlgorithmId::Pr,
     Variant::InexactPrefetch, 11705u, 0x5ed022261184e730ULL},
    {"gds_bfs_inexact_prefetch", false, AlgorithmId::Bfs,
     Variant::InexactPrefetch, 1526u, 0x3c53d9cbbfd81a57ULL},
    {"gds_pr_epref_buffer64", false, AlgorithmId::Pr,
     Variant::EprefBuffer64, 32522u, 0xf44826b26bca26a2ULL},
    {"gds_sssp_epref_buffer64", false, AlgorithmId::Sssp,
     Variant::EprefBuffer64, 10872u, 0x425abeae2037fe86ULL},
    {"gds_sssp_no_update_schedule", false, AlgorithmId::Sssp,
     Variant::NoUpdateSchedule, 3181u, 0xfdd672307f2617d2ULL},
    {"gds_bfs_no_update_schedule", false, AlgorithmId::Bfs,
     Variant::NoUpdateSchedule, 1594u, 0x0855bb251791feacULL},
    {"gi_pr_vpref_batch1", true, AlgorithmId::Pr, Variant::VprefBatch1,
     34798u, 0xca68c8bdd5034cbcULL},
    {"gi_bfs_vpref_batch1", true, AlgorithmId::Bfs, Variant::VprefBatch1,
     4813u, 0x181eb74ac3df3388ULL},
};

INSTANTIATE_TEST_SUITE_P(Runs, TimingGolden, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden> &p) {
                             return std::string(p.param.name);
                         });

} // namespace
} // namespace gds
