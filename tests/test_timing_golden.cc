/**
 * @file
 * Golden timing pins: the simulated cycle count and an FNV-1a hash of the
 * end-of-run stats JSON of both accelerator models, for PR, BFS and
 * weighted SSSP on one RMAT graph, at the default configuration and at a
 * forced multi-slice one.
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

/** One pinned run and its expected outcome. */
struct Golden
{
    const char *name;
    bool graphicionado;
    AlgorithmId algorithm;
    bool sliced;
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
        if (c.sliced)
            cfg.onChipBytes = 256 * bytesPerWord; // 256-vertex slices
        baseline::GraphicionadoAccel accel(cfg, g, *algorithm);
        return observe(accel, g);
    }
    core::GdsConfig cfg;
    cfg.maxIterations = max_iterations;
    if (c.sliced)
        cfg.vbBytesPerUe = 8; // 128 UEs x 8 B / 4 B = 256-vertex slices
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
    if (c.sliced)
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
// only the number formatter swapped yields them, and no cycle moved.
const Golden kGolden[] = {
    {"gds_pr_default", false, AlgorithmId::Pr, false,
     11723u, 0xe25cd6fff8477276ULL},
    {"gds_bfs_default", false, AlgorithmId::Bfs, false,
     1534u, 0x609ea6db0461f1bfULL},
    {"gds_sssp_default", false, AlgorithmId::Sssp, false,
     3103u, 0x760f3f20f5af74e0ULL},
    {"gds_pr_sliced", false, AlgorithmId::Pr, true,
     24986u, 0x31f24d887042b9f1ULL},
    {"gds_bfs_sliced", false, AlgorithmId::Bfs, true,
     3814u, 0xb29fc4b2e54c34e9ULL},
    {"gds_sssp_sliced", false, AlgorithmId::Sssp, true,
     7528u, 0xf810bf4bd102315bULL},
    {"gi_pr_default", true, AlgorithmId::Pr, false,
     34748u, 0x7e87c9319bc27c4fULL},
    {"gi_bfs_default", true, AlgorithmId::Bfs, false,
     4806u, 0x96c63526f70a47ebULL},
    {"gi_sssp_default", true, AlgorithmId::Sssp, false,
     8866u, 0x73606033dfdd5805ULL},
    {"gi_pr_sliced", true, AlgorithmId::Pr, true,
     63434u, 0x5e5f44ab8ae99ebbULL},
    {"gi_bfs_sliced", true, AlgorithmId::Bfs, true,
     8309u, 0x865a9daf145e81e5ULL},
    {"gi_sssp_sliced", true, AlgorithmId::Sssp, true,
     16172u, 0xa39c287c01de664eULL},
};

INSTANTIATE_TEST_SUITE_P(Runs, TimingGolden, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden> &p) {
                             return std::string(p.param.name);
                         });

} // namespace
} // namespace gds
