/**
 * @file
 * Tests for the compile-time and runtime configuration contracts
 * (core/config.hh, baseline/graphicionado.hh, baseline/gunrock_sim.hh,
 * mem/hbm.hh): the constexpr predicates, the consteval gate on the
 * default config, validateConfig() for configs built at runtime, and the
 * constructors that enforce them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "baseline/gunrock_sim.hh"
#include "common/error.hh"
#include "core/config.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"

namespace gds::core
{
namespace
{

/** Build a default config with one field overridden by @p mutate. */
template <typename F>
constexpr GdsConfig
with(F mutate)
{
    GdsConfig c;
    mutate(c);
    return c;
}

// --- Compile-time checks: these fail the build, not the test run. ---

// The paper's default configuration satisfies every contract.
static_assert(configContractsHold(GdsConfig{}));

// The consteval gate accepts it (and would reject a bad one at compile
// time: checkedConfig with nSimt = 3 is a compile error, demonstrated by
// the commented line below and by the GdsLint fixture documentation).
constexpr GdsConfig checkedDefault = checkedConfig(GdsConfig{});
static_assert(checkedDefault.nSimt == 8);
// constexpr GdsConfig bad = checkedConfig(with([](GdsConfig &c) {
//     c.nSimt = 3; })); // does not compile: nSimt must be a power of two

// Non-power-of-two fabric widths are contract violations.
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.nSimt = 3; })));
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.numPes = 12; })));
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.numUes = 100; })));

// HBM rows must be made of whole transactions.
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.hbm.rowBytes = 1000; })));
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.hbm.txBytes = 24; })));

// Zero fields are covered at runtime by the fields() walk below.

// --- Runtime checks for configs built from files or sweep axes. ---

TEST(ConfigContracts, DefaultConfigValidates)
{
    EXPECT_TRUE(validateConfig(GdsConfig{}).ok());
    EXPECT_EQ(configContractViolation(GdsConfig{}), nullptr);
}

TEST(ConfigContracts, ViolationNamesTheField)
{
    GdsConfig c;
    c.nSimt = 3;
    const Status status = validateConfig(c);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), ErrorCode::Config);
    EXPECT_NE(status.message().find("nSimt"), std::string::npos);
    EXPECT_NE(status.message().find("power of two"), std::string::npos);
}

TEST(ConfigContracts, FirstViolationWins)
{
    GdsConfig c;
    c.numPes = 0;
    c.nSimt = 0;
    const char *violation = configContractViolation(c);
    ASSERT_NE(violation, nullptr);
    EXPECT_NE(std::string(violation).find("numPes"), std::string::npos);
}

TEST(ConfigContracts, HbmGeometryChecked)
{
    GdsConfig c;
    c.hbm.rowBytes = 48; // not a multiple of txBytes = 32
    const Status status = validateConfig(c);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("rowBytes"), std::string::npos);
}

TEST(ConfigContracts, SliceCapacityStillSaneUnderContracts)
{
    // The smallest contract-satisfying VB still holds one word per UE.
    GdsConfig c;
    c.vbBytesPerUe = bytesPerWord;
    EXPECT_TRUE(validateConfig(c).ok());
    EXPECT_GE(c.sliceCapacity(), c.numUes);
}

// The fields where 0 is supported: the iteration cap (the run returns
// the initial properties), the Fig. 14 WB/EP/AO/US ablation switches, a
// single-cycle VB read, Graphicionado without RAW stall windows, and
// zero-latency DRAM timing. Every other field must be rejected.
const std::set<std::string> kZeroIsLegal = {
    "maxIterations", "workloadBalance", "exactPrefetch", "zeroStallAtomics",
    "updateScheduling", "vbLatency", "atomicPipelineDepth", "hbm.tCl",
    "hbm.tRcd", "hbm.tRp", "hbm.tCcd", "hbm.tRrd", "hbm.tRfcPerBank"};

/**
 * Zero each field of a default @p Config in turn (false for a bool) and
 * build an @p Accel from it. A rejected zero used to divide by zero,
 * deadlock a queue or abort in the HBM; the constructors now refuse it
 * up front. A legal zero must run to completion.
 */
template <typename Accel, typename Config>
void
expectEveryZeroRejectedOrRunnable(const graph::Csr &g,
                                  algo::VcpmAlgorithm &a)
{
    Config c;
    auto v = [&](const std::string &name, auto &field) {
        SCOPED_TRACE(name);
        const auto saved = field;
        field = {};
        if (kZeroIsLegal.count(name) != 0) {
            EXPECT_EQ(configContractViolation(c), nullptr);
            EXPECT_EQ(Accel(c, g, a).run().report.outcome,
                      sim::RunOutcome::Completed);
        } else {
            EXPECT_NE(configContractViolation(c), nullptr);
            EXPECT_THROW(Accel(c, g, a), ConfigError);
            if (name.rfind("hbm.", 0) == 0) {
                EXPECT_THROW(mem::Hbm(c.hbm, nullptr), ConfigError);
            }
        }
        field = saved;
    };
    Config::fields(c, v);
}

TEST(ConfigContracts, ZeroFieldsRaiseConfigErrorOnBothModels)
{
    const graph::Csr g = graph::rmat(6, 4, 1);
    auto bfs = algo::makeAlgorithm(algo::AlgorithmId::Bfs);
    expectEveryZeroRejectedOrRunnable<GdsAccel, GdsConfig>(g, *bfs);
    expectEveryZeroRejectedOrRunnable<baseline::GraphicionadoAccel,
                                      baseline::GraphicionadoConfig>(g,
                                                                     *bfs);
}

// The Gunrock fields where 0 is supported: the per-edge, per-vertex,
// atomic, launch and preprocessing costs (that work becomes free), a
// cache that never hits, a board that idles at 0 W, and the iteration
// cap. The clock, core count, warp size, bandwidth and sector size are
// divisors or sizes, and activePowerW = 0 falls below idlePowerW.
const std::set<std::string> kGunrockZeroIsLegal = {
    "cyclesPerEdge",      "cyclesPerApply",      "atomicSerializeNs",
    "vertexPropHitRate",  "kernelLaunchUs",      "preprocessNsPerEdge",
    "preprocessNsPerVertex", "idlePowerW",       "maxIterations"};

TEST(ConfigContracts, ZeroGunrockFieldsRaiseConfigErrorOrModelFinitely)
{
    const graph::Csr g = graph::rmat(6, 4, 1);
    auto bfs = algo::makeAlgorithm(algo::AlgorithmId::Bfs);
    baseline::GunrockConfig c;
    auto v = [&](const std::string &name, auto &field) {
        SCOPED_TRACE(name);
        const auto saved = field;
        field = {};
        if (kGunrockZeroIsLegal.count(name) != 0) {
            EXPECT_EQ(baseline::gunrockContractViolation(c), nullptr);
            const baseline::GunrockResult r =
                baseline::GunrockSim(c, g, *bfs).run(0);
            EXPECT_TRUE(std::isfinite(r.seconds));
            EXPECT_TRUE(std::isfinite(r.energyJoules));
        } else {
            EXPECT_NE(baseline::gunrockContractViolation(c), nullptr);
            EXPECT_THROW(baseline::GunrockSim(c, g, *bfs), ConfigError);
        }
        field = saved;
    };
    baseline::GunrockConfig::fields(c, v);
}

TEST(ConfigContracts, GunrockRejectsNegativeAndOutOfRangeValues)
{
    baseline::GunrockConfig c;
    c.clockGhz = -1.0;
    EXPECT_NE(baseline::gunrockContractViolation(c), nullptr);
    c = {};
    c.kernelLaunchUs = -4.0;
    EXPECT_NE(baseline::gunrockContractViolation(c), nullptr);
    c = {};
    c.vertexPropHitRate = 1.5;
    EXPECT_NE(baseline::gunrockContractViolation(c), nullptr);
    c = {};
    c.memBandwidthGBs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(baseline::gunrockContractViolation(c), nullptr);
}

} // namespace
} // namespace gds::core
