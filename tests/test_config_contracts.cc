/**
 * @file
 * Tests for the compile-time and runtime configuration contracts
 * (core/config.hh, baseline/graphicionado.hh, mem/hbm.hh): the constexpr
 * predicates, the consteval gate on the default config, validateConfig()
 * for configs built at runtime, and the constructors that enforce them.
 */

#include <gtest/gtest.h>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
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

// Zero-depth queues deadlock the pipeline and are rejected.
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.ueQueueDepth = 0; })));
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.hbm.queueDepth = 0; })));

// HBM rows must be made of whole transactions.
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.hbm.rowBytes = 1000; })));
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.hbm.txBytes = 24; })));

// Scheduling parameters must be nonzero.
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.eThreshold = 0; })));
static_assert(!configContractsHold(with([](GdsConfig &c) {
    c.eListSize = 0; })));

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

/** A configuration field that must not be zero, and how to zero it. */
template <typename Config>
struct ZeroField
{
    const char *name;
    void (*zero)(Config &);
};

const ZeroField<GdsConfig> kGdsZeroFields[] = {
    {"numDispatchers", [](GdsConfig &c) { c.numDispatchers = 0; }},
    {"numPes", [](GdsConfig &c) { c.numPes = 0; }},
    {"nSimt", [](GdsConfig &c) { c.nSimt = 0; }},
    {"numUes", [](GdsConfig &c) { c.numUes = 0; }},
    {"eThreshold", [](GdsConfig &c) { c.eThreshold = 0; }},
    {"eListSize", [](GdsConfig &c) { c.eListSize = 0; }},
    {"vListSize", [](GdsConfig &c) { c.vListSize = 0; }},
    {"vbBytesPerUe", [](GdsConfig &c) { c.vbBytesPerUe = 0; }},
    {"rbGroupSize", [](GdsConfig &c) { c.rbGroupSize = 0; }},
    {"ueQueueDepth", [](GdsConfig &c) { c.ueQueueDepth = 0; }},
    {"peQueueEdges", [](GdsConfig &c) { c.peQueueEdges = 0; }},
    {"vpbRecords", [](GdsConfig &c) { c.vpbRecords = 0; }},
    {"applyListQueue", [](GdsConfig &c) { c.applyListQueue = 0; }},
    {"auBatchRecords", [](GdsConfig &c) { c.auBatchRecords = 0; }},
    {"vprefBatch", [](GdsConfig &c) { c.vprefBatch = 0; }},
    {"vprefMaxInflight", [](GdsConfig &c) { c.vprefMaxInflight = 0; }},
    {"eprefMaxInflight", [](GdsConfig &c) { c.eprefMaxInflight = 0; }},
    {"eprefBufferEdges", [](GdsConfig &c) { c.eprefBufferEdges = 0; }},
    {"applyMaxInflightGroups",
     [](GdsConfig &c) { c.applyMaxInflightGroups = 0; }},
};

const ZeroField<baseline::GraphicionadoConfig> kGiZeroFields[] = {
    {"numStreams",
     [](baseline::GraphicionadoConfig &c) { c.numStreams = 0; }},
    {"onChipBytes",
     [](baseline::GraphicionadoConfig &c) { c.onChipBytes = 0; }},
    {"vprefBatch",
     [](baseline::GraphicionadoConfig &c) { c.vprefBatch = 0; }},
    {"vprefMaxInflight",
     [](baseline::GraphicionadoConfig &c) { c.vprefMaxInflight = 0; }},
    {"streamLookahead",
     [](baseline::GraphicionadoConfig &c) { c.streamLookahead = 0; }},
    {"streamQueueRecords",
     [](baseline::GraphicionadoConfig &c) { c.streamQueueRecords = 0; }},
    {"edgeMaxInflight",
     [](baseline::GraphicionadoConfig &c) { c.edgeMaxInflight = 0; }},
    {"applyMaxInflight",
     [](baseline::GraphicionadoConfig &c) { c.applyMaxInflight = 0; }},
};

const ZeroField<mem::HbmConfig> kHbmZeroFields[] = {
    {"hbm.numChannels", [](mem::HbmConfig &c) { c.numChannels = 0; }},
    {"hbm.banksPerChannel",
     [](mem::HbmConfig &c) { c.banksPerChannel = 0; }},
    {"hbm.rowBytes", [](mem::HbmConfig &c) { c.rowBytes = 0; }},
    {"hbm.txBytes", [](mem::HbmConfig &c) { c.txBytes = 0; }},
    {"hbm.tBurst", [](mem::HbmConfig &c) { c.tBurst = 0; }},
    {"hbm.tRefi", [](mem::HbmConfig &c) { c.tRefi = 0; }},
    {"hbm.queueDepth", [](mem::HbmConfig &c) { c.queueDepth = 0; }},
    {"hbm.frfcfsWindow", [](mem::HbmConfig &c) { c.frfcfsWindow = 0; }},
};

TEST(ConfigContracts, ZeroFieldsRaiseConfigErrorOnBothModels)
{
    // Each field at 0 used to divide by zero, panic on a zero-depth
    // queue, abort in the HBM or run into the watchdog; the constructors
    // now reject it up front. maxIterations is not listed: 0 is a
    // supported cap (EdgeCases.MaxIterationsZeroReturnsInitialState).
    const graph::Csr g = graph::rmat(6, 4, 1);
    auto bfs = algo::makeAlgorithm(algo::AlgorithmId::Bfs);
    for (const auto &f : kGdsZeroFields) {
        SCOPED_TRACE(f.name);
        GdsConfig c;
        f.zero(c);
        EXPECT_NE(configContractViolation(c), nullptr);
        EXPECT_THROW(GdsAccel(c, g, *bfs), ConfigError);
    }
    for (const auto &f : kGiZeroFields) {
        SCOPED_TRACE(f.name);
        baseline::GraphicionadoConfig c;
        f.zero(c);
        EXPECT_NE(configContractViolation(c), nullptr);
        EXPECT_THROW(baseline::GraphicionadoAccel(c, g, *bfs), ConfigError);
    }
    for (const auto &f : kHbmZeroFields) {
        SCOPED_TRACE(f.name);
        GdsConfig gds;
        f.zero(gds.hbm);
        EXPECT_THROW(GdsAccel(gds, g, *bfs), ConfigError);
        baseline::GraphicionadoConfig gi;
        f.zero(gi.hbm);
        EXPECT_THROW(baseline::GraphicionadoAccel(gi, g, *bfs), ConfigError);
        EXPECT_THROW(mem::Hbm(gds.hbm, nullptr), ConfigError);
    }
}

TEST(ConfigContracts, ZeroIterationCapIsSupportedByBothModels)
{
    GdsConfig gds;
    gds.maxIterations = 0;
    EXPECT_TRUE(validateConfig(gds).ok());
    baseline::GraphicionadoConfig gi;
    gi.maxIterations = 0;
    EXPECT_EQ(configContractViolation(gi), nullptr);
}

} // namespace
} // namespace gds::core
