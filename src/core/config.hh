/**
 * @file
 * GraphDynS accelerator configuration (Table 3 + Sec. 5.1.3 parameters)
 * and the ablation knobs of the Fig. 14 scheduling study.
 */

#pragma once

#include "common/bitutil.hh"
#include "common/error.hh"
#include "common/types.hh"
#include "mem/hbm.hh"

namespace gds::core
{

/** Full accelerator configuration. Defaults match the paper. */
struct GdsConfig
{
    // --- Compute fabric (Table 3: 1 GHz, 16 x SIMT8) ---
    unsigned numPes = 16;  ///< PEs, each fed by its own DE
    unsigned nSimt = 8;    ///< SIMT lanes per PE
    unsigned numUes = 128; ///< UEs = crossbar radix

    // --- Scheduling parameters (Sec. 5.1.3) ---
    unsigned eThreshold = 128; ///< split edge lists above this
    unsigned eListSize = 16;   ///< sub-edge-list chunk size
    unsigned vListSize = 8;    ///< apply-phase vertex list size

    // --- On-chip memories ---
    std::uint64_t vbBytesPerUe = 256 * 1024; ///< 128 x 256 KB = 32 MB
    unsigned rbGroupSize = 256;   ///< vertices covered per RB bit
    unsigned ueQueueDepth = 8;    ///< UE input queue (crossbar sink)
    unsigned peQueueEdges = 512;  ///< per-PE edge workload queue (EPB share)
    unsigned vpbRecords = 64;     ///< active records buffered per DE RAM
    unsigned applyListQueue = 64; ///< apply vertex lists queued per PE
    unsigned auBatchRecords = 16; ///< active records per coalesced store
    Cycle vbLatency = 2;          ///< VB read latency in Apply

    // --- Prefetcher ---
    unsigned vprefBatch = 32;        ///< active records per stream request
    unsigned vprefMaxInflight = 32;  ///< outstanding record-stream requests
    unsigned eprefMaxInflight = 64;  ///< outstanding edge requests
    unsigned eprefBufferEdges = 16384;///< prefetched-not-yet-dispatched cap
    unsigned applyMaxInflightGroups = 32;

    // --- Data-aware dynamic scheduling knobs (Fig. 14c/d ablations) ---
    bool workloadBalance = true; ///< WB: threshold dispatch + splitting
    bool exactPrefetch = true;   ///< EP: exact edge prefetching
    bool zeroStallAtomics = true;///< AO: zero-stall Reduce Pipeline
    bool updateScheduling = true;///< US: RB-driven selective Apply

    // --- Run control ---
    unsigned maxIterations = 1000;

    // --- Memory system (Table 3: 512 GB/s HBM 1.0) ---
    mem::HbmConfig hbm;

    /** The one field list, walked as v(name, member) by configHash,
     *  gds_sim --set and the contract test; HBM fields as hbm.<name>. */
    template <class Self, class V>
    static void
    fields(Self &c, V &v)
    {
        v("numPes", c.numPes);
        v("nSimt", c.nSimt);
        v("numUes", c.numUes);
        v("eThreshold", c.eThreshold);
        v("eListSize", c.eListSize);
        v("vListSize", c.vListSize);
        v("vbBytesPerUe", c.vbBytesPerUe);
        v("rbGroupSize", c.rbGroupSize);
        v("ueQueueDepth", c.ueQueueDepth);
        v("peQueueEdges", c.peQueueEdges);
        v("vpbRecords", c.vpbRecords);
        v("applyListQueue", c.applyListQueue);
        v("auBatchRecords", c.auBatchRecords);
        v("vbLatency", c.vbLatency);
        v("vprefBatch", c.vprefBatch);
        v("vprefMaxInflight", c.vprefMaxInflight);
        v("eprefMaxInflight", c.eprefMaxInflight);
        v("eprefBufferEdges", c.eprefBufferEdges);
        v("applyMaxInflightGroups", c.applyMaxInflightGroups);
        v("workloadBalance", c.workloadBalance);
        v("exactPrefetch", c.exactPrefetch);
        v("zeroStallAtomics", c.zeroStallAtomics);
        v("updateScheduling", c.updateScheduling);
        v("maxIterations", c.maxIterations);
        mem::HbmConfig::fields(c.hbm, v);
    }

    /** Vertices whose temporary property fits on chip (slice capacity). */
    VertexId
    sliceCapacity() const
    {
        const std::uint64_t cap =
            static_cast<std::uint64_t>(numUes) * vbBytesPerUe / bytesPerWord;
        return static_cast<VertexId>(
            std::min<std::uint64_t>(cap, invalidVertex - 1));
    }
};

/**
 * First violated configuration contract, or nullptr when the config is
 * well formed. constexpr so the same predicate backs the compile-time
 * checks below (static_assert / checkedConfig) and the runtime
 * validateConfig() used for configs read from files or sweep axes.
 *
 * The contracts encode structural assumptions baked into the models:
 * power-of-two fabric widths (the crossbar routes by low destination
 * bits and the slicer masks rather than divides), HBM rows made of
 * whole transactions, and nonzero queue depths and batch sizes (a
 * zero-depth queue deadlocks the pipeline on the first push; a zero
 * batch divides by zero). GdsAccel's constructor throws ConfigError on a
 * violation. maxIterations may be 0: the run returns the initial
 * properties.
 */
constexpr const char *
configContractViolation(const GdsConfig &c)
{
    if (c.numPes == 0 || !isPow2(c.numPes))
        return "numPes must be a nonzero power of two";
    if (c.nSimt == 0 || !isPow2(c.nSimt))
        return "nSimt must be a nonzero power of two";
    if (c.numUes == 0 || !isPow2(c.numUes) || c.numUes < c.numPes)
        return "numUes must be a power of two no smaller than numPes";
    if (c.eThreshold == 0)
        return "eThreshold must be nonzero";
    if (c.eListSize == 0)
        return "eListSize must be nonzero";
    // The workload queue must be able to hold the largest single
    // dispatch: a whole sub-threshold edge list or one split chunk.
    if (c.peQueueEdges < c.eThreshold || c.peQueueEdges < c.eListSize)
        return "peQueueEdges must cover eThreshold and eListSize or "
               "dispatch can deadlock";
    if (c.vListSize == 0)
        return "vListSize must be nonzero";
    if (c.vbBytesPerUe < bytesPerWord)
        return "vbBytesPerUe must hold at least one property word";
    if (c.rbGroupSize == 0)
        return "rbGroupSize must be nonzero";
    if (c.ueQueueDepth == 0)
        return "ueQueueDepth must be nonzero";
    if (c.vpbRecords == 0)
        return "vpbRecords must be nonzero";
    if (c.applyListQueue == 0)
        return "applyListQueue must be nonzero";
    if (c.auBatchRecords == 0)
        return "auBatchRecords must be nonzero";
    if (c.vprefBatch == 0)
        return "vprefBatch must be nonzero";
    if (c.vprefMaxInflight == 0)
        return "vprefMaxInflight must be nonzero";
    if (c.eprefMaxInflight == 0)
        return "eprefMaxInflight must be nonzero";
    if (c.eprefBufferEdges < c.eListSize)
        return "eprefBufferEdges must hold at least one edge list";
    if (c.applyMaxInflightGroups == 0)
        return "applyMaxInflightGroups must be nonzero";
    return mem::hbmContractViolation(c.hbm);
}

/** True iff every configuration contract holds. Usable in static_assert. */
constexpr bool
configContractsHold(const GdsConfig &c)
{
    return configContractViolation(c) == nullptr;
}

/**
 * Compile-time configuration gate: pass a config through checkedConfig()
 * in a constant-evaluated context and any contract violation becomes a
 * compile error naming the violated contract:
 *
 *   constexpr GdsConfig cfg = checkedConfig([]{
 *       GdsConfig c; c.nSimt = 8; return c; }());
 */
consteval GdsConfig
checkedConfig(GdsConfig c)
{
    if (const char *violation = configContractViolation(c))
        throw violation; // unreachable at runtime: consteval
    return c;
}

/** Runtime contract check for configs built from files or sweep axes. */
inline Status
validateConfig(const GdsConfig &c)
{
    if (const char *violation = configContractViolation(c))
        return Status::failure(ErrorCode::Config, violation);
    return Status();
}

// The paper's default configuration (Table 3) must itself be well formed.
static_assert(configContractsHold(GdsConfig{}),
              "default GdsConfig violates its own contracts");

} // namespace gds::core
