/**
 * @file
 * GunrockSim: a calibrated timing/energy/traffic model of the paper's
 * GPU baseline -- Gunrock (Wang et al., PPoPP 2016) running on an NVIDIA
 * V100 (Table 3: 1.25 GHz, 5120 cores, 34 MB on-chip, 900 GB/s HBM2).
 *
 * A physical V100 is not available in this environment, so the baseline
 * is reconstructed as an iteration-level model driven by the *exact*
 * per-iteration workload of a functional execution (frontier sizes, edge
 * counts, per-warp degree maxima, reduce conflict counts from
 * algo::runReference). The model charges, per iteration:
 *
 *  - kernel launch latency (advance + filter kernels);
 *  - SIMT compute time under intra-warp load imbalance: each warp of 32
 *    active vertices costs max(degree within warp) edge steps, which is
 *    exactly the workload irregularity the paper's Sec. 3.1 describes;
 *  - memory time: sequential bytes at an effective streaming bandwidth
 *    plus random (per-edge destination) accesses at cacheline granularity
 *    with a calibrated cache hit rate -- reproducing the ~31% bandwidth
 *    utilization of Fig. 13;
 *  - atomic serialization proportional to conflicting reduces;
 *  - online preprocessing (frontier compaction / load-balancing scans),
 *    which the paper reports can dominate execution (Sec. 8).
 *
 * The iteration time is the maximum of the compute and memory pipes plus
 * the serial overheads. Constants are calibrated so the model lands on
 * the paper's reported aggregates (~8 GTEPS geometric mean, ~31%
 * bandwidth utilization, >2x storage for preprocessing metadata); see
 * DESIGN.md (Substitutions).
 */

#pragma once

#include "algo/reference_engine.hh"
#include "algo/vcpm.hh"
#include "graph/csr.hh"

namespace gds::baseline
{

/** V100 + Gunrock model parameters. */
struct GunrockConfig
{
    double clockGhz = 1.25;        ///< SM clock (Table 3)
    unsigned numCores = 5120;      ///< CUDA cores
    unsigned warpSize = 32;
    double memBandwidthGBs = 900.0; ///< HBM2 peak
    unsigned cachelineBytes = 32;   ///< L2 sector size

    // Calibrated workload constants (see EXPERIMENTS.md: chosen so the
    // model reproduces the paper's Gunrock aggregates -- ~8 GTEPS mean,
    // ~31% bandwidth utilization, preprocessing comparable to processing).
    double cyclesPerEdge = 2.5;      ///< SIMT edge-expand cost
    double cyclesPerApply = 3.0;     ///< filter/apply cost per vertex
    double atomicSerializeNs = 0.008;///< extra ns per conflicting reduce
    double vertexPropHitRate = 0.35; ///< L2 hit rate on random dst props
    double kernelLaunchUs = 4.0;     ///< per-iteration launch latency
    /** Online preprocessing (frontier compaction, load-balance scan):
     *  ns per frontier edge / vertex. Sec. 8: preprocessing can reach 2x
     *  the processing time. */
    double preprocessNsPerEdge = 0.045;
    double preprocessNsPerVertex = 0.12;

    // Energy model (board level). Graph analytics keeps a V100 well
    // below TDP (memory-latency bound); calibrated so the GraphDynS :
    // Gunrock energy ratio lands at the paper's 11.6x (Fig. 9).
    double idlePowerW = 30.0;
    double activePowerW = 110.0; ///< at full utilization

    unsigned maxIterations = 1000;

    /** The one field list (see core::GdsConfig::fields). */
    template <class Self, class V>
    static void
    fields(Self &c, V &v)
    {
        v("clockGhz", c.clockGhz);
        v("numCores", c.numCores);
        v("warpSize", c.warpSize);
        v("memBandwidthGBs", c.memBandwidthGBs);
        v("cachelineBytes", c.cachelineBytes);
        v("cyclesPerEdge", c.cyclesPerEdge);
        v("cyclesPerApply", c.cyclesPerApply);
        v("atomicSerializeNs", c.atomicSerializeNs);
        v("vertexPropHitRate", c.vertexPropHitRate);
        v("kernelLaunchUs", c.kernelLaunchUs);
        v("preprocessNsPerEdge", c.preprocessNsPerEdge);
        v("preprocessNsPerVertex", c.preprocessNsPerVertex);
        v("idlePowerW", c.idlePowerW);
        v("activePowerW", c.activePowerW);
        v("maxIterations", c.maxIterations);
    }
};

/**
 * First violated Gunrock configuration contract, or nullptr. The model
 * divides by the clock, the core count, the warp size and the memory
 * bandwidth, so a zero there turns every time into inf; a zero sector
 * size drops all random traffic. Costs and powers may be zero but not
 * negative, the hit rate is a probability, and the board cannot draw
 * less busy than idle. GunrockSim's constructor throws ConfigError on a
 * violation.
 */
constexpr const char *
gunrockContractViolation(const GunrockConfig &c)
{
    if (!(c.clockGhz > 0.0))
        return "clockGhz must be positive";
    if (c.numCores == 0)
        return "numCores must be nonzero";
    if (c.warpSize == 0)
        return "warpSize must be nonzero";
    if (!(c.memBandwidthGBs > 0.0))
        return "memBandwidthGBs must be positive";
    if (c.cachelineBytes == 0)
        return "cachelineBytes must be nonzero";
    for (const double cost :
         {c.cyclesPerEdge, c.cyclesPerApply, c.atomicSerializeNs,
          c.kernelLaunchUs, c.preprocessNsPerEdge, c.preprocessNsPerVertex,
          c.idlePowerW}) {
        if (!(cost >= 0.0))
            return "Gunrock costs and idlePowerW must not be negative";
    }
    if (!(c.vertexPropHitRate >= 0.0 && c.vertexPropHitRate <= 1.0))
        return "vertexPropHitRate must lie in [0, 1]";
    if (!(c.activePowerW >= c.idlePowerW))
        return "activePowerW must be at least idlePowerW";
    return nullptr;
}

static_assert(gunrockContractViolation(GunrockConfig{}) == nullptr,
              "default GunrockConfig violates its own contracts");

/** Model output, aligned with core::RunResult where it makes sense. */
struct GunrockResult
{
    std::vector<PropValue> properties;
    unsigned iterations = 0;
    double seconds = 0.0;
    std::uint64_t edgesProcessed = 0;
    std::uint64_t memoryBytes = 0;
    std::uint64_t footprintBytes = 0;
    double bandwidthUtilization = 0.0;
    double energyJoules = 0.0;

    double
    gteps() const
    {
        return seconds == 0.0
                   ? 0.0
                   : static_cast<double>(edgesProcessed) / seconds / 1e9;
    }
};

/** The Gunrock-on-V100 baseline model. */
class GunrockSim
{
  public:
    /** @throws ConfigError when the configuration breaks a contract of
     *  gunrockContractViolation() or the graph lacks the algorithm's
     *  weights. */
    GunrockSim(const GunrockConfig &config, const graph::Csr &g,
               algo::VcpmAlgorithm &algorithm);

    /** Execute the algorithm and model its time/energy/traffic. */
    GunrockResult run(VertexId source);

    /** Off-chip storage: CSR + >2x preprocessing metadata (Fig. 11). */
    std::uint64_t footprintBytes() const;

  private:
    GunrockConfig cfg;
    const graph::Csr &graph;
    algo::VcpmAlgorithm &algo;
};

} // namespace gds::baseline
