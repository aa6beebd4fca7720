#include "baseline/gunrock_sim.hh"

#include <algorithm>

#include "common/error.hh"

namespace gds::baseline
{

GunrockSim::GunrockSim(const GunrockConfig &config, const graph::Csr &g,
                       algo::VcpmAlgorithm &algorithm)
    : cfg(config), graph(g), algo(algorithm)
{
    if (const char *violation = gunrockContractViolation(cfg))
        throw ConfigError(violation);
    if (algo.usesWeights() && !graph.hasWeights())
        throw ConfigError(algo.name() + " needs a weighted graph");
}

std::uint64_t
GunrockSim::footprintBytes() const
{
    const std::uint64_t v = graph.numVertices();
    const std::uint64_t e = graph.numEdges();
    const unsigned edge_bytes = algo.usesWeights() ? 8 : 4;
    const std::uint64_t csr =
        (v + 1) * bytesPerWord + e * edge_bytes;
    // Properties: prop, tProp (labels), frontier double buffers.
    const std::uint64_t props = 4 * v * bytesPerWord;
    // Preprocessing metadata: Gunrock keeps per-edge load-balancing
    // partitions and per-vertex scan arrays -- the paper measures more
    // than 2x the original graph data (Sec. 7, Fig. 11).
    const std::uint64_t metadata = 2 * csr;
    return csr + props + metadata;
}

GunrockResult
GunrockSim::run(VertexId source)
{
    // Functional execution with full tracing supplies the exact
    // per-iteration workload properties that drive the timing model.
    algo::ReferenceOptions options;
    options.maxIterations = cfg.maxIterations;
    options.collectTrace = true;
    const auto functional =
        algo::runReference(graph, algo, source, options);

    const double clock_hz = cfg.clockGhz * 1e9;
    const double warps_parallel =
        static_cast<double>(cfg.numCores) / cfg.warpSize;
    const unsigned edge_bytes = algo.usesWeights() ? 8 : 4;
    const double bw_bytes_per_s = cfg.memBandwidthGBs * 1e9;

    double total_seconds = 0.0;
    std::uint64_t total_bytes = 0;

    for (const auto &trace : functional.trace) {
        // --- Advance kernel: SIMT expand with intra-warp imbalance. ---
        // Each warp serializes to its largest per-thread edge list, so a
        // warp costs max(degree within warp) edge steps.
        const double warp_cycles =
            static_cast<double>(trace.warpMaxDegreeSum) *
            cfg.cyclesPerEdge;
        const double compute_s =
            (warp_cycles / warps_parallel +
             static_cast<double>(graph.numVertices()) * cfg.cyclesPerApply /
                 static_cast<double>(cfg.numCores)) /
            clock_hz;

        // --- Memory traffic. ---
        // Sequential: frontier + edge lists (with offset lookups).
        const std::uint64_t seq_bytes =
            trace.activeVertices * 3 * bytesPerWord + // frontier + offsets
            trace.edgesProcessed * edge_bytes;
        // Random: destination property read-modify-write per edge, at
        // cacheline granularity, filtered by the L2 hit rate; plus the
        // full-sweep filter kernel reading every vertex label.
        const double miss_rate = 1.0 - cfg.vertexPropHitRate;
        const double random_bytes =
            static_cast<double>(trace.edgesProcessed) * miss_rate *
            cfg.cachelineBytes;
        const double sweep_bytes =
            static_cast<double>(graph.numVertices()) * 2.0 * bytesPerWord;
        const double iter_bytes =
            static_cast<double>(seq_bytes) + random_bytes + sweep_bytes;
        const double memory_s = iter_bytes / bw_bytes_per_s;

        // --- Serial overheads. ---
        const double atomics_s = static_cast<double>(
                                     trace.conflictingReduces) *
                                 cfg.atomicSerializeNs * 1e-9;
        const double preprocess_s =
            (static_cast<double>(trace.edgesProcessed) *
                 cfg.preprocessNsPerEdge +
             static_cast<double>(trace.activeVertices) *
                 cfg.preprocessNsPerVertex) *
            1e-9;
        const double launch_s = cfg.kernelLaunchUs * 1e-6;

        total_seconds += std::max(compute_s, memory_s) + atomics_s +
                         preprocess_s + launch_s;
        total_bytes += static_cast<std::uint64_t>(iter_bytes);
    }

    GunrockResult result;
    result.properties = functional.properties;
    result.iterations = functional.iterations;
    result.seconds = total_seconds;
    result.edgesProcessed = functional.totalEdgesProcessed;
    result.memoryBytes = total_bytes;
    result.footprintBytes = footprintBytes();
    result.bandwidthUtilization =
        total_seconds == 0.0
            ? 0.0
            : static_cast<double>(total_bytes) /
                  (bw_bytes_per_s * total_seconds);

    // Energy: utilization-scaled board power over the run.
    const double utilization =
        std::min(1.0, std::max(result.bandwidthUtilization,
                               result.gteps() / 20.0));
    const double power =
        cfg.idlePowerW + (cfg.activePowerW - cfg.idlePowerW) * utilization;
    result.energyJoules = power * total_seconds;
    return result;
}

} // namespace gds::baseline
