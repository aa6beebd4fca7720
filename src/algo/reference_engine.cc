#include "algo/reference_engine.hh"

#include "common/error.hh"

namespace gds::algo
{

namespace
{

std::size_t
degreeBucket(std::uint64_t d)
{
    if (d == 0)
        return 0;
    if (d <= 2)
        return 1;
    if (d <= 4)
        return 2;
    if (d <= 8)
        return 3;
    if (d <= 16)
        return 4;
    if (d <= 32)
        return 5;
    if (d <= 64)
        return 6;
    return 7;
}

} // namespace

ReferenceResult
runReference(const graph::Csr &g, VcpmAlgorithm &algorithm, VertexId source,
             const ReferenceOptions &options)
{
    const VertexId v_count = g.numVertices();
    gds_require(v_count > 0, ConfigError, "cannot run on an empty graph");
    gds_require(source < v_count, ConfigError, "source %u out of range",
                source);
    gds_require(!algorithm.usesWeights() || g.hasWeights(), ConfigError,
               "%s needs a weighted graph", algorithm.name().c_str());

    algorithm.bind(g);

    std::vector<PropValue> prop(v_count);
    std::vector<PropValue> t_prop(v_count);
    std::vector<PropValue> c_prop;
    for (VertexId v = 0; v < v_count; ++v) {
        prop[v] = algorithm.initialProp(v, g, source);
        t_prop[v] = algorithm.tPropIdentity(v, g, source);
    }
    if (algorithm.usesConstProp()) {
        c_prop.resize(v_count);
        for (VertexId v = 0; v < v_count; ++v)
            c_prop[v] = algorithm.constProp(v, g);
    }

    std::vector<VertexId> active;
    if (algorithm.allInitiallyActive()) {
        active.resize(v_count);
        for (VertexId v = 0; v < v_count; ++v)
            active[v] = v;
    } else {
        active.push_back(source);
    }

    ReferenceResult result;
    // Marks destinations already reduced this iteration (conflict proxy).
    std::vector<unsigned> touched_epoch(v_count, 0);
    unsigned epoch = 0;

    while (!active.empty() && result.iterations < options.maxIterations) {
        ++result.iterations;
        ++epoch;

        IterationTrace trace;
        trace.iteration = result.iterations;
        trace.activeVertices = active.size();

        // --- Scatter phase ---
        std::uint64_t warp_max = 0;
        std::size_t warp_fill = 0;
        for (const VertexId u : active) {
            const std::uint64_t degree = g.outDegree(u);
            trace.edgesProcessed += degree;
            if (options.collectTrace) {
                ++trace.degreeHistogram[degreeBucket(degree)];
                trace.maxActiveDegree =
                    std::max(trace.maxActiveDegree, degree);
                warp_max = std::max(warp_max, degree);
                if (++warp_fill == 32) {
                    trace.warpMaxDegreeSum += warp_max;
                    warp_max = 0;
                    warp_fill = 0;
                }
            }
            const auto nbrs = g.neighborsOf(u);
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
                const VertexId dst = nbrs[i];
                const Weight w =
                    algorithm.usesWeights() ? g.weightsOf(u)[i] : Weight{1};
                const PropValue res = algorithm.processEdge(prop[u], w);
                const PropValue reduced = algorithm.reduce(t_prop[dst], res);
                if (reduced != t_prop[dst]) {
                    t_prop[dst] = reduced;
                    ++trace.tPropModifications;
                }
                if (touched_epoch[dst] == epoch)
                    ++trace.conflictingReduces;
                touched_epoch[dst] = epoch;
            }
        }
        if (options.collectTrace && warp_fill > 0)
            trace.warpMaxDegreeSum += warp_max;

        // --- Apply phase ---
        active.clear();
        algorithm.applyRange(prop, t_prop, c_prop, 0, v_count, active);
        trace.vertexUpdates = active.size();

        result.totalEdgesProcessed += trace.edgesProcessed;
        result.totalVertexUpdates += trace.vertexUpdates;
        if (options.collectTrace)
            result.trace.push_back(trace);
    }

    result.properties = std::move(prop);
    return result;
}

} // namespace gds::algo
