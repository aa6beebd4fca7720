/**
 * @file
 * The five evaluated algorithms (Table 2) expressed as VCPM kernels.
 */

#include "algo/vcpm.hh"
#include "common/error.hh"

#include <algorithm>
#include <cmath>

namespace gds::algo
{

namespace
{

/** BFS: prop = level; relax min(level_u + 1). */
class Bfs final : public VcpmKernels<Bfs>
{
  public:
    AlgorithmId id() const override { return AlgorithmId::Bfs; }
    std::string name() const override { return "BFS"; }
    bool usesWeights() const override { return false; }
    bool allInitiallyActive() const override { return false; }

    PropValue
    initialProp(VertexId v, const graph::Csr &, VertexId source) const
        override
    {
        return v == source ? 0.0f : propInf;
    }

    PropValue
    tPropIdentity(VertexId v, const graph::Csr &g, VertexId source) const
        override
    {
        return initialProp(v, g, source);
    }

    PropValue
    processEdge(PropValue u_prop, Weight) const override
    {
        return u_prop + 1.0f;
    }

    PropValue
    reduce(PropValue t_prop, PropValue result) const override
    {
        return std::min(t_prop, result);
    }

    PropValue
    apply(PropValue prop, PropValue t_prop, PropValue) const override
    {
        return std::min(prop, t_prop);
    }
};

/** SSSP: prop = distance; relax min(dist_u + w). */
class Sssp final : public VcpmKernels<Sssp>
{
  public:
    AlgorithmId id() const override { return AlgorithmId::Sssp; }
    std::string name() const override { return "SSSP"; }
    bool usesWeights() const override { return true; }
    bool allInitiallyActive() const override { return false; }

    PropValue
    initialProp(VertexId v, const graph::Csr &, VertexId source) const
        override
    {
        return v == source ? 0.0f : propInf;
    }

    PropValue
    tPropIdentity(VertexId v, const graph::Csr &g, VertexId source) const
        override
    {
        return initialProp(v, g, source);
    }

    PropValue
    processEdge(PropValue u_prop, Weight weight) const override
    {
        return u_prop + static_cast<PropValue>(weight);
    }

    PropValue
    reduce(PropValue t_prop, PropValue result) const override
    {
        return std::min(t_prop, result);
    }

    PropValue
    apply(PropValue prop, PropValue t_prop, PropValue) const override
    {
        return std::min(prop, t_prop);
    }
};

/** CC: prop = component label; propagate the minimum label. */
class Cc final : public VcpmKernels<Cc>
{
  public:
    AlgorithmId id() const override { return AlgorithmId::Cc; }
    std::string name() const override { return "CC"; }
    bool usesWeights() const override { return false; }
    bool allInitiallyActive() const override { return true; }

    PropValue
    initialProp(VertexId v, const graph::Csr &, VertexId) const override
    {
        return static_cast<PropValue>(v);
    }

    PropValue
    tPropIdentity(VertexId v, const graph::Csr &g, VertexId source) const
        override
    {
        return initialProp(v, g, source);
    }

    PropValue
    processEdge(PropValue u_prop, Weight) const override
    {
        return u_prop;
    }

    PropValue
    reduce(PropValue t_prop, PropValue result) const override
    {
        return std::min(t_prop, result);
    }

    PropValue
    apply(PropValue prop, PropValue t_prop, PropValue) const override
    {
        return std::min(prop, t_prop);
    }
};

/** SSWP: prop = bottleneck width; maximize min(width_u, w). */
class Sswp final : public VcpmKernels<Sswp>
{
  public:
    AlgorithmId id() const override { return AlgorithmId::Sswp; }
    std::string name() const override { return "SSWP"; }
    bool usesWeights() const override { return true; }
    bool allInitiallyActive() const override { return false; }

    PropValue
    initialProp(VertexId v, const graph::Csr &, VertexId source) const
        override
    {
        return v == source ? propInf : 0.0f;
    }

    PropValue
    tPropIdentity(VertexId v, const graph::Csr &g, VertexId source) const
        override
    {
        return initialProp(v, g, source);
    }

    PropValue
    processEdge(PropValue u_prop, Weight weight) const override
    {
        return std::min(u_prop, static_cast<PropValue>(weight));
    }

    PropValue
    reduce(PropValue t_prop, PropValue result) const override
    {
        return std::max(t_prop, result);
    }

    PropValue
    apply(PropValue prop, PropValue t_prop, PropValue) const override
    {
        return std::max(prop, t_prop);
    }
};

/**
 * PageRank. Following Table 2, v.prop stores rank/degree so Process_Edge
 * is just u.prop; Apply computes (alpha + beta * tProp) / deg with
 * alpha = (1 - d) / V and beta = d = 0.85. tProp accumulates contributions
 * afresh every iteration (identity 0, reset after Apply).
 */
class Pr final : public VcpmKernels<Pr>
{
  public:
    AlgorithmId id() const override { return AlgorithmId::Pr; }
    std::string name() const override { return "PR"; }
    bool usesWeights() const override { return false; }
    bool usesConstProp() const override { return true; }
    bool allInitiallyActive() const override { return true; }
    bool tPropResetsEachIteration() const override { return true; }

    void
    bind(const graph::Csr &g) override
    {
        gds_require(g.numVertices() > 0, ConfigError,
                    "PR needs a non-empty graph");
        alphaOverV = (1.0f - damping) / static_cast<PropValue>(
            g.numVertices());
    }

    PropValue
    initialProp(VertexId v, const graph::Csr &g, VertexId) const override
    {
        // rank_0 = 1/V, stored as rank/deg.
        const auto v_count = static_cast<PropValue>(g.numVertices());
        return (1.0f / v_count) / constProp(v, g);
    }

    PropValue
    tPropIdentity(VertexId, const graph::Csr &, VertexId) const override
    {
        return 0.0f;
    }

    PropValue
    constProp(VertexId v, const graph::Csr &g) const override
    {
        // deg-0 vertices never scatter, so clamping to 1 only affects the
        // (unused) stored value and avoids a division by zero.
        return static_cast<PropValue>(std::max<std::uint64_t>(
            g.outDegree(v), 1));
    }

    PropValue
    processEdge(PropValue u_prop, Weight) const override
    {
        return u_prop;
    }

    PropValue
    reduce(PropValue t_prop, PropValue result) const override
    {
        return t_prop + result;
    }

    PropValue
    apply(PropValue, PropValue t_prop, PropValue c_prop) const override
    {
        // Table 2: (alpha + beta * v.tProp) / v.deg with alpha = (1-d)/|V|
        // (bound per graph in bind()) and beta = d.
        return (alphaOverV + damping * t_prop) / c_prop;
    }

    bool
    changed(PropValue old_prop, PropValue new_prop) const override
    {
        const PropValue diff = std::fabs(old_prop - new_prop);
        const PropValue mag =
            std::max(std::fabs(old_prop), std::fabs(new_prop));
        return diff > tolerance * std::max(mag, 1e-30f);
    }

  private:
    static constexpr PropValue damping = 0.85f;
    static constexpr PropValue tolerance = 1e-4f;
    PropValue alphaOverV = 0.15f;
};

} // namespace

std::unique_ptr<VcpmAlgorithm>
makeAlgorithm(AlgorithmId id)
{
    switch (id) {
      case AlgorithmId::Bfs:
        return std::make_unique<Bfs>();
      case AlgorithmId::Sssp:
        return std::make_unique<Sssp>();
      case AlgorithmId::Cc:
        return std::make_unique<Cc>();
      case AlgorithmId::Sswp:
        return std::make_unique<Sswp>();
      case AlgorithmId::Pr:
        return std::make_unique<Pr>();
    }
    panic("unknown algorithm id");
}

std::string
algorithmName(AlgorithmId id)
{
    return makeAlgorithm(id)->name();
}

VertexId
defaultSource(const graph::Csr &g)
{
    gds_require(g.numVertices() > 0, ConfigError, "empty graph has no source");
    VertexId best = 0;
    std::uint64_t best_degree = g.outDegree(0);
    for (VertexId v = 1; v < g.numVertices(); ++v) {
        const std::uint64_t d = g.outDegree(v);
        if (d > best_degree) {
            best = v;
            best_degree = d;
        }
    }
    return best;
}

} // namespace gds::algo
