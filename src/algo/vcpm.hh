/**
 * @file
 * The push-based Vertex-Centric Programming Model (PB-VCPM, Algorithm 1)
 * and its application-defined kernel interface (Table 2).
 *
 * An algorithm supplies three kernels:
 *   Process_Edge(u.prop, e.weight)      -> edge result
 *   Reduce(v.tProp, edge result)        -> new v.tProp
 *   Apply(v.prop, v.tProp, v.cProp)     -> candidate new v.prop
 * plus the initialization and activation semantics that Algorithm 1 leaves
 * to the application (initial properties, reduce identity, whether the
 * temporary property resets between iterations, which vertices start
 * active, and how "changed" is decided in Apply).
 *
 * Both cycle-level accelerator models and the functional reference engine
 * execute through this one interface, so correctness of the timing models
 * is checked against the reference for free.
 */

#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"
#include "graph/csr.hh"

namespace gds::algo
{

/** The five evaluated graph analytics algorithms. */
enum class AlgorithmId
{
    Bfs,  ///< Breadth-First Search
    Sssp, ///< Single-Source Shortest Path
    Cc,   ///< Connected Components (label propagation)
    Sswp, ///< Single-Source Widest Path
    Pr,   ///< PageRank
};

/** All algorithm ids, in the paper's presentation order. */
inline constexpr AlgorithmId allAlgorithms[] = {
    AlgorithmId::Bfs, AlgorithmId::Sssp, AlgorithmId::Cc, AlgorithmId::Sswp,
    AlgorithmId::Pr};

/** Application-defined kernels + semantics of one graph algorithm. */
class VcpmAlgorithm
{
  public:
    virtual ~VcpmAlgorithm() = default;

    virtual AlgorithmId id() const = 0;
    virtual std::string name() const = 0;

    /** True if Process_Edge consumes e.weight (SSSP, SSWP). Determines the
     *  in-memory edge record size: 8 B weighted, 4 B unweighted. */
    virtual bool usesWeights() const = 0;

    /** True if Apply consumes a constant per-vertex property (PR: degree). */
    virtual bool usesConstProp() const { return false; }

    /** True if every vertex starts active (CC, PR); otherwise only the
     *  source vertex does (BFS, SSSP, SSWP). */
    virtual bool allInitiallyActive() const = 0;

    /** True if v.tProp is reset to the reduce identity after every Apply
     *  phase (PR accumulates fresh contributions per iteration). */
    virtual bool tPropResetsEachIteration() const { return false; }

    /**
     * Bind graph-dependent constants before a run (PR captures
     * (1 - d) / |V| here). Engines must call this once per graph.
     */
    virtual void bind(const graph::Csr &g) { (void)g; }

    /** Initial v.prop. */
    virtual PropValue initialProp(VertexId v, const graph::Csr &g,
                                  VertexId source) const = 0;

    /** Initial / identity v.tProp (the value Reduce starts from). */
    virtual PropValue tPropIdentity(VertexId v, const graph::Csr &g,
                                    VertexId source) const = 0;

    /** Constant per-vertex property v.cProp (PR: out-degree). */
    virtual PropValue
    constProp(VertexId v, const graph::Csr &g) const
    {
        (void)v;
        (void)g;
        return 0.0f;
    }

    /** Table 2: Process_Edge. */
    virtual PropValue processEdge(PropValue u_prop, Weight weight) const = 0;

    /** Table 2: Reduce. Must be commutative and associative. */
    virtual PropValue reduce(PropValue t_prop, PropValue result) const = 0;

    /** Table 2: Apply. */
    virtual PropValue apply(PropValue prop, PropValue t_prop,
                            PropValue c_prop) const = 0;

    /**
     * "v.prop != applyRes" test of Algorithm 1 line 11. PR uses a relative
     * tolerance so the fixed point terminates in floating point.
     */
    virtual bool
    changed(PropValue old_prop, PropValue new_prop) const
    {
        return old_prop != new_prop;
    }

    /**
     * Algorithm 1's Apply over the vertices [begin, begin + count), in
     * ascending order: each vertex's apply() result replaces prop[v] when
     * changed() says so (or always, when tProp resets each iteration), a
     * resetting tProp returns to 0, the reduce identity of every
     * resetting kernel (PR's sum). Appends each changed vertex to
     * @p changed_out. @p c_prop is empty unless usesConstProp(). One
     * virtual call per range: VcpmKernels implements it once for every
     * kernel class.
     */
    virtual void applyRange(std::span<PropValue> prop,
                            std::span<PropValue> t_prop,
                            std::span<const PropValue> c_prop,
                            VertexId begin, std::size_t count,
                            std::vector<VertexId> &changed_out) const = 0;
};

/**
 * applyRange written once over a final kernel class @p K: it calls
 * K::apply and K::changed by qualified name, so the per-vertex kernels
 * inline instead of dispatching virtually.
 */
template <typename K>
class VcpmKernels : public VcpmAlgorithm
{
  public:
    void
    applyRange(std::span<PropValue> prop, std::span<PropValue> t_prop,
               std::span<const PropValue> c_prop, VertexId begin,
               std::size_t count,
               std::vector<VertexId> &changed_out) const final
    {
        const K &k = static_cast<const K &>(*this);
        const bool resets = k.K::tPropResetsEachIteration();
        const VertexId end = begin + static_cast<VertexId>(count);
        for (VertexId v = begin; v < end; ++v) {
            const PropValue cp = c_prop.empty() ? PropValue{0} : c_prop[v];
            const PropValue res = k.K::apply(prop[v], t_prop[v], cp);
            if (k.K::changed(prop[v], res)) {
                prop[v] = res;
                changed_out.push_back(v);
            } else if (resets) {
                prop[v] = res;
            }
            if (resets)
                t_prop[v] = 0.0f;
        }
    }
};

/** Instantiate an algorithm by id. */
std::unique_ptr<VcpmAlgorithm> makeAlgorithm(AlgorithmId id);

/** Short display tag ("BFS", "SSSP", ...). */
std::string algorithmName(AlgorithmId id);

/**
 * Deterministic default source: the highest-out-degree vertex (guarantees
 * a large traversal on every synthetic surrogate).
 */
VertexId defaultSource(const graph::Csr &g);

} // namespace gds::algo
