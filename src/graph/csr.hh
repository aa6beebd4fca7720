/**
 * @file
 * Compressed Sparse Row graph representation (Sec. 2.1 of the paper).
 *
 * Three one-dimensional arrays: the offset array (indexed by vertex id,
 * pointing at the start of each vertex's outgoing edge list), the edge array
 * (neighbour ids, plus weights for weighted graphs), and the vertex property
 * array (owned by the processing engines, not by the graph).
 *
 * Storage is decoupled from access: every array is exposed as a non-owning
 * span that points either at heap vectors owned by this object (graphs
 * built in memory) or at a live read-only file mapping shared through a
 * common::MappedFile (graphs served zero-copy from the binary dataset
 * cache). Simulators only ever read through the span accessors, so results
 * are bit-identical whichever storage backs a graph.
 */

#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/error.hh"
#include "common/log.hh"
#include "common/mapped_file.hh"
#include "common/types.hh"

namespace gds::graph
{

/** Summary statistics of a degree sequence. */
struct DegreeStats
{
    std::uint64_t minDegree = 0;
    std::uint64_t maxDegree = 0;
    double meanDegree = 0.0;
    /** Fraction of vertices with zero out-degree. */
    double zeroFraction = 0.0;
};

/**
 * An immutable directed graph in CSR form. Weights are optional; algorithms
 * that ignore weights (BFS, CC, PR) run on the unweighted view even when
 * weights are present, which matters for modelled memory traffic (4 B vs
 * 8 B edge records).
 */
class Csr
{
  public:
    /** Construct an empty graph. */
    Csr();

    /**
     * Construct from prebuilt arrays (heap-owned storage).
     *
     * @param offset_array V+1 offsets, offset_array[V] == edge count
     * @param neighbor_array destination vertex per edge
     * @param weight_array per-edge weights; empty for unweighted graphs
     */
    Csr(std::vector<EdgeId> offset_array,
        std::vector<VertexId> neighbor_array,
        std::vector<Weight> weight_array = {});

    /**
     * Construct a zero-copy graph whose arrays are views into a live file
     * mapping, kept alive by @p backing for this object's lifetime.
     *
     * Cheap structural invariants (first offset 0, last offset == edge
     * count, weight array empty or edge-sized) are always checked — they
     * touch at most two pages. @p deep_validate additionally runs the
     * full O(V+E) validateArrays() scan, faulting in every page; the
     * loader enables it when checksum verification was requested.
     *
     * @throws CorruptInputError when any checked invariant fails
     */
    static Csr fromMapping(std::span<const EdgeId> offset_view,
                           std::span<const VertexId> neighbor_view,
                           std::span<const Weight> weight_view,
                           std::shared_ptr<const common::MappedFile> backing,
                           bool deep_validate);

    /** Copy re-binds owned views onto the copied vectors; mapped views
     *  keep sharing the (refcounted) mapping. */
    Csr(const Csr &other);
    Csr &operator=(const Csr &other);
    /** Vector moves preserve buffer addresses, so views stay valid. */
    Csr(Csr &&other) noexcept = default;
    Csr &operator=(Csr &&other) noexcept = default;
    ~Csr() = default;

    VertexId numVertices() const
    {
        return static_cast<VertexId>(offsets.size() - 1);
    }

    EdgeId numEdges() const { return neighbors.size(); }

    bool hasWeights() const { return !weights.empty(); }

    /** True when the arrays are views into a file mapping. */
    bool isMapped() const { return backing != nullptr; }

    /** Bytes of heap-owned array storage. */
    std::uint64_t heapBytes() const;

    /** Bytes of the live file mapping backing this graph (0 when owned). */
    std::uint64_t mappedBytes() const;

    /** The mapping keeping this graph's views alive; null when owned. */
    const std::shared_ptr<const common::MappedFile> &mapping() const
    {
        return backing;
    }

    /** Start of vertex v's edge list in the edge array. */
    EdgeId
    offsetOf(VertexId v) const
    {
        // gds-lint: allow(no-naked-assert) per-edge hot path; arrays are
        // validated at construction, so a bad index is a simulator bug
        gds_assert(v < offsets.size(), "vertex %u out of range", v);
        return offsets[v];
    }

    /** Out-degree of vertex v. */
    std::uint64_t
    outDegree(VertexId v) const
    {
        // gds-lint: allow(no-naked-assert) per-edge hot path; arrays are
        // validated at construction, so a bad index is a simulator bug
        gds_assert(v + 1 < offsets.size(), "vertex %u out of range", v);
        return offsets[v + 1] - offsets[v];
    }

    /** Neighbours of v as a contiguous span. */
    std::span<const VertexId>
    neighborsOf(VertexId v) const
    {
        return std::span<const VertexId>(neighbors.data() + offsetOf(v),
                                         outDegree(v));
    }

    /** Weights of v's edges; only valid for weighted graphs. */
    std::span<const Weight>
    weightsOf(VertexId v) const
    {
        // gds-lint: allow(no-naked-assert) engines reject unweighted
        // inputs up front (ConfigError); reaching here unweighted is a bug
        gds_assert(hasWeights(), "graph has no weights");
        return std::span<const Weight>(weights.data() + offsetOf(v),
                                       outDegree(v));
    }

    /** Destination of edge e. */
    VertexId
    edgeDest(EdgeId e) const
    {
        // gds-lint: allow(no-naked-assert) per-edge hot path; arrays are
        // validated at construction, so a bad index is a simulator bug
        gds_assert(e < neighbors.size(), "edge %llu out of range",
                   static_cast<unsigned long long>(e));
        return neighbors[e];
    }

    /** Weight of edge e (1 for unweighted graphs). */
    Weight
    edgeWeight(EdgeId e) const
    {
        if (!hasWeights())
            return 1;
        return weights[e];
    }

    /** Raw offset array (V+1 entries). */
    std::span<const EdgeId> offsetArray() const { return offsets; }
    /** Raw neighbour array (E entries). */
    std::span<const VertexId> neighborArray() const { return neighbors; }
    /** Raw weight array (E entries or empty). */
    std::span<const Weight> weightArray() const { return weights; }

    /** Edge-to-vertex ratio |E|/|V|. */
    double
    edgeVertexRatio() const
    {
        return numVertices() == 0
                   ? 0.0
                   : static_cast<double>(numEdges()) / numVertices();
    }

    /** Degree-sequence summary. */
    DegreeStats degreeStats() const;

    /**
     * Return a copy with deterministic pseudo-random integer weights in
     * [1, 255] (the paper assigns random integer weights to unweighted
     * real-world graphs for SSSP/SSWP). A mapped graph keeps serving its
     * offset/neighbour arrays from the mapping; only the weights are
     * materialized on the heap.
     */
    Csr withRandomWeights(std::uint64_t seed) const;

    /** Return the unweighted view (weights dropped; mapping shared). */
    Csr withoutWeights() const;

    /**
     * Structural validity check of prebuilt CSR arrays: V+1 monotone
     * offsets starting at 0 and ending at the edge count, in-range
     * destinations, and a weight array either empty or edge-sized.
     * Returns a failed Status instead of aborting, so callers handling
     * untrusted input (file loaders) can raise a typed error.
     */
    static Status validateArrays(std::span<const EdgeId> offset_array,
                                 std::span<const VertexId> neighbor_array,
                                 std::span<const Weight> weight_array);

    /** Re-check this graph's invariants (O(V+E)). */
    Status validate() const
    {
        return validateArrays(offsets, neighbors, weights);
    }

  private:
    /** Point every view whose source was owned at this object's stores. */
    void rebindOwnedViews(const Csr &other);

    // Owned storage: empty for arrays served from the mapping.
    std::vector<EdgeId> offsets_store;
    std::vector<VertexId> neighbors_store;
    std::vector<Weight> weights_store;

    // The views every accessor reads through (owned store or mapping).
    std::span<const EdgeId> offsets;
    std::span<const VertexId> neighbors;
    std::span<const Weight> weights;

    /** Keep-alive for mapped views; null for fully heap-owned graphs. */
    std::shared_ptr<const common::MappedFile> backing;
};

} // namespace gds::graph
