/**
 * @file
 * Graph transformations used in evaluation pipelines: transposition
 * (out-CSR <-> in-CSR), symmetrization (for undirected analyses such as
 * CC oracles), degree-sorted vertex reordering (the preprocessing step
 * GPU frameworks rely on and GraphDynS makes unnecessary -- see the
 * `gds_figures ablation-preprocessing` study), and simple structural
 * queries.
 */

#pragma once

#include <vector>

#include "graph/csr.hh"

namespace gds::graph
{

/** Reverse every edge: the result's out-edges are the input's in-edges. */
Csr transpose(const Csr &g);

/**
 * Make the graph undirected: for every edge (u,v) ensure (v,u) exists,
 * deduplicating pairs. Weights are preserved (first seen wins).
 */
Csr symmetrize(const Csr &g);

/**
 * Relabel vertices by descending out-degree (the classic degree-sort
 * preprocessing of GPU graph frameworks).
 *
 * @param[out] permutation optional: permutation[old_id] == new_id
 */
Csr degreeSortReorder(const Csr &g,
                      std::vector<VertexId> *permutation = nullptr);

/**
 * Relabel vertices with an arbitrary permutation (new_id =
 * permutation[old_id]); inverse of size |V| must be a bijection.
 */
Csr applyPermutation(const Csr &g,
                     const std::vector<VertexId> &permutation);

/** In-degree of every vertex. */
std::vector<std::uint64_t> inDegrees(const Csr &g);

/** Number of weakly-connected components (union-find over both
 *  directions). */
std::uint64_t countWeakComponents(const Csr &g);

} // namespace gds::graph
