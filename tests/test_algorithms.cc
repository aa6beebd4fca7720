/**
 * @file
 * Tests for the five Table 2 algorithm kernels: Process_Edge / Reduce /
 * Apply semantics, initialization, activation and metadata.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/vcpm.hh"
#include "graph/builder.hh"

namespace gds::algo
{
namespace
{

graph::Csr
tinyGraph()
{
    std::vector<graph::CooEdge> edges = {{0, 1, 3}, {0, 2, 5}, {1, 2, 1}};
    graph::BuildOptions opts;
    opts.keepWeights = true;
    return graph::buildCsr(3, std::move(edges), opts);
}

TEST(Algorithms, FactoryProducesAllFive)
{
    for (const AlgorithmId id : allAlgorithms) {
        auto algorithm = makeAlgorithm(id);
        ASSERT_NE(algorithm, nullptr);
        EXPECT_EQ(algorithm->id(), id);
        EXPECT_FALSE(algorithm->name().empty());
    }
}

TEST(Algorithms, Names)
{
    EXPECT_EQ(algorithmName(AlgorithmId::Bfs), "BFS");
    EXPECT_EQ(algorithmName(AlgorithmId::Sssp), "SSSP");
    EXPECT_EQ(algorithmName(AlgorithmId::Cc), "CC");
    EXPECT_EQ(algorithmName(AlgorithmId::Sswp), "SSWP");
    EXPECT_EQ(algorithmName(AlgorithmId::Pr), "PR");
}

TEST(Algorithms, WeightUsageMatchesTable2)
{
    EXPECT_FALSE(makeAlgorithm(AlgorithmId::Bfs)->usesWeights());
    EXPECT_TRUE(makeAlgorithm(AlgorithmId::Sssp)->usesWeights());
    EXPECT_FALSE(makeAlgorithm(AlgorithmId::Cc)->usesWeights());
    EXPECT_TRUE(makeAlgorithm(AlgorithmId::Sswp)->usesWeights());
    EXPECT_FALSE(makeAlgorithm(AlgorithmId::Pr)->usesWeights());
}

TEST(Algorithms, InitialActivationSemantics)
{
    EXPECT_FALSE(makeAlgorithm(AlgorithmId::Bfs)->allInitiallyActive());
    EXPECT_FALSE(makeAlgorithm(AlgorithmId::Sssp)->allInitiallyActive());
    EXPECT_TRUE(makeAlgorithm(AlgorithmId::Cc)->allInitiallyActive());
    EXPECT_FALSE(makeAlgorithm(AlgorithmId::Sswp)->allInitiallyActive());
    EXPECT_TRUE(makeAlgorithm(AlgorithmId::Pr)->allInitiallyActive());
}

TEST(Bfs, Table2Kernels)
{
    auto bfs = makeAlgorithm(AlgorithmId::Bfs);
    EXPECT_EQ(bfs->processEdge(3.0f, 99), 4.0f); // u.prop + 1, weight unused
    EXPECT_EQ(bfs->reduce(5.0f, 4.0f), 4.0f);    // min
    EXPECT_EQ(bfs->reduce(3.0f, 4.0f), 3.0f);
    EXPECT_EQ(bfs->apply(7.0f, 4.0f, 0.0f), 4.0f); // min(prop, tProp)
}

TEST(Bfs, Initialization)
{
    const auto g = tinyGraph();
    auto bfs = makeAlgorithm(AlgorithmId::Bfs);
    EXPECT_EQ(bfs->initialProp(1, g, 1), 0.0f);
    EXPECT_EQ(bfs->initialProp(0, g, 1), propInf);
    EXPECT_EQ(bfs->tPropIdentity(0, g, 1), propInf);
}

TEST(Sssp, Table2Kernels)
{
    auto sssp = makeAlgorithm(AlgorithmId::Sssp);
    EXPECT_EQ(sssp->processEdge(3.0f, 7), 10.0f); // u.prop + weight
    EXPECT_EQ(sssp->reduce(12.0f, 10.0f), 10.0f);
    EXPECT_EQ(sssp->apply(15.0f, 10.0f, 0.0f), 10.0f);
}

TEST(Cc, Table2Kernels)
{
    const auto g = tinyGraph();
    auto cc = makeAlgorithm(AlgorithmId::Cc);
    EXPECT_EQ(cc->processEdge(5.0f, 3), 5.0f); // u.prop
    EXPECT_EQ(cc->reduce(7.0f, 5.0f), 5.0f);
    EXPECT_EQ(cc->apply(6.0f, 5.0f, 0.0f), 5.0f);
    EXPECT_EQ(cc->initialProp(2, g, 0), 2.0f); // label = vid
}

TEST(Sswp, Table2Kernels)
{
    const auto g = tinyGraph();
    auto sswp = makeAlgorithm(AlgorithmId::Sswp);
    EXPECT_EQ(sswp->processEdge(9.0f, 4), 4.0f);  // min(u.prop, weight)
    EXPECT_EQ(sswp->processEdge(2.0f, 4), 2.0f);
    EXPECT_EQ(sswp->reduce(3.0f, 4.0f), 4.0f);    // max
    EXPECT_EQ(sswp->apply(3.0f, 4.0f, 0.0f), 4.0f);
    EXPECT_EQ(sswp->initialProp(1, g, 1), propInf);
    EXPECT_EQ(sswp->initialProp(0, g, 1), 0.0f);
    EXPECT_EQ(sswp->tPropIdentity(0, g, 1), 0.0f);
}

TEST(Pr, Table2Kernels)
{
    const auto g = tinyGraph();
    auto pr = makeAlgorithm(AlgorithmId::Pr);
    pr->bind(g);
    EXPECT_EQ(pr->processEdge(0.25f, 3), 0.25f);        // u.prop
    EXPECT_EQ(pr->reduce(0.25f, 0.125f), 0.375f);       // accumulate
    // apply = (alpha + 0.85 * tProp) / deg with alpha = 0.15 / 3.
    const PropValue expected = (0.15f / 3.0f + 0.85f * 0.3f) / 2.0f;
    EXPECT_FLOAT_EQ(pr->apply(0.0f, 0.3f, 2.0f), expected);
}

TEST(Pr, PropStoresRankOverDegree)
{
    const auto g = tinyGraph();
    auto pr = makeAlgorithm(AlgorithmId::Pr);
    pr->bind(g);
    // rank_0 = 1/3; vertex 0 has degree 2.
    EXPECT_FLOAT_EQ(pr->initialProp(0, g, 0), (1.0f / 3.0f) / 2.0f);
    // vertex 2 has degree 0; cProp clamps to 1.
    EXPECT_FLOAT_EQ(pr->constProp(2, g), 1.0f);
    EXPECT_TRUE(pr->usesConstProp());
    EXPECT_TRUE(pr->tPropResetsEachIteration());
}

TEST(Pr, ChangedUsesRelativeTolerance)
{
    auto pr = makeAlgorithm(AlgorithmId::Pr);
    EXPECT_FALSE(pr->changed(1.0f, 1.0f));
    EXPECT_FALSE(pr->changed(1.0f, 1.0f + 1e-6f));
    EXPECT_TRUE(pr->changed(1.0f, 1.001f));
    EXPECT_TRUE(pr->changed(0.0f, 0.5f));
}

TEST(Algorithms, ExactChangeSemanticsForNonPr)
{
    for (const AlgorithmId id :
         {AlgorithmId::Bfs, AlgorithmId::Sssp, AlgorithmId::Cc,
          AlgorithmId::Sswp}) {
        auto a = makeAlgorithm(id);
        EXPECT_TRUE(a->changed(1.0f, 2.0f));
        EXPECT_FALSE(a->changed(2.0f, 2.0f));
        EXPECT_FALSE(a->usesConstProp());
        EXPECT_FALSE(a->tPropResetsEachIteration());
    }
}

/** Bit patterns, so that equal NaNs compare equal. */
std::vector<std::uint32_t>
bitsOf(const std::vector<PropValue> &values)
{
    std::vector<std::uint32_t> bits;
    for (const PropValue v : values)
        bits.push_back(std::bit_cast<std::uint32_t>(v));
    return bits;
}

TEST(Algorithms, ApplyRangeEqualsThePerVertexKernels)
{
    // Operand pairs covering infinities, equal values, tiny and large
    // moves, and changes on either side of PR's relative tolerance.
    const std::vector<std::pair<PropValue, PropValue>> operands = {
        {propInf, propInf}, {propInf, 3.0f},    {3.0f, propInf},
        {0.0f, 0.0f},       {2.0f, 2.0f},       {2.0f, 1.0f},
        {1.0f, 2.0f},       {1.0f, 1.0f + 1e-6f}, {1.0f, 1.001f},
        {0.0f, 0.5f},       {0.02f, 0.02f},     {5.0f, 0.0f},
        {0.125f, 0.13f},    {propInf, 0.0f},    {1e-30f, 2e-30f}};
    const std::size_t n = operands.size();
    const auto g = tinyGraph();
    for (const AlgorithmId id : allAlgorithms) {
        SCOPED_TRACE(algorithmName(id));
        auto a = makeAlgorithm(id);
        a->bind(g);
        // Two guard vertices on each side of the applied range.
        std::vector<PropValue> prop(n + 4, 9.0f);
        std::vector<PropValue> t_prop(n + 4, 8.0f);
        std::vector<PropValue> c_prop;
        if (a->usesConstProp())
            c_prop.assign(n + 4, 1.0f);
        for (std::size_t i = 0; i < n; ++i) {
            prop[i + 2] = operands[i].first;
            t_prop[i + 2] = operands[i].second;
            if (!c_prop.empty())
                c_prop[i + 2] = static_cast<PropValue>(1 + i % 3);
        }

        std::vector<PropValue> want_prop = prop;
        std::vector<PropValue> want_t_prop = t_prop;
        std::vector<VertexId> want_changed;
        for (VertexId v = 2; v < n + 2; ++v) {
            const PropValue cp = c_prop.empty() ? 0.0f : c_prop[v];
            const PropValue res = a->apply(want_prop[v], want_t_prop[v], cp);
            if (a->changed(want_prop[v], res)) {
                want_prop[v] = res;
                want_changed.push_back(v);
            } else if (a->tPropResetsEachIteration()) {
                want_prop[v] = res;
            }
            if (a->tPropResetsEachIteration())
                want_t_prop[v] = a->tPropIdentity(v, g, 0);
        }

        std::vector<VertexId> changed = {77}; // appended to, not cleared
        a->applyRange(prop, t_prop, c_prop, 2, n, changed);
        ASSERT_FALSE(changed.empty());
        EXPECT_EQ(changed.front(), 77u);
        changed.erase(changed.begin());
        EXPECT_EQ(changed, want_changed);
        EXPECT_EQ(bitsOf(prop), bitsOf(want_prop));
        EXPECT_EQ(bitsOf(t_prop), bitsOf(want_t_prop));
        EXPECT_FALSE(want_changed.empty());
    }
}

TEST(Algorithms, DefaultSourceIsHighestDegree)
{
    const auto g = tinyGraph();
    EXPECT_EQ(defaultSource(g), 0u); // vertex 0 has degree 2
}

} // namespace
} // namespace gds::algo
