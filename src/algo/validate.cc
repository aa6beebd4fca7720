#include "algo/validate.hh"

#include <cmath>

#include "common/log.hh"

namespace gds::algo
{

namespace
{

std::string
vertexMsg(const char *what, VertexId v)
{
    return std::string(what) + " at vertex " + std::to_string(v);
}

} // namespace

ValidationResult
validateBfs(const graph::Csr &g, VertexId source,
            const std::vector<PropValue> &level)
{
    const VertexId n = g.numVertices();
    if (level.size() != n)
        return ValidationResult::fail("level vector size mismatch");
    if (level[source] != 0.0f)
        return ValidationResult::fail("source level is not 0");

    // Pass over all edges: no level skipping; collect tightness.
    std::vector<std::uint8_t> tight(n, 0);
    for (VertexId u = 0; u < n; ++u) {
        if (level[u] == propInf)
            continue;
        for (const VertexId v : g.neighborsOf(u)) {
            if (level[v] > level[u] + 1.0f)
                return ValidationResult::fail(
                    vertexMsg("edge skips a BFS level", v));
            if (level[v] == level[u] + 1.0f)
                tight[v] = 1;
        }
    }
    for (VertexId v = 0; v < n; ++v) {
        if (v == source || level[v] == propInf)
            continue;
        if (level[v] < 0.0f)
            return ValidationResult::fail(vertexMsg("negative level", v));
        if (!tight[v])
            return ValidationResult::fail(
                vertexMsg("level not achieved by any in-edge", v));
    }
    return ValidationResult::ok();
}

ValidationResult
validateSssp(const graph::Csr &g, VertexId source,
             const std::vector<PropValue> &dist)
{
    const VertexId n = g.numVertices();
    if (dist.size() != n)
        return ValidationResult::fail("distance vector size mismatch");
    if (dist[source] != 0.0f)
        return ValidationResult::fail("source distance is not 0");
    if (!g.hasWeights())
        return ValidationResult::fail("SSSP needs a weighted graph");

    std::vector<std::uint8_t> tight(n, 0);
    for (VertexId u = 0; u < n; ++u) {
        if (dist[u] == propInf)
            continue;
        const auto nbrs = g.neighborsOf(u);
        const auto ws = g.weightsOf(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const PropValue relaxed =
                dist[u] + static_cast<PropValue>(ws[i]);
            if (dist[nbrs[i]] > relaxed)
                return ValidationResult::fail(
                    vertexMsg("edge can still relax", nbrs[i]));
            if (dist[nbrs[i]] == relaxed)
                tight[nbrs[i]] = 1;
        }
    }
    for (VertexId v = 0; v < n; ++v) {
        if (v == source || dist[v] == propInf)
            continue;
        if (!tight[v])
            return ValidationResult::fail(
                vertexMsg("distance not achieved by any in-edge", v));
    }
    return ValidationResult::ok();
}

ValidationResult
validateSswp(const graph::Csr &g, VertexId source,
             const std::vector<PropValue> &width)
{
    const VertexId n = g.numVertices();
    if (width.size() != n)
        return ValidationResult::fail("width vector size mismatch");
    if (width[source] != propInf)
        return ValidationResult::fail("source width is not infinity");
    if (!g.hasWeights())
        return ValidationResult::fail("SSWP needs a weighted graph");

    std::vector<std::uint8_t> tight(n, 0);
    for (VertexId u = 0; u < n; ++u) {
        if (width[u] == 0.0f)
            continue;
        const auto nbrs = g.neighborsOf(u);
        const auto ws = g.weightsOf(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const PropValue through =
                std::min(width[u], static_cast<PropValue>(ws[i]));
            if (width[nbrs[i]] < through)
                return ValidationResult::fail(
                    vertexMsg("edge can still widen", nbrs[i]));
            if (width[nbrs[i]] == through)
                tight[nbrs[i]] = 1;
        }
    }
    for (VertexId v = 0; v < n; ++v) {
        if (v == source || width[v] == 0.0f)
            continue;
        if (!tight[v])
            return ValidationResult::fail(
                vertexMsg("width not achieved by any in-edge", v));
    }
    return ValidationResult::ok();
}

ValidationResult
validateCc(const graph::Csr &g, const std::vector<PropValue> &label)
{
    const VertexId n = g.numVertices();
    if (label.size() != n)
        return ValidationResult::fail("label vector size mismatch");

    std::vector<std::uint8_t> achieved(n, 0);
    for (VertexId v = 0; v < n; ++v) {
        const PropValue l = label[v];
        if (l < 0.0f || l > static_cast<PropValue>(v))
            return ValidationResult::fail(
                vertexMsg("label above own id", v));
        // A root holds its own id.
        const auto root = static_cast<VertexId>(l);
        if (label[root] != l)
            return ValidationResult::fail(
                vertexMsg("label does not name a root", v));
        if (root == v)
            achieved[v] = 1;
    }
    for (VertexId u = 0; u < n; ++u) {
        for (const VertexId v : g.neighborsOf(u)) {
            if (label[v] > label[u])
                return ValidationResult::fail(
                    vertexMsg("label can still propagate", v));
            if (label[v] == label[u])
                achieved[v] = 1;
        }
    }
    for (VertexId v = 0; v < n; ++v) {
        if (!achieved[v])
            return ValidationResult::fail(
                vertexMsg("label not justified by any in-edge", v));
    }
    return ValidationResult::ok();
}

ValidationResult
validatePr(const graph::Csr &g, const std::vector<PropValue> &prop,
           double tolerance)
{
    const VertexId n = g.numVertices();
    if (prop.size() != n)
        return ValidationResult::fail("property vector size mismatch");
    constexpr double damping = 0.85;

    auto cdeg = [&g](VertexId v) {
        return static_cast<double>(
            std::max<std::uint64_t>(g.outDegree(v), 1));
    };

    double mass = 0.0;
    for (VertexId v = 0; v < n; ++v) {
        if (!(prop[v] > 0.0f) || !std::isfinite(prop[v]))
            return ValidationResult::fail(
                vertexMsg("non-positive or non-finite rank", v));
        mass += static_cast<double>(prop[v]) * cdeg(v);
    }
    // The VCPM formulation has no dangling-vertex redistribution, so
    // mass below 1 is expected on graphs with zero-out-degree vertices;
    // mass above 1 is always wrong.
    if (mass > 1.05)
        return ValidationResult::fail(
            "rank mass " + std::to_string(mass) + " exceeds 1");

    // Activation-gated PR has no *local* certificate: once a vertex's
    // in-neighbours deactivate, the exact balance equation no longer
    // holds at termination. Instead, compare against an independent
    // dense power iteration (the classical fixed point) in aggregate.
    std::vector<double> rank(n);
    for (VertexId v = 0; v < n; ++v)
        rank[v] = 1.0 / static_cast<double>(n);
    std::vector<double> next(n);
    const double alpha = (1.0 - damping) / static_cast<double>(n);
    for (int iter = 0; iter < 200; ++iter) {
        std::fill(next.begin(), next.end(), alpha);
        for (VertexId u = 0; u < n; ++u) {
            if (g.outDegree(u) == 0)
                continue;
            const double share =
                damping * rank[u] / static_cast<double>(g.outDegree(u));
            for (const VertexId v : g.neighborsOf(u))
                next[v] += share;
        }
        rank.swap(next);
    }

    double err_sum = 0.0;
    double err_max = 0.0;
    for (VertexId v = 0; v < n; ++v) {
        const double got = static_cast<double>(prop[v]) * cdeg(v);
        const double rel = std::abs(got - rank[v]) / std::max(rank[v], alpha);
        err_sum += rel;
        err_max = std::max(err_max, rel);
    }
    const double mean_err = err_sum / static_cast<double>(n);
    if (mean_err > tolerance)
        return ValidationResult::fail(
            "mean rank deviation " + std::to_string(mean_err) +
            " from the power-iteration fixed point exceeds tolerance");
    // Activation hysteresis can leave individual vertices ~50% off; a
    // larger pointwise deviation indicates corruption.
    if (err_max > 6.0 * tolerance)
        return ValidationResult::fail(
            "worst rank deviation " + std::to_string(err_max) +
            " from the power-iteration fixed point exceeds tolerance");
    return ValidationResult::ok();
}

ValidationResult
validate(AlgorithmId id, const graph::Csr &g, VertexId source,
         const std::vector<PropValue> &properties)
{
    switch (id) {
      case AlgorithmId::Bfs:
        return validateBfs(g, source, properties);
      case AlgorithmId::Sssp:
        return validateSssp(g, source, properties);
      case AlgorithmId::Cc:
        return validateCc(g, properties);
      case AlgorithmId::Sswp:
        return validateSswp(g, source, properties);
      case AlgorithmId::Pr:
        return validatePr(g, properties);
    }
    panic("unknown algorithm id");
}

} // namespace gds::algo
