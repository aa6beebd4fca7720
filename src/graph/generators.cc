#include "graph/generators.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/bitutil.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "graph/builder.hh"

namespace gds::graph
{

namespace
{

/**
 * Deterministic bijective vertex-id scramble, so that degree does not
 * follow id (as Graph500 requires). Two rounds of an invertible
 * multiply-xorshift mix over the next power of two at or above |V|;
 * when |V| is not a power of two, cycle-walking repeats the mix until
 * the value falls back into [0, |V|), which keeps the map a bijection
 * on [0, |V|). Width, mask and shift depend only on |V|, so they are
 * computed once per graph rather than per endpoint.
 */
class Scrambler
{
  public:
    Scrambler(VertexId num_vertices, std::uint64_t mix_salt)
        : numVertices(num_vertices), salt(mix_salt)
    {
        unsigned bits = 1;
        while ((1ULL << bits) < num_vertices)
            ++bits;
        mask = (1ULL << bits) - 1;
        shift = bits / 2 + 1;
    }

    VertexId
    operator()(VertexId v) const
    {
        std::uint64_t x = v;
        do {
            x = (x * 0x9e3779b97f4a7c15ULL + salt) & mask;
            x ^= x >> shift;
            x = (x * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL) & mask;
            x ^= x >> shift;
        } while (x >= numVertices);
        return static_cast<VertexId>(x);
    }

  private:
    std::uint64_t numVertices;
    std::uint64_t salt;
    std::uint64_t mask = 0;
    unsigned shift = 0;
};

/**
 * Edges per generator chunk. Fixed (never derived from the job count) so
 * that chunk boundaries — and therefore every chunk's random stream —
 * are identical at any parallelism; jobs only decides how many chunks
 * run concurrently.
 */
constexpr std::size_t generatorChunkEdges = 1u << 16;

/** Independent per-chunk seed: counter-based, so chunk c's stream never
 *  depends on how many edges earlier chunks drew. */
std::uint64_t
chunkSeed(std::uint64_t seed, std::size_t chunk)
{
    SplitMix64 sm(seed + 0x632be59bd9b4e019ULL * (chunk + 1));
    return sm.next();
}

/**
 * Fill @p edges by running @p fill(rng, e) for every edge index, in
 * fixed-size chunks each with its own counter-seeded Rng.
 */
template <typename FillFn>
void
generateChunked(std::vector<CooEdge> &edges, std::uint64_t seed,
                unsigned jobs, const FillFn &fill)
{
    const std::size_t num_edges = edges.size();
    const std::size_t chunks =
        std::max<std::size_t>(1, ceilDiv(num_edges, generatorChunkEdges));
    const unsigned pool_jobs = jobs == 0 ? common::jobCount() : jobs;
    common::parallelFor(chunks, pool_jobs, [&](std::size_t c) {
        Rng rng(chunkSeed(seed, c));
        const std::size_t begin = c * generatorChunkEdges;
        const std::size_t end =
            std::min(num_edges, begin + generatorChunkEdges);
        for (std::size_t e = begin; e < end; ++e)
            edges[e] = fill(rng);
    });
}

} // namespace

Csr
rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
     const RmatParams &params, bool weighted, unsigned jobs)
{
    gds_require(scale >= 1 && scale <= 32, ConfigError,
                "rmat scale %u unsupported", scale);
    const VertexId num_vertices = static_cast<VertexId>(1ULL << scale);
    const EdgeId num_edges =
        static_cast<EdgeId>(edge_factor) * num_vertices;

    // Quadrant q of each recursion level is the first i with
    // uniform() < {a, a+b, a+b+c}[i], or 3 if none. With the integer
    // thresholds below (made non-decreasing, which leaves that "first i"
    // unchanged) it is the branch-free count of thresholds <= k, drawn
    // from the same 53 bits, so every edge matches the double compare.
    const double ab = params.a + params.b;
    const double abc = ab + params.c;
    const std::uint64_t t_a = uniformThreshold(params.a);
    const std::uint64_t t_ab = std::max(t_a, uniformThreshold(ab));
    const std::uint64_t t_abc = std::max(t_ab, uniformThreshold(abc));
    const Scrambler scramble(num_vertices, seed ^ 0x5bd1);

    std::vector<CooEdge> edges(num_edges);
    generateChunked(edges, seed, jobs, [&](Rng &rng) {
        VertexId src = 0;
        VertexId dst = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const std::uint64_t k = rng.next() >> 11;
            const unsigned q = static_cast<unsigned>(k >= t_a) +
                               static_cast<unsigned>(k >= t_ab) +
                               static_cast<unsigned>(k >= t_abc);
            src = (src << 1) | (q >> 1);
            dst = (dst << 1) | (q & 1);
        }
        const Weight w =
            weighted ? static_cast<Weight>(1 + rng.below(255)) : 1;
        return CooEdge{scramble(src), scramble(dst), w};
    });

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.jobs = jobs;
    return buildCsr(num_vertices, std::move(edges), opts);
}

Csr
powerLaw(VertexId num_vertices, EdgeId num_edges, double alpha,
         std::uint64_t seed, bool weighted, unsigned jobs)
{
    gds_require(num_vertices > 0, ConfigError, "need at least one vertex");
    gds_require(alpha > 0.0 && alpha < 1.0, ConfigError,
                "alpha must be in (0,1)");

    // Zipf sampling by inversion: endpoint rank r is drawn with density
    // proportional to r^-alpha, giving a heavy-tailed expected-degree
    // sequence without a V-sized cumulative table. Larger alpha means a
    // heavier tail; alpha in [0.5, 0.8] matches the hub sizes of the
    // paper's social/web graphs.
    const double s = alpha; // Zipf exponent in (0,1)
    const double v_pow = std::pow(static_cast<double>(num_vertices),
                                  1.0 - s);

    auto sample_rank = [&](Rng &rng) -> VertexId {
        // Inverse of the continuous Zipf CDF F(x) = (x^(1-s) - 1) /
        // (V^(1-s) - 1), x in [1, V].
        const double u = rng.uniform();
        const double x = std::pow(u * (v_pow - 1.0) + 1.0, 1.0 / (1.0 - s));
        VertexId rank = static_cast<VertexId>(x) - 1;
        return std::min(rank, num_vertices - 1);
    };

    const Scrambler scramble(num_vertices, seed ^ 0xfeed);
    std::vector<CooEdge> edges(num_edges);
    generateChunked(edges, seed, jobs, [&](Rng &rng) {
        const VertexId src = scramble(sample_rank(rng));
        const VertexId dst = scramble(sample_rank(rng));
        const Weight w =
            weighted ? static_cast<Weight>(1 + rng.below(255)) : 1;
        return CooEdge{src, dst, w};
    });

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.jobs = jobs;
    return buildCsr(num_vertices, std::move(edges), opts);
}

Csr
uniform(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed,
        bool weighted, unsigned jobs)
{
    gds_require(num_vertices > 0, ConfigError, "need at least one vertex");
    std::vector<CooEdge> edges(num_edges);
    generateChunked(edges, seed, jobs, [&](Rng &rng) {
        const auto src = static_cast<VertexId>(rng.below(num_vertices));
        const auto dst = static_cast<VertexId>(rng.below(num_vertices));
        const Weight w =
            weighted ? static_cast<Weight>(1 + rng.below(255)) : 1;
        return CooEdge{src, dst, w};
    });
    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.jobs = jobs;
    return buildCsr(num_vertices, std::move(edges), opts);
}

Csr
barabasiAlbert(VertexId num_vertices, unsigned edges_per_vertex,
               std::uint64_t seed, bool weighted)
{
    gds_require(edges_per_vertex >= 1, ConfigError,
                "need at least one edge per vertex");
    gds_require(num_vertices > edges_per_vertex, ConfigError,
               "need more vertices than edges per vertex");
    Rng rng(seed);

    // Degree-proportional sampling via the repeated-endpoints trick:
    // every endpoint of every edge goes into a pool; a uniform draw from
    // the pool is a degree-proportional draw over vertices.
    std::vector<VertexId> pool;
    pool.reserve(static_cast<std::size_t>(num_vertices) *
                 edges_per_vertex * 2);
    std::vector<CooEdge> edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) *
                  edges_per_vertex * 2);

    // Seed clique over the first m+1 vertices.
    for (VertexId u = 0; u <= edges_per_vertex; ++u) {
        for (VertexId v = u + 1; v <= edges_per_vertex; ++v) {
            edges.push_back(CooEdge{u, v, 1});
            edges.push_back(CooEdge{v, u, 1});
            pool.push_back(u);
            pool.push_back(v);
        }
    }

    for (VertexId u = edges_per_vertex + 1; u < num_vertices; ++u) {
        for (unsigned k = 0; k < edges_per_vertex; ++k) {
            const VertexId target = pool[rng.below(pool.size())];
            edges.push_back(CooEdge{u, target, 1});
            edges.push_back(CooEdge{target, u, 1});
            pool.push_back(u);
            pool.push_back(target);
        }
    }

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.removeDuplicates = true;
    if (weighted) {
        for (auto &e : edges)
            e.weight = static_cast<Weight>(1 + rng.below(255));
    }
    return buildCsr(num_vertices, std::move(edges), opts);
}

Csr
wattsStrogatz(VertexId num_vertices, unsigned ring_degree,
              double rewire_probability, std::uint64_t seed, bool weighted)
{
    gds_require(ring_degree >= 2 && ring_degree % 2 == 0, ConfigError,
               "ring degree must be even and >= 2");
    gds_require(num_vertices > ring_degree, ConfigError,
               "need more vertices than the ring degree");
    gds_require(rewire_probability >= 0.0 && rewire_probability <= 1.0,
                ConfigError,
               "rewire probability must be in [0,1]");
    Rng rng(seed);

    std::vector<CooEdge> edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) * ring_degree);
    for (VertexId u = 0; u < num_vertices; ++u) {
        for (unsigned k = 1; k <= ring_degree / 2; ++k) {
            VertexId v = static_cast<VertexId>(
                (static_cast<std::uint64_t>(u) + k) % num_vertices);
            if (rng.uniform() < rewire_probability) {
                // Rewire to a random endpoint (avoiding a self loop).
                do {
                    v = static_cast<VertexId>(rng.below(num_vertices));
                } while (v == u);
            }
            edges.push_back(CooEdge{u, v, 1});
            edges.push_back(CooEdge{v, u, 1});
        }
    }

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.removeDuplicates = true;
    if (weighted) {
        for (auto &e : edges)
            e.weight = static_cast<Weight>(1 + rng.below(255));
    }
    return buildCsr(num_vertices, std::move(edges), opts);
}

Csr
grid2d(VertexId width, VertexId height, std::uint64_t seed, bool weighted)
{
    gds_require(width > 0 && height > 0, ConfigError,
                "grid dimensions must be positive");
    const VertexId num_vertices = width * height;
    Rng rng(seed);
    std::vector<CooEdge> edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) * 4);
    auto id = [width](VertexId x, VertexId y) { return y * width + x; };
    for (VertexId y = 0; y < height; ++y) {
        for (VertexId x = 0; x < width; ++x) {
            if (x + 1 < width) {
                edges.push_back(CooEdge{id(x, y), id(x + 1, y), 1});
                edges.push_back(CooEdge{id(x + 1, y), id(x, y), 1});
            }
            if (y + 1 < height) {
                edges.push_back(CooEdge{id(x, y), id(x, y + 1), 1});
                edges.push_back(CooEdge{id(x, y + 1), id(x, y), 1});
            }
        }
    }
    BuildOptions opts;
    opts.keepWeights = weighted;
    if (weighted) {
        for (auto &e : edges)
            e.weight = static_cast<Weight>(1 + rng.below(255));
    }
    return buildCsr(num_vertices, std::move(edges), opts);
}

} // namespace gds::graph
