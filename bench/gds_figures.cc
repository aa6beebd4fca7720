/**
 * @file
 * gds_figures: regenerates the paper's evaluation -- Fig. 2, Figs. 6-14
 * and two ablations -- from one registry of figures.
 *
 *   gds_figures [ID...]     (no ID runs every figure, in registry order)
 *
 * One run builds the 5x6x3 evaluation matrix (Figs. 6-13) once, so
 * manifest.json records the run that simulated its cells, and loads each
 * LiveJournal graph once. Results are cached in gds_bench_cache_v1.csv in
 * the working directory. GDS_RMAT_MAX=24 (etc.) trims the Fig. 14f sweep.
 */

#include "bench_util.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algo/reference_engine.hh"
#include "common/parallel.hh"
#include "common/parse.hh"
#include "energy/energy_model.hh"
#include "graph/transforms.hh"
#include "harness/experiment.hh"

using namespace gds;
using algo::AlgorithmId;
using harness::GdsVariant;
using harness::RunRecord;
using harness::Table;

namespace
{

/** What the figures of one run share. The matrix and the LJ graphs are
 *  built on first use, so a figure that needs neither (Fig. 8) writes no
 *  file. */
class Context
{
  public:
    harness::ResultCache cache;

    /** The evaluation matrix; every caller announces the worker count,
     *  so cold timings are interpretable whichever figure runs first. */
    const std::vector<RunRecord> &
    matrix()
    {
        std::printf("evaluation matrix: cold cells run on GDS_JOBS=%u "
                    "workers; cached cells are reused\n\n",
                    common::jobCount());
        if (!_matrix)
            _matrix = harness::evaluationMatrix(cache);
        return *_matrix;
    }

    /** LiveJournal, weighted as algorithm @p id needs it. */
    const graph::Csr &
    lj(AlgorithmId id)
    {
        const bool weighted = algo::makeAlgorithm(id)->usesWeights();
        std::optional<graph::Csr> &g = _lj[weighted ? 1 : 0];
        if (!g)
            g.emplace(harness::loadDataset("LJ", weighted));
        return *g;
    }

  private:
    std::optional<std::vector<RunRecord>> _matrix;
    std::optional<graph::Csr> _lj[2];
};

/** One (algorithm, dataset) row of the evaluation matrix. */
struct MatrixRow
{
    AlgorithmId id;
    std::string algo;
    std::string dataset;
    const RunRecord *gunrock = nullptr;
    const RunRecord *gi = nullptr;
    const RunRecord *gds = nullptr;
};

/**
 * Hand @p fn each row of the evaluation matrix whose cells all succeeded
 * (only the GraphDynS cell when @p gds_only). A missing or failed cell is
 * announced as a [skip] line and drops its row, so one wedged simulation
 * never kills a figure.
 */
void
walkMatrix(Context &ctx, bool gds_only,
           const std::function<void(const MatrixRow &)> &fn)
{
    const std::vector<RunRecord> &records = ctx.matrix();
    for (const AlgorithmId id : algo::allAlgorithms) {
        for (const auto &spec : graph::realWorldDatasets()) {
            MatrixRow row{id, algo::algorithmName(id), spec.name};
            auto cell = [&](const std::string &system) {
                const RunRecord *r = harness::tryFindRecord(
                    records, system, row.algo, row.dataset);
                if (!r) {
                    std::printf("  [skip] %s %s/%s: cell missing or "
                                "failed\n",
                                system.c_str(), row.algo.c_str(),
                                row.dataset.c_str());
                }
                return r;
            };
            if (!gds_only) {
                row.gunrock = cell("Gunrock");
                row.gi = cell("Graphicionado");
            }
            row.gds = cell("GraphDynS");
            if (row.gds && (gds_only || (row.gunrock && row.gi)))
                fn(row);
        }
    }
}

enum class Summary { None, Gm, Mean };

/** The GM of @p values, or nothing when every row was skipped. */
std::optional<double>
gmOf(const std::vector<double> &values)
{
    if (values.empty())
        return std::nullopt;
    return harness::geometricMean(values);
}

/** The arithmetic mean of @p values, or nothing when every row was
 *  skipped. */
std::optional<double>
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return std::nullopt;
    return harness::arithmeticMean(values);
}

/**
 * A figure's table whose numeric columns are also kept as series, for
 * its summary row and its claims. Each row is @p labels label cells, then
 * numbers printed at one precision (and unit).
 */
class SeriesTable
{
  public:
    SeriesTable(std::vector<std::string> header, std::size_t labels,
                int digits, std::string suffix = "")
        : labelCount(labels), columns(header.size() - labels),
          precision(digits), unit(std::move(suffix)),
          table(std::move(header))
    {
    }

    void
    add(std::vector<std::string> labels, const std::vector<double> &values)
    {
        rowLabels.push_back(labels.front());
        for (std::size_t i = 0; i < values.size(); ++i) {
            columns[i].push_back(values[i]);
            labels.push_back(Table::num(values[i], precision) + unit);
        }
        table.addRow(std::move(labels));
    }

    const std::vector<double> &
    column(std::size_t i) const
    {
        return columns[i];
    }

    /** Column @p i of the first row whose first label is @p label;
     *  nothing when that row was skipped. */
    std::optional<double>
    value(const std::string &label, std::size_t i) const
    {
        const auto it = std::find(rowLabels.begin(), rowLabels.end(), label);
        if (it == rowLabels.end())
            return std::nullopt;
        return columns[i][static_cast<std::size_t>(it - rowLabels.begin())];
    }

    /** The GM or MEAN of column @p i over the rows added. */
    std::optional<double>
    summary(std::size_t i, Summary kind) const
    {
        return kind == Summary::Gm ? gmOf(columns[i]) : meanOf(columns[i]);
    }

    /** Print the table, closed by a GM or MEAN row over every column
     *  when any row was added. */
    void
    print(Summary kind)
    {
        if (kind != Summary::None && !rowLabels.empty()) {
            std::vector<std::string> row(labelCount, "all");
            row[0] = kind == Summary::Gm ? "GM" : "MEAN";
            for (std::size_t i = 0; i < columns.size(); ++i)
                row.push_back(Table::num(*summary(i, kind), precision));
            table.addRow(std::move(row));
        }
        table.print();
    }

  private:
    std::vector<std::string> rowLabels;
    std::size_t labelCount;
    std::vector<std::vector<double>> columns;
    int precision;
    std::string unit;
    Table table;
};

/**
 * One sweep cell, cached under @p tag, else computed by @p run. A failed
 * cell is announced as a [skip] line and comes back empty, so the figure
 * drops its row -- walkMatrix's treatment -- instead of printing the
 * failed record's zeros as a result.
 */
template <typename RunFn>
std::optional<RunRecord>
sweepCell(Context &ctx, const std::string &tag, AlgorithmId id,
          const std::string &dataset, RunFn &&run)
{
    RunRecord r = ctx.cache.getOrRun(harness::cellKey(tag, id, dataset),
                                     std::forward<RunFn>(run));
    if (r.ok())
        return r;
    std::printf("  [skip] %s %s/%s: cell failed (%s)\n", tag.c_str(),
                algo::algorithmName(id).c_str(), dataset.c_str(),
                r.status.c_str());
    return std::nullopt;
}

/** One GraphDynS cell on LiveJournal; see sweepCell(). */
std::optional<RunRecord>
ljCell(Context &ctx, const std::string &tag, AlgorithmId id,
       GdsVariant v = GdsVariant::Full, const core::GdsConfig *cfg = nullptr)
{
    return sweepCell(ctx, tag, id, "LJ", [&] {
        return harness::runGds(id, "LJ", ctx.lj(id), v, cfg);
    });
}

/** The cache tag of a GraphDynS variant ("gds" for the full design). */
std::string
variantTag(GdsVariant v)
{
    return v == GdsVariant::Full ? "gds" : "gds-" + harness::variantName(v);
}

/** One paper-expected vs measured line of a "Shape vs paper" block. */
struct Claim
{
    std::string metric;
    std::string paper;
    std::string measured;
};

void
shapeVsPaper(const std::vector<Claim> &claims,
             const char *heading = "Shape vs paper")
{
    std::printf("\n%s:\n", heading);
    for (const Claim &c : claims)
        bench::expectation(c.metric, c.paper, c.measured);
}

/** @p v at @p precision plus @p unit, or "n/a" when every row it would
 *  summarize was skipped. */
std::string
shown(std::optional<double> v, int precision, const char *unit = "")
{
    return v ? Table::num(*v, precision) + unit : "n/a";
}

std::string
percent(std::optional<double> v, int precision)
{
    return shown(v, precision, "%");
}

void
fig02(Context &)
{
    const graph::Csr g = harness::loadDataset("FR", /*weighted=*/true);
    const auto result = algo::runReference(
        g, *algo::makeAlgorithm(AlgorithmId::Sssp),
        harness::sourceFor(AlgorithmId::Sssp, g), {.collectTrace = true});

    Table table({"iter", "[0,0]", "[1,2]", "[3,4]", "[5,8]", "[9,16]",
                 "[17,32]", "[33,64]", ">64", "#active", "#update"});
    unsigned small_update_iters = 0;
    std::uint64_t over64 = 0;
    std::uint64_t actives = 0;
    for (std::size_t i = 0; i < result.trace.size(); ++i) {
        const auto &t = result.trace[i];
        if (i < 25) {
            std::vector<std::string> row{std::to_string(t.iteration)};
            for (const auto bucket : t.degreeHistogram)
                row.push_back(std::to_string(bucket));
            row.push_back(std::to_string(t.activeVertices));
            row.push_back(std::to_string(t.vertexUpdates));
            table.addRow(std::move(row));
        }
        if (t.vertexUpdates * 10 < g.numVertices())
            ++small_update_iters;
        over64 += t.degreeHistogram[7];
        actives += t.activeVertices;
    }
    table.print();

    const double small_frac =
        static_cast<double>(small_update_iters) / result.trace.size();
    shapeVsPaper({{"iterations updating <10% of vertices", "~76%",
                   percent(small_frac * 100.0, 0)},
                  {"degree spread reaches >64 bucket", "yes",
                   over64 > 0 ? "yes" : "no"}});
    std::printf("  total iterations: %u, total activations: %llu\n",
                result.iterations, static_cast<unsigned long long>(actives));
}

void
fig06(Context &ctx)
{
    std::printf("Table 3 systems: GraphDynS 1GHz 16xSIMT8, 32MB eDRAM, "
                "512GB/s HBM | Graphicionado 1GHz 128 streams, 64MB eDRAM, "
                "512GB/s HBM | Gunrock V100 1.25GHz 5120 cores, "
                "900GB/s HBM2\n\n");
    SeriesTable t({"algo", "dataset", "Graphicionado", "GraphDynS", "GDS/GI"},
                  2, 2);
    walkMatrix(ctx, false, [&](const MatrixRow &r) {
        const double s_gi = r.gunrock->seconds / r.gi->seconds;
        const double s_gds = r.gunrock->seconds / r.gds->seconds;
        t.add({r.algo, r.dataset}, {s_gi, s_gds, s_gds / s_gi});
    });
    t.print(Summary::Gm);

    auto gm = [&](std::size_t column) {
        return shown(t.summary(column, Summary::Gm), 2, "x");
    };
    shapeVsPaper({{"GraphDynS speedup over Gunrock (GM)", "4.4x", gm(1)},
                  {"GraphDynS speedup over Graphicionado (GM)", "1.9x",
                   gm(2)},
                  {"GraphDynS uses half of Gunrock's bandwidth",
                   "512 vs 900 GB/s", "512 vs 900 GB/s (by config)"}});
}

void
fig07(Context &ctx)
{
    SeriesTable t({"algo", "dataset", "Gunrock", "Graphicionado",
                   "GraphDynS"},
                  2, 1);
    std::vector<double> gds_pr;
    walkMatrix(ctx, false, [&](const MatrixRow &r) {
        t.add({r.algo, r.dataset},
              {r.gunrock->gteps, r.gi->gteps, r.gds->gteps});
        if (r.id == AlgorithmId::Pr)
            gds_pr.push_back(r.gds->gteps);
    });
    t.print(Summary::Gm);

    auto gm = [](const std::vector<double> &v) {
        return shown(gmOf(v), 1);
    };
    shapeVsPaper({{"GraphDynS mean GTEPS", "43", gm(t.column(2))},
                  {"Graphicionado mean GTEPS", "21", gm(t.column(1))},
                  {"Gunrock mean GTEPS", "8", gm(t.column(0))},
                  {"GraphDynS PR mean GTEPS", "87.5", gm(gds_pr)}});
}

void
fig08(Context &)
{
    energy::EnergyModel model;
    const auto b = model.gdsBreakdown(core::GdsConfig{});
    const double pw = b.totalPowerW();
    const double ar = b.totalAreaMm2();

    Table table({"component", "power(W)", "power(%)", "area(mm2)",
                 "area(%)"});
    auto row = [&](const char *name, const energy::ModuleCost &m) {
        table.addRow({name, Table::num(m.powerW, 3),
                      Table::num(m.powerW / pw * 100.0, 1),
                      Table::num(m.areaMm2, 3),
                      Table::num(m.areaMm2 / ar * 100.0, 1)});
    };
    row("Dispatcher", b.dispatcher);
    row("Processor", b.processor);
    row("Updater", b.updater);
    row("Prefetcher", b.prefetcher);
    table.addRow({"TOTAL", Table::num(pw, 2), "100.0", Table::num(ar, 2),
                  "100.0"});
    table.print();

    const auto gi =
        model.graphicionadoBreakdown(baseline::GraphicionadoConfig{});
    shapeVsPaper({{"total power", "3.38 W", Table::num(pw, 2) + " W"},
                  {"total area", "12.08 mm2", Table::num(ar, 2) + " mm2"},
                  {"Processor power share", "59%",
                   percent(b.processor.powerW / pw * 100.0, 0)},
                  {"Updater area share", "90%",
                   percent(b.updater.areaMm2 / ar * 100.0, 0)},
                  {"GraphDynS/Graphicionado power", "68%",
                   percent(pw / gi.totalPowerW() * 100.0, 0)},
                  {"GraphDynS/Graphicionado area", "57%",
                   percent(ar / gi.totalAreaMm2() * 100.0, 0)}});
}

/**
 * Figs. 9, 11 and 12: one RunRecord field of Graphicionado and GraphDynS
 * as a percentage of Gunrock's. Returns the GMs of GraphDynS's percentage
 * and of GraphDynS/Graphicionado.
 */
std::pair<std::optional<double>, std::optional<double>>
normalizedToGunrock(Context &ctx, double RunRecord::*field)
{
    SeriesTable t({"algo", "dataset", "Graphicionado(%)", "GraphDynS(%)"},
                  2, 1);
    std::vector<double> gds_vs_gi;
    walkMatrix(ctx, false, [&](const MatrixRow &r) {
        t.add({r.algo, r.dataset},
              {r.gi->*field / r.gunrock->*field * 100,
               r.gds->*field / r.gunrock->*field * 100});
        gds_vs_gi.push_back(r.gds->*field / r.gi->*field);
    });
    t.print(Summary::Gm);
    return {t.summary(1, Summary::Gm), gmOf(gds_vs_gi)};
}

void
fig09(Context &ctx)
{
    const auto [vs_gunrock, vs_gi] =
        normalizedToGunrock(ctx, &RunRecord::energyJoules);
    shapeVsPaper({{"GraphDynS energy vs Gunrock (GM)", "8.6% (11.6x less)",
                   percent(vs_gunrock, 1)},
                  {"GraphDynS energy vs Graphicionado (GM)", "-45%",
                   percent(vs_gi ? std::optional((*vs_gi - 1.0) * 100.0)
                                 : std::nullopt,
                           0)}});
}

void
fig10(Context &ctx)
{
    energy::EnergyModel model;
    core::GdsConfig cfg;
    SeriesTable t({"algo", "dataset", "Prefetcher", "Dispatcher",
                   "Processor", "Updater", "HBM"},
                  2, 2);
    walkMatrix(ctx, /*gds_only=*/true, [&](const MatrixRow &r) {
        const auto e = model.gdsEnergy(
            cfg, static_cast<Cycle>(r.gds->seconds * 1e9),
            static_cast<std::uint64_t>(r.gds->memoryBytes));
        const double total = e.totalJ();
        t.add({r.algo, r.dataset},
              {e.prefetcherJ / total * 100, e.dispatcherJ / total * 100,
               e.processorJ / total * 100, e.updaterJ / total * 100,
               e.hbmJ / total * 100});
    });
    t.print(Summary::None);

    auto mean = [&](std::size_t column) {
        return percent(t.summary(column, Summary::Mean), 1);
    };
    shapeVsPaper({{"HBM share of total energy", "92.2%", mean(4)},
                  {"Processor share", "4.0%", mean(2)},
                  {"Updater share", "3.0%", mean(3)}});
}

void
fig11(Context &ctx)
{
    const auto [vs_gunrock, vs_gi] =
        normalizedToGunrock(ctx, &RunRecord::footprintBytes);
    shapeVsPaper({{"GraphDynS storage vs Gunrock (GM)", "35%",
                   percent(vs_gunrock, 0)},
                  {"GraphDynS storage vs Graphicionado (GM)", "63%",
                   percent(vs_gi ? std::optional(*vs_gi * 100.0)
                                 : std::nullopt,
                           0)}});
}

void
fig12(Context &ctx)
{
    const auto [vs_gunrock, vs_gi] =
        normalizedToGunrock(ctx, &RunRecord::memoryBytes);
    shapeVsPaper({{"GraphDynS accesses vs Gunrock (GM)", "36%",
                   percent(vs_gunrock, 0)},
                  {"GraphDynS accesses vs Graphicionado (GM)", "53%",
                   percent(vs_gi ? std::optional(*vs_gi * 100.0)
                                 : std::nullopt,
                           0)}});
}

void
fig13(Context &ctx)
{
    SeriesTable t({"algo", "dataset", "Gunrock(%)", "Graphicionado(%)",
                   "GraphDynS(%)"},
                  2, 1);
    walkMatrix(ctx, false, [&](const MatrixRow &r) {
        t.add({r.algo, r.dataset},
              {r.gunrock->bandwidthUtilization * 100,
               r.gi->bandwidthUtilization * 100,
               r.gds->bandwidthUtilization * 100});
    });
    t.print(Summary::Mean);

    auto mean = [&](std::size_t column) {
        return percent(t.summary(column, Summary::Mean), 0);
    };
    shapeVsPaper({{"GraphDynS mean utilization", "56%", mean(2)},
                  {"Gunrock mean utilization", "31%", mean(0)}});
}

// Without workload-balanced dispatch every edge is a scheduling
// operation; with it a whole sub-threshold edge list (or an eListSize
// chunk) is one.
void
fig14a(Context &ctx)
{
    Table table({"algo", "ops(noWB)", "ops(WB)", "reduction(%)"});
    std::vector<double> reductions;
    for (const AlgorithmId id : algo::allAlgorithms) {
        const auto no_wb = ljCell(ctx, "gds-noWB", id, GdsVariant::NoWb);
        const auto wb = ljCell(ctx, "gds", id);
        if (!no_wb || !wb)
            continue;
        reductions.push_back(
            (1.0 - wb->schedulingOps / no_wb->schedulingOps) * 100.0);
        table.addRow({algo::algorithmName(id),
                      Table::num(no_wb->schedulingOps, 0),
                      Table::num(wb->schedulingOps, 0),
                      Table::num(reductions.back(), 1)});
    }
    const std::optional<double> mean = meanOf(reductions);
    if (mean)
        table.addRow({"MEAN", "-", "-", Table::num(*mean, 1)});
    table.print();

    shapeVsPaper({{"scheduling operations reduced", "~94%", percent(mean, 0)},
                  {"dispatcher size", "16 DEs (was 128)", "16 DEs (config)"}});
}

// Per-PE load in the 8 heaviest iterations (by edges) of SSWP on LJ,
// normalized to the iteration's mean.
void
fig14b(Context &ctx)
{
    const graph::Csr &g = ctx.lj(AlgorithmId::Sswp);
    core::GdsConfig cfg;
    auto sswp = algo::makeAlgorithm(AlgorithmId::Sswp);
    core::GdsAccel accel(cfg, g, *sswp);
    core::RunOptions options;
    options.source = harness::sourceFor(AlgorithmId::Sswp, g);
    options.collectPeLoads = true;
    const auto run = accel.run(options);

    std::vector<std::uint64_t> totals;
    for (const auto &loads : run.peLoads)
        totals.push_back(std::accumulate(loads.begin(), loads.end(),
                                         std::uint64_t{0}));
    std::vector<std::size_t> order(totals.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return totals[a] > totals[b];
    });
    order.resize(std::min<std::size_t>(8, order.size()));

    std::vector<std::string> header{"PE"};
    for (const std::size_t it : order)
        header.push_back("iter" + std::to_string(it + 1));
    Table table(std::move(header));
    double worst = 0.0;
    for (unsigned pe = 0; pe < cfg.numPes; ++pe) {
        std::vector<std::string> row{std::to_string(pe + 1)};
        for (const std::size_t it : order) {
            const auto &loads = run.peLoads[it];
            const double mean =
                static_cast<double>(totals[it]) / loads.size();
            const double norm = static_cast<double>(loads[pe]) / mean;
            worst = std::max(worst, std::abs(norm - 1.0));
            row.push_back(Table::num(norm, 3));
        }
        table.addRow(std::move(row));
    }
    table.print();

    shapeVsPaper({{"per-PE load in heaviest iterations", "1.00 +- 0.02",
                   "1.00 +- " + Table::num(worst, 3)}});
}

// Cumulative techniques: WB (workload balancing), WE (+ exact
// prefetching), WEA (+ zero-stall atomics), WEAU (+ update scheduling =
// full GraphDynS).
void
fig14c(Context &ctx)
{
    SeriesTable t({"algo", "WB", "WE", "WEA", "WEAU"}, 1, 2);
    for (const AlgorithmId id : algo::allAlgorithms) {
        const auto gi = sweepCell(ctx, "graphicionado", id, "LJ", [&] {
            return harness::runGraphicionado(id, "LJ", ctx.lj(id));
        });
        std::vector<double> speedups;
        for (const GdsVariant v : {GdsVariant::Wb, GdsVariant::We,
                                   GdsVariant::Wea, GdsVariant::Full}) {
            const auto gds = ljCell(ctx, variantTag(v), id, v);
            if (gi && gds)
                speedups.push_back(gi->seconds / gds->seconds);
        }
        if (speedups.size() == 4)
            t.add({algo::algorithmName(id)}, speedups);
    }
    t.print(Summary::Gm);

    auto gm = [&](std::size_t column) {
        return shown(t.summary(column, Summary::Gm), 2, "x");
    };
    shapeVsPaper({{"WE (WB + exact prefetch)", "1.39x", gm(1)},
                  {"WEA (+ zero-stall atomics)", "1.57x", gm(2)},
                  {"WEAU (full GraphDynS)", "1.8x", gm(3)}},
                 "Shape vs paper (GM speedup over Graphicionado)");
}

// Off-chip traffic removed by exact prefetching (EP: WE vs WB) and by
// update scheduling (US: WEAU vs WEA).
void
fig14d(Context &ctx)
{
    SeriesTable t({"algo", "EP reduction(%)", "US reduction(%)"}, 1, 1);
    for (const AlgorithmId id : algo::allAlgorithms) {
        // WB, WE, WEA, WEAU.
        std::vector<double> bytes;
        for (const GdsVariant v : {GdsVariant::Wb, GdsVariant::We,
                                   GdsVariant::Wea, GdsVariant::Full}) {
            if (const auto cell = ljCell(ctx, variantTag(v), id, v))
                bytes.push_back(cell->memoryBytes);
        }
        if (bytes.size() == 4) {
            t.add({algo::algorithmName(id)},
                  {(1.0 - bytes[1] / bytes[0]) * 100.0,
                   (1.0 - bytes[3] / bytes[2]) * 100.0});
        }
    }
    t.print(Summary::Mean);

    auto mean = [&](std::size_t column) {
        return percent(t.summary(column, Summary::Mean), 0);
    };
    shapeVsPaper({{"exact prefetching traffic reduction", "~30%", mean(0)},
                  {"update scheduling traffic reduction", "~18%", mean(1)},
                  {"US reduction on PR", "~0%",
                   percent(t.value(algo::algorithmName(AlgorithmId::Pr), 1),
                           1)}});
}

void
fig14e(Context &ctx)
{
    const unsigned ue_counts[] = {256, 128, 64, 32};
    SeriesTable t({"algo", "256", "128", "64", "32"}, 1, 1);
    for (const AlgorithmId id : algo::allAlgorithms) {
        std::map<unsigned, double> seconds;
        for (const unsigned ues : ue_counts) {
            core::GdsConfig cfg;
            cfg.numUes = ues;
            const std::string tag =
                ues == 128 ? "gds" : "gds-ue" + std::to_string(ues);
            if (const auto cell =
                    ljCell(ctx, tag, id, GdsVariant::Full, &cfg))
                seconds[ues] = cell->seconds;
        }
        if (seconds.size() != std::size(ue_counts))
            continue;
        std::vector<double> performance;
        for (const unsigned ues : ue_counts)
            performance.push_back(seconds[128] / seconds[ues] * 100.0);
        t.add({algo::algorithmName(id)}, performance);
    }
    t.print(Summary::None);

    auto at32 = [&](AlgorithmId id) {
        return percent(t.value(algo::algorithmName(id), 3), 0);
    };
    shapeVsPaper({{"PR performance at 32 UEs (vs 128)", "47%",
                   at32(AlgorithmId::Pr)},
                  {"CC performance at 32 UEs (vs 128)", "80%",
                   at32(AlgorithmId::Cc)}});
}

void
fig14f(Context &ctx)
{
    const unsigned max_scale = static_cast<unsigned>(
        common::parseEnvU64("GDS_RMAT_MAX", 26, 1, 40));
    const AlgorithmId pr = AlgorithmId::Pr;
    Table table({"graph", "|V|", "|E|", "Graphicionado", "GraphDynS",
                 "GDS slices"});
    std::vector<double> gds_series;
    std::vector<double> gi_series;
    const unsigned scale = graph::datasetScaleDivisor();
    for (const auto &spec : graph::rmatDatasets()) {
        if (spec.rmatScale > max_scale)
            continue;
        // Loaded (generated and cached on disk first if absent) only
        // when a cell has to be simulated.
        std::optional<graph::Csr> loaded;
        auto csr = [&]() -> const graph::Csr & {
            if (!loaded)
                loaded.emplace(harness::loadDataset(spec.name, false));
            return *loaded;
        };
        const auto gds = sweepCell(ctx, "gds", pr, spec.name, [&] {
            return harness::runGds(pr, spec.name, csr());
        });
        const auto gi = sweepCell(ctx, "graphicionado", pr, spec.name, [&] {
            return harness::runGraphicionado(pr, spec.name, csr());
        });
        if (!gds || !gi)
            continue;
        // RMAT keeps self loops and duplicate edges, so the built graph
        // has exactly the spec's scaled |V| and |E|.
        const std::uint64_t vertices = spec.scaledVertices(scale);
        const unsigned slices =
            graph::numSlices(static_cast<VertexId>(vertices),
                             core::GdsConfig{}.sliceCapacity());
        gds_series.push_back(gds->gteps);
        gi_series.push_back(gi->gteps);
        table.addRow({spec.name, std::to_string(vertices),
                      std::to_string(spec.scaledEdges(scale)),
                      Table::num(gi->gteps, 1), Table::num(gds->gteps, 1),
                      std::to_string(slices)});
    }
    table.print();

    // A scaling claim needs at least two surviving scales.
    std::string retained = "n/a";
    std::string both_scale = "n/a";
    if (gds_series.size() >= 2) {
        retained = percent(gds_series.back() / gds_series.front() * 100.0,
                           0) +
                   " of smallest";
        both_scale =
            gds_series.back() > 0 && gi_series.back() > 0 ? "yes" : "no";
    }
    shapeVsPaper({{"GraphDynS throughput retained at top scale",
                   "slight slowdown", retained},
                  {"both systems scale to the largest graphs", "yes",
                   both_scale}});
}

// The abstract's "4.4x speedup ... with half the memory bandwidth": where
// each algorithm stops being bandwidth-bound, the design-space argument
// behind 512 GB/s.
void
ablationBandwidth(Context &ctx)
{
    SeriesTable t({"algo", "128GB/s", "256GB/s", "512GB/s", "1024GB/s"}, 1,
                  1, " GTEPS");
    for (const AlgorithmId id :
         {AlgorithmId::Bfs, AlgorithmId::Sssp, AlgorithmId::Pr}) {
        std::vector<double> gteps;
        for (const unsigned channels : {8u, 16u, 32u, 64u}) {
            core::GdsConfig cfg;
            cfg.hbm.numChannels = channels;
            const std::string tag = "gds-bw" + std::to_string(channels * 16);
            if (const auto cell =
                    ljCell(ctx, tag, id, GdsVariant::Full, &cfg))
                gteps.push_back(cell->gteps);
        }
        if (gteps.size() == 4)
            t.add({algo::algorithmName(id)}, gteps);
    }
    t.print(Summary::None);

    std::printf("\nreading: PR (streaming, high throughput) scales with "
                "bandwidth until the 128-edge/cycle compute ceiling;\n"
                "BFS/SSSP are traversal-latency bound and gain little "
                "beyond 512 GB/s -- the paper's operating point.\n");
}

// Table 1 / Sec. 8: GPU frameworks fight irregularity with degree-sort
// preprocessing; GraphDynS should gain almost nothing from it.
void
ablationPreprocessing(Context &ctx)
{
    SeriesTable t({"algo", "original(GTEPS)", "degree-sorted(GTEPS)",
                   "delta(%)"},
                  1, 1);
    std::optional<double> worst;
    for (const AlgorithmId id : algo::allAlgorithms) {
        const auto plain = ljCell(ctx, "gds", id);
        const auto sorted = sweepCell(ctx, "gds-degsorted", id, "LJ", [&] {
            return harness::runGds(id, "LJ-degsorted",
                                   graph::degreeSortReorder(ctx.lj(id)));
        });
        if (!plain || !sorted)
            continue;
        const double delta = (sorted->gteps / plain->gteps - 1.0) * 100.0;
        worst = std::max(worst.value_or(0.0), std::abs(delta));
        t.add({algo::algorithmName(id)}, {plain->gteps, sorted->gteps, delta});
    }
    t.print(Summary::None);

    shapeVsPaper({{"benefit of degree-sort preprocessing for GraphDynS",
                   "none needed",
                   worst ? "max |delta| = " + percent(worst, 1) : "n/a"}});
}

struct Figure
{
    const char *id;
    const char *title; ///< banner: "=== title: what ==="
    const char *what;
    void (*body)(Context &);
};

const Figure figures[] = {
    {"fig02", "Fig. 2",
     "active-vertex degree mix and vertex updates per iteration (SSSP on "
     "Flickr)",
     fig02},
    {"fig06", "Fig. 6", "speedup over Gunrock (higher is better)", fig06},
    {"fig07", "Fig. 7", "throughput in GTEPS (ideal peak: 128)", fig07},
    {"fig08", "Fig. 8", "GraphDynS power and area breakdown", fig08},
    {"fig09", "Fig. 9",
     "energy normalized to Gunrock, percent (lower is better)", fig09},
    {"fig10", "Fig. 10", "GraphDynS energy breakdown (percent)", fig10},
    {"fig11", "Fig. 11", "off-chip storage normalized to Gunrock (percent)",
     fig11},
    {"fig12", "Fig. 12",
     "off-chip data accessed, normalized to Gunrock (percent)", fig12},
    {"fig13", "Fig. 13", "memory bandwidth utilization (percent)", fig13},
    {"fig14a", "Fig. 14a",
     "scheduling-operation reduction from workload-balanced dispatch (LJ)",
     fig14a},
    {"fig14b", "Fig. 14b",
     "normalized per-PE workload, heaviest SSWP iterations (LJ)", fig14b},
    {"fig14c", "Fig. 14c", "speedup breakdown over Graphicionado (LJ)",
     fig14c},
    {"fig14d", "Fig. 14d", "off-chip access reduction from EP and US (LJ)",
     fig14d},
    {"fig14e", "Fig. 14e",
     "performance vs number of UEs, normalized to 128 (LJ)", fig14e},
    {"fig14f", "Fig. 14f", "PR throughput (GTEPS) on RMAT scale 22-26",
     fig14f},
    {"ablation-bandwidth", "Ablation",
     "GraphDynS performance vs HBM bandwidth (LJ)", ablationBandwidth},
    {"ablation-preprocessing", "Ablation",
     "GraphDynS on original vs degree-sorted graphs (preprocessing "
     "sensitivity, LJ)",
     ablationPreprocessing},
};

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Figure *> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string id = argv[i];
        const Figure *f =
            std::find_if(std::begin(figures), std::end(figures),
                         [&](const Figure &x) { return id == x.id; });
        if (f == std::end(figures)) {
            std::printf("unknown figure '%s'\nusage: %s [ID...] (no ID "
                        "runs every figure); IDs:",
                        id.c_str(), argv[0]);
            for (const Figure &x : figures)
                std::printf(" %s", x.id);
            std::printf("\n");
            return 2;
        }
        selected.push_back(f);
    }
    if (selected.empty()) {
        for (const Figure &f : figures)
            selected.push_back(&f);
    }

    Context ctx;
    for (const Figure *f : selected) {
        bench::banner(f->title, f->what);
        f->body(ctx);
    }
    return 0;
}
