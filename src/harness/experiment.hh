/**
 * @file
 * Experiment harness shared by every figure-regeneration bench and the
 * examples: it knows how to build each evaluated system (GraphDynS with
 * any ablation configuration, Graphicionado, GunrockSim), run one
 * (algorithm, dataset) cell, attach the energy model, and cache results
 * on disk so the many benches that share the 5-algorithms x 6-datasets x
 * 3-systems matrix only simulate each cell once.
 */

#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "baseline/gunrock_sim.hh"
#include "common/jsonio.hh"
#include "core/gds_accel.hh"
#include "graph/datasets.hh"

namespace gds::harness
{

/** The three evaluated systems. */
enum class SystemId
{
    GraphDynS,
    Graphicionado,
    Gunrock,
};

std::string systemName(SystemId id);

/** GraphDynS ablation configurations (Fig. 14c naming). */
enum class GdsVariant
{
    Full,  ///< WEAU: all four techniques (the default GraphDynS)
    Wb,    ///< workload balancing only
    We,    ///< WB + exact prefetching
    Wea,   ///< WE + zero-stall atomics
    NoWb,  ///< everything except workload balancing (Fig. 14a baseline)
};

std::string variantName(GdsVariant v);

/** Outcome of one (system, algorithm, dataset) cell. */
struct RunRecord
{
    std::string system;
    std::string algorithm;
    std::string dataset;
    /**
     * "ok" for a completed run, otherwise the ErrorCode name of what went
     * wrong ("deadlock", "cycle-limit", "config", ...). Failed cells are
     * reported but never cached, so a rerun retries them.
     */
    std::string status = "ok";
    unsigned iterations = 0;
    double seconds = 0.0;
    double gteps = 0.0;
    double memoryBytes = 0.0;
    double footprintBytes = 0.0;
    double bandwidthUtilization = 0.0;
    double energyJoules = 0.0;
    double schedulingOps = 0.0;
    double atomicStalls = 0.0;
    double updatesSkipped = 0.0;
    double vertexUpdates = 0.0;
    double edgesProcessed = 0.0;
    /** FNV-1a fingerprint of the effective configuration (provenance). */
    std::string configHash;
    /** Wall-clock split of the cell (see harness/walltime.hh). */
    double wallLoadSeconds = 0.0;
    double wallSimSeconds = 0.0;
    double wallValidateSeconds = 0.0;

    bool ok() const { return status == "ok"; }

    /** Third visitor argument of the fields that describe the host run
     *  rather than the simulation: the record JSON omits them, so it
     *  stays byte-identical whatever GDS_JOBS. */
    static constexpr bool kProvenance = true;

    /**
     * The one field list: every member once, in result-cache column
     * order, as `v(name, member)` or `v(name, member, kProvenance)`. The
     * cache journal, its columns line and the record JSON are all loops
     * over it, so a new field takes one line here (plus a cache format
     * bump).
     */
    template <class Self, class V>
    static void
    fields(Self &r, V &v)
    {
        v("system", r.system);
        v("algorithm", r.algorithm);
        v("dataset", r.dataset);
        v("status", r.status);
        v("iterations", r.iterations);
        v("seconds", r.seconds);
        v("gteps", r.gteps);
        v("memoryBytes", r.memoryBytes);
        v("footprintBytes", r.footprintBytes);
        v("bandwidthUtilization", r.bandwidthUtilization);
        v("energyJoules", r.energyJoules);
        v("schedulingOps", r.schedulingOps);
        v("atomicStalls", r.atomicStalls);
        v("updatesSkipped", r.updatesSkipped);
        v("vertexUpdates", r.vertexUpdates);
        v("edgesProcessed", r.edgesProcessed);
        v("configHash", r.configHash);
        v("wallLoadSeconds", r.wallLoadSeconds, kProvenance);
        v("wallSimSeconds", r.wallSimSeconds, kProvenance);
        v("wallValidateSeconds", r.wallValidateSeconds, kProvenance);
    }
};

/** Iteration cap policy: PR runs a fixed budget, others to convergence. */
unsigned iterationCap(algo::AlgorithmId id);

/** Deterministic source policy (highest-degree vertex for traversals). */
VertexId sourceFor(algo::AlgorithmId id, const graph::Csr &g);

/**
 * Materialize a Table 4 dataset at the global scale divisor, with a
 * binary-file cache beside the working directory so repeated bench
 * invocations skip generation. A corrupt or truncated cache file is
 * removed and the dataset regenerated (with a warning), never fatal.
 * The cache file is written atomically (temp file + rename), so a crash
 * or a concurrent process can never leave a truncated cache behind.
 *
 * By default a cached dataset is served zero-copy: the returned Csr's
 * arrays are views into a read-only mapping of the cache file, so a
 * cache hit costs no array copies and concurrent processes share the
 * same page-cache pages. GDS_DATASET_MMAP=0 forces heap copies instead;
 * simulation results are bit-identical either way.
 */
graph::Csr loadDataset(const std::string &name, bool weighted);

/** Whether loadDataset() serves cached datasets via mmap (GDS_DATASET_MMAP,
 *  default on). */
bool datasetMmapEnabled();

/** The on-disk cache filename loadDataset() uses for a dataset. */
std::string datasetCachePath(const std::string &name, unsigned scale,
                             bool weighted);

/**
 * Per-cell cycle budget applied to every simulated run (GraphDynS and
 * Graphicionado): the GDS_CELL_BUDGET environment variable when set,
 * otherwise 50e9 cycles (50 s at the 1 GHz clock). Like every harness
 * env knob, the value is parsed strictly (common::parseEnvU64): a
 * signed, non-numeric, trailing-garbage or overflowing value is
 * rejected with a warning and the documented default is used — it can
 * never wrap around to a nonsense budget.
 */
Cycle cellCycleBudget();

/**
 * Per-cell wall-clock budget in seconds: the GDS_CELL_WALL_BUDGET
 * environment variable when set (fractional values allowed), otherwise 0
 * (no wall-clock limit). A cell that exceeds it is reaped at the next
 * watchdog boundary and recorded with status "timeout".
 */
double cellWallBudgetSeconds();

/**
 * How many times a transiently failed cell is retried before its failure
 * is recorded: the GDS_CELL_RETRIES environment variable when set,
 * otherwise 2. Only "internal", "checkpoint" and "corrupt-input" errors
 * count as transient; verdicts about the run itself (deadlock, budget
 * exhaustion, a requested stop) are never retried.
 */
unsigned cellRetryLimit();

/**
 * Checkpoint policy for one cell, keyed by its config hash. Disabled
 * (empty dir) unless the GDS_CHECKPOINT_DIR environment variable names a
 * directory; then each cell periodically checkpoints there (every
 * GDS_CHECKPOINT_INTERVAL cycles, default 100e6) under a basename derived
 * from the algorithm, dataset and config hash, and resumes from its own
 * previous checkpoint when one is present — a preempted evaluation matrix
 * picks up mid-cell instead of restarting cells from cycle zero.
 */
core::CheckpointOptions cellCheckpointOptions(const std::string &algorithm,
                                              const std::string &dataset,
                                              const std::string &config_hash);

/**
 * Run one cell's compute function, degrading failure into data: a thrown
 * SimError (bad config, corrupt dataset, watchdog verdict) becomes a
 * RunRecord whose status names the error, so the surrounding bench keeps
 * emitting its remaining cells. Transient failures (see cellRetryLimit())
 * are retried with capped exponential backoff before being recorded.
 */
RunRecord runCell(const std::string &system, algo::AlgorithmId algorithm,
                  const std::string &dataset,
                  const std::function<RunRecord()> &compute);

/** Apply a variant to a base GraphDynS configuration. */
core::GdsConfig applyVariant(core::GdsConfig cfg, GdsVariant v);

/**
 * Per-job overrides for the env-driven cell policy. The evaluation
 * matrix passes none (every cell reads GDS_CELL_BUDGET & friends once
 * per run); the simulation-service daemon builds one per request so
 * concurrent jobs can carry different budgets, sources and checkpoint
 * options without touching shared process environment.
 */
struct CellPolicy
{
    /** Cycle budget; 0 falls back to cellCycleBudget(). */
    Cycle cycleBudget = 0;
    /** Wall budget in seconds; negative falls back to
     *  cellWallBudgetSeconds(); 0 means "no wall limit". */
    double wallBudgetSeconds = -1.0;
    /** Source vertex; unset falls back to sourceFor(). */
    std::optional<VertexId> source;
    /** Iteration cap; unset falls back to iterationCap(). */
    std::optional<unsigned> iterations;
    /** Checkpoint options; null falls back to cellCheckpointOptions()
     *  (the GDS_CHECKPOINT_DIR policy). Not owned; must outlive the run. */
    const core::CheckpointOptions *checkpoint = nullptr;
    /**
     * Interval sampler to attach to the run (core::RunOptions::sampler):
     * the simulation service uses it, with Sampler::setOnSample, to
     * stream live progress to subscribed clients. Not owned; must
     * outlive the run. Null leaves sampling off (the matrix default).
     */
    obs::Sampler *sampler = nullptr;
};

/** Run one cell on GraphDynS (optionally an ablation variant). */
RunRecord runGds(algo::AlgorithmId algorithm, const std::string &dataset,
                 const graph::Csr &g, GdsVariant variant = GdsVariant::Full,
                 const core::GdsConfig *base = nullptr,
                 const CellPolicy *policy = nullptr);

/** Run one cell on Graphicionado. */
RunRecord runGraphicionado(algo::AlgorithmId algorithm,
                           const std::string &dataset, const graph::Csr &g,
                           const CellPolicy *policy = nullptr);

/** Run one cell on GunrockSim. */
RunRecord runGunrock(algo::AlgorithmId algorithm,
                     const std::string &dataset, const graph::Csr &g);

/**
 * Disk-backed result cache. Keys combine system/variant, algorithm,
 * dataset and the scale divisor; the file lives in the current working
 * directory ("gds_bench_cache_v1.csv"). Delete it to force re-simulation.
 *
 * The file carries a format-version header; a cache written by an
 * incompatible build is ignored wholesale, and individually corrupt lines
 * are skipped with a warning. The file doubles as an append journal:
 * store() appends (and flushes) one line, so an interrupted run keeps its
 * progress without rewriting the whole file per cell, and the destructor
 * compacts the journal once via an atomic temp-file + rename (duplicate
 * keys collapse, last write wins).
 *
 * All public members are safe to call from concurrent workers; compute
 * functions passed to getOrRun() run outside the cache lock.
 */
class ResultCache
{
  public:
    ResultCache();
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Fetch a cached record, or run @p compute. Only successful records
     * are cached; a failed cell is returned but retried on the next run.
     * Concurrent callers racing on the same missing key may each run
     * @p compute; the last store wins (cell computations are
     * deterministic, so every caller still sees the same values).
     */
    template <typename Fn>
    RunRecord
    getOrRun(const std::string &key, Fn &&compute)
    {
        if (auto found = lookup(key))
            return *found;
        RunRecord record = compute();
        if (record.ok())
            store(key, record);
        return record;
    }

    std::optional<RunRecord> lookup(const std::string &key) const;

    /**
     * Record a cell result and append it to the on-disk journal. Throws
     * ConfigError (storing nothing) if the key or any string field
     * contains a comma, newline or other control character: such a line
     * would re-parse with silently shifted columns.
     */
    void store(const std::string &key, const RunRecord &record);

  private:
    void load();
    void appendLocked(const std::string &key, const RunRecord &record);
    void compactLocked();

    mutable std::mutex mu;
    std::map<std::string, RunRecord> entries;
    std::ofstream journal;
    bool needs_header = false;  ///< file absent/rejected: rewrite on open
    bool journal_failed = false;
    std::uint64_t appended = 0; ///< journal lines since load
};

/** Cache key for a cell. */
std::string cellKey(const std::string &system_tag, algo::AlgorithmId id,
                    const std::string &dataset);

/**
 * The paper's main evaluation matrix: 5 algorithms x the 6 real-world
 * datasets x 3 systems (Figs. 6, 7, 9, 11, 12, 13 all read from it).
 * Cells are simulated once and cached.
 *
 * Provenance: every completed call writes manifest.json in the working
 * directory recording, per cell, the config hash, dataset + seed, the
 * build's git SHA, simulated + wall time (load/sim/validate split) and
 * the outcome — whether the cell was simulated now or served from the
 * cache (see harness/manifest.hh).
 *
 * Cold cells run concurrently on jobCount() workers (GDS_JOBS env;
 * GDS_JOBS=1 forces the serial path). Workers take the cells grouped by
 * (dataset, weighted), largest input first, so each graph is loaded
 * exactly once, released as soon as its last cell completes, and at
 * most jobCount() graphs are resident at once (the manifest records the
 * pool's high-water marks). The returned records are always in the
 * canonical serial traversal order — byte-identical whatever the
 * worker count — and progress is reported live on stderr
 * ("[harness] 42/90 cells, 3 running").
 */
std::vector<RunRecord> evaluationMatrix(ResultCache &cache);

/** Find a cell in a record list; fatal() if absent. */
const RunRecord &findRecord(const std::vector<RunRecord> &records,
                            const std::string &system,
                            const std::string &algorithm,
                            const std::string &dataset);

/**
 * Find a *successful* cell, or nullptr when the cell is absent or failed.
 * Benches use this to skip rows for cells that could not be simulated.
 */
const RunRecord *tryFindRecord(const std::vector<RunRecord> &records,
                               const std::string &system,
                               const std::string &algorithm,
                               const std::string &dataset);

// ---------------------------------------------------------------------
// Reporting helpers.
// ---------------------------------------------------------------------

/** Geometric mean of a series (ignores non-positive values). */
double geometricMean(const std::vector<double> &values);

/** Arithmetic mean of a series; 0 for an empty one, as geometricMean(). */
double arithmeticMean(const std::vector<double> &values);

/**
 * Serialize records as a JSON array (status field included), for
 * machine consumption next to stats::dumpJson.
 */
void dumpRecordsJson(const std::vector<RunRecord> &records,
                     std::ostream &os);

/** Write one record as the JSON object dumpRecordsJson() emits for it. */
void writeRecordJson(common::JsonWriter &w, const RunRecord &record);

/**
 * Print a table: header row, one row per entry, fixed-width columns.
 * Used by every figure bench to emit the paper's rows.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> columns);

    void addRow(std::vector<std::string> cells);
    void print() const;

    /** Format helper: fixed-precision double. */
    static std::string num(double v, int precision = 2);

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

} // namespace gds::harness
