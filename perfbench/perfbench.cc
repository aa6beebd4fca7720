/**
 * @file
 * Measuring program of the repository benchmark; run.py builds and drives
 * it, then derives every metric from what it writes.
 *
 *   perfbench run --workload dense|road|matrix --seed N --seconds S
 *                 --trace 0|1 --out RAW.json [--trace-file TRACE.json]
 *   perfbench selftest
 *
 * A run works in the current directory (scratch space run.py empties):
 *  1. set-up, at least five times and for a second: generate the inputs,
 *     save them as binary CSR, map them back and (dense/road) construct
 *     every accelerator once;
 *  2. timed repetitions until --seconds is spent (at least one; in trace
 *     mode at least one untraced and one traced): dense/road run every
 *     (system, algorithm) cell of the workload, matrix runs the cold
 *     Fig. 6 evaluation matrix through harness::evaluationMatrix;
 *  3. certification: every property vector passes algo::validate, every
 *     simulated statistic repeats exactly across repetitions, and every
 *     matrix cell is ok and served identically by the warm cache;
 *  4. the warm path: records are re-served from the harness ResultCache.
 *
 * Layers are timed from outside, by a span around each call into a
 * layer's public API, named "<layer>.<what>". With --trace 1 the spans are
 * kept in memory and written at exit as Chrome trace-event JSON; each
 * span carries its id, its parent's id and the id of the workload run
 * (set-up, repetition, certification, warm pass) it belongs to.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algo/reference_engine.hh"
#include "algo/validate.hh"
#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "baseline/gunrock_sim.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/rss.hh"
#include "core/gds_accel.hh"
#include "energy/energy_model.hh"
#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "graph/loader.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "stats/json.hh"

using namespace gds;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU seconds of the whole process (all threads). */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/**
 * In-memory span log. A span opened while no other is open is a root and
 * starts a new workload run; nested spans inherit its run id. While the
 * log is disabled a Scope costs one branch and records nothing.
 */
class SpanLog
{
  public:
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name)
            : owner(log.enabled ? &log : nullptr)
        {
            if (owner)
                index = owner->open(std::move(name));
        }

        ~Scope()
        {
            if (owner)
                owner->close(index);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *owner;
        std::size_t index = 0;
    };

    void setEnabled(bool on) { enabled = on; }

    /** Chrome trace-event JSON: one complete ("X") event per span. */
    bool
    writeFile(const std::string &path) const
    {
        std::ofstream out(path);
        out.precision(17);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << (i == 0 ? "\n" : ",\n") << "{\"name\":";
            stats::emitJsonString(out, s.name);
            out << ",\"cat\":";
            stats::emitJsonString(out, s.name.substr(0, s.name.find('.')));
            out << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.startUs
                << ",\"dur\":" << s.endUs - s.startUs
                << ",\"args\":{\"id\":" << s.id
                << ",\"parent\":" << s.parent << ",\"run\":" << s.run
                << "}}";
        }
        out << "\n]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        std::size_t id = 0;     ///< 1-based; 0 means "no parent"
        std::size_t parent = 0;
        std::size_t run = 0;
    };

    static double
    nowUs()
    {
        return secondsSince(processStart) * 1e6;
    }

    std::size_t
    open(std::string name)
    {
        Span s;
        s.name = std::move(name);
        s.id = spans.size() + 1;
        if (stack.empty()) {
            s.run = ++runs;
        } else {
            s.parent = spans[stack.back()].id;
            s.run = spans[stack.back()].run;
        }
        s.startUs = nowUs();
        spans.push_back(std::move(s));
        stack.push_back(spans.size() - 1);
        return spans.size() - 1;
    }

    void
    close(std::size_t index)
    {
        spans[index].endUs = nowUs();
        if (!stack.empty() && stack.back() == index)
            stack.pop_back();
    }

    bool enabled = false;
    std::vector<Span> spans;
    std::vector<std::size_t> stack;
    std::size_t runs = 0;
};

using Scope = SpanLog::Scope;

// ---------------------------------------------------------------------
// Certification.
// ---------------------------------------------------------------------

/** Counts certification checks; every failed one is kept by name. */
struct Certifier
{
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            failures.push_back(what);
    }
};

// ---------------------------------------------------------------------
// One simulated cell.
// ---------------------------------------------------------------------

enum class System
{
    Gds,
    Gi,
    Gunrock,
};

const char *
systemLabel(System s)
{
    switch (s) {
      case System::Gds:
        return "GraphDynS";
      case System::Gi:
        return "Graphicionado";
      case System::Gunrock:
        return "Gunrock";
    }
    return "?";
}

struct RunSpec
{
    System system = System::Gds;
    algo::AlgorithmId algorithm = algo::AlgorithmId::Bfs;
    std::string graphFile; ///< binary CSR the cell maps its input from
    std::string dataset;   ///< name used in records and labels
    VertexId source = 0;
    unsigned maxIterations = 1000;

    std::string
    label() const
    {
        return std::string(systemLabel(system)) + "/" +
               algo::algorithmName(algorithm) + "/" + dataset;
    }
};

/** Everything one cell reports: host times and simulated statistics. */
struct RunOut
{
    RunSpec spec;
    std::string outcome = "completed";
    double runSeconds = 0.0; ///< host wall of run() alone
    Cycle cycles = 0;
    Cycle stepped = 0;
    Cycle skipped = 0;
    std::uint64_t windows = 0;
    unsigned iterations = 0;
    std::uint64_t edges = 0;
    std::uint64_t memoryBytes = 0;
    std::uint64_t footprintBytes = 0;
    double readBytes = 0.0;
    double writeBytes = 0.0;
    double rowHitRate = 0.0;
    double bwUtil = 0.0;
    double xbarConflicts = 0.0;
    std::uint64_t schedOps = 0;
    std::uint64_t atomicStalls = 0;
    std::uint64_t updatesSkipped = 0;
    std::uint64_t vertexUpdates = 0;
    double energyJ = 0.0;
    double simSeconds = 0.0;
    double gteps = 0.0;
    std::vector<PropValue> properties;

    /** Every simulated result, rendered exactly (property bytes hashed). */
    std::string
    fingerprint() const
    {
        const std::string_view bytes(
            reinterpret_cast<const char *>(properties.data()),
            properties.size() * sizeof(PropValue));
        char buf[768];
        std::snprintf(
            buf, sizeof(buf),
            "%s|%llu|%llu|%llu|%llu|%u|%llu|%llu|%llu|%.17g|%.17g|%.17g|"
            "%.17g|%.17g|%llu|%llu|%llu|%llu|%.17g|%.17g|%.17g|%s",
            outcome.c_str(), static_cast<unsigned long long>(cycles),
            static_cast<unsigned long long>(stepped),
            static_cast<unsigned long long>(skipped),
            static_cast<unsigned long long>(windows), iterations,
            static_cast<unsigned long long>(edges),
            static_cast<unsigned long long>(memoryBytes),
            static_cast<unsigned long long>(footprintBytes), readBytes,
            writeBytes, rowHitRate, bwUtil, xbarConflicts,
            static_cast<unsigned long long>(schedOps),
            static_cast<unsigned long long>(atomicStalls),
            static_cast<unsigned long long>(updatesSkipped),
            static_cast<unsigned long long>(vertexUpdates), energyJ,
            simSeconds, gteps,
            harness::hashHex(harness::fnv1a(bytes)).c_str());
        return buf;
    }
};

void
copyAccelResult(RunOut &out, core::RunResult &r, const mem::Hbm &hbm)
{
    out.outcome = sim::runOutcomeName(r.report.outcome);
    out.cycles = r.cycles;
    out.stepped = r.report.steppedCycles;
    out.skipped = r.report.skippedCycles;
    out.windows = r.report.skipWindows;
    out.iterations = r.iterations;
    out.edges = r.edgesProcessed;
    out.memoryBytes = r.memoryBytes;
    out.footprintBytes = r.footprintBytes;
    out.readBytes = hbm.readBytes();
    out.writeBytes = hbm.writeBytes();
    out.rowHitRate = hbm.rowHitRate();
    out.bwUtil = r.bandwidthUtilization;
    out.schedOps = r.schedulingOps;
    out.atomicStalls = r.atomicStalls;
    out.updatesSkipped = r.updatesSkipped;
    out.vertexUpdates = r.vertexUpdates;
    out.simSeconds = static_cast<double>(r.cycles) * 1e-9;
    out.gteps = r.gteps();
    out.properties = std::move(r.properties);
}

/** Construct a cell's accelerator (set-up measures construction alone). */
void
constructOnce(const RunSpec &spec, const graph::Csr &g, SpanLog &log)
{
    auto kernel = algo::makeAlgorithm(spec.algorithm);
    switch (spec.system) {
      case System::Gds: {
        core::GdsConfig cfg;
        cfg.maxIterations = spec.maxIterations;
        const Scope span(log, "core.construct");
        const core::GdsAccel accel(cfg, g, *kernel);
        break;
      }
      case System::Gi: {
        baseline::GraphicionadoConfig cfg;
        cfg.maxIterations = spec.maxIterations;
        const Scope span(log, "baseline.gi_construct");
        const baseline::GraphicionadoAccel accel(cfg, g, *kernel);
        break;
      }
      case System::Gunrock:
        break; // GunrockSim's constructor only binds references
    }
}

/** Map the cell's input, construct its system, run it, price its energy. */
RunOut
simulate(const RunSpec &spec, SpanLog &log)
{
    const Scope cell(log, "bench.cell");
    RunOut out;
    out.spec = spec;
    graph::Csr g;
    {
        const Scope span(log, "graph.load");
        g = graph::loadBinaryMapped(spec.graphFile);
    }
    auto kernel = algo::makeAlgorithm(spec.algorithm);
    const energy::EnergyModel model;
    core::RunOptions options;
    options.source = spec.source;
    switch (spec.system) {
      case System::Gds: {
        core::GdsConfig cfg;
        cfg.maxIterations = spec.maxIterations;
        std::unique_ptr<core::GdsAccel> accel;
        {
            const Scope span(log, "core.construct");
            accel = std::make_unique<core::GdsAccel>(cfg, g, *kernel);
        }
        core::RunResult r;
        {
            const Scope span(log, "core.run");
            const Clock::time_point t = Clock::now();
            r = accel->run(options);
            out.runSeconds = secondsSince(t);
        }
        copyAccelResult(out, r, accel->hbmDevice());
        out.xbarConflicts =
            accel->statsGroup().scalar("crossbar.conflicts").value();
        const Scope span(log, "energy.model");
        out.energyJ = model.gdsEnergy(cfg, out.cycles, out.memoryBytes)
                          .totalJ();
        break;
      }
      case System::Gi: {
        baseline::GraphicionadoConfig cfg;
        cfg.maxIterations = spec.maxIterations;
        std::unique_ptr<baseline::GraphicionadoAccel> accel;
        {
            const Scope span(log, "baseline.gi_construct");
            accel = std::make_unique<baseline::GraphicionadoAccel>(
                cfg, g, *kernel);
        }
        core::RunResult r;
        {
            const Scope span(log, "baseline.gi_run");
            const Clock::time_point t = Clock::now();
            r = accel->run(options);
            out.runSeconds = secondsSince(t);
        }
        copyAccelResult(out, r, accel->hbmDevice());
        const Scope span(log, "energy.model");
        out.energyJ =
            model.graphicionadoEnergy(cfg, out.cycles, out.memoryBytes)
                .totalJ();
        break;
      }
      case System::Gunrock: {
        baseline::GunrockConfig cfg;
        cfg.maxIterations = spec.maxIterations;
        const Scope span(log, "baseline.gunrock_run");
        const Clock::time_point t = Clock::now();
        baseline::GunrockSim gpu(cfg, g, *kernel);
        baseline::GunrockResult r = gpu.run(spec.source);
        out.runSeconds = secondsSince(t);
        out.iterations = r.iterations;
        out.edges = r.edgesProcessed;
        out.memoryBytes = r.memoryBytes;
        out.footprintBytes = r.footprintBytes;
        out.bwUtil = r.bandwidthUtilization;
        out.energyJ = r.energyJoules;
        out.simSeconds = r.seconds;
        out.gteps = r.gteps();
        out.properties = std::move(r.properties);
        break;
      }
    }
    return out;
}

/** The cell finished and its output passes the independent validator. */
void
certifyRun(const RunOut &out, const graph::Csr &g, Certifier &cert,
           SpanLog &log)
{
    const std::string label = out.spec.label();
    cert.check(out.outcome == "completed",
               label + ": run ended " + out.outcome);
    algo::ValidationResult verdict;
    {
        const Scope span(log, "algo.validate");
        verdict = algo::validate(out.spec.algorithm, g, out.spec.source,
                                 out.properties);
    }
    cert.check(verdict.valid, label + ": " + verdict.message);
}

harness::RunRecord
toRecord(const RunOut &out)
{
    harness::RunRecord r;
    r.system = systemLabel(out.spec.system);
    r.algorithm = algo::algorithmName(out.spec.algorithm);
    r.dataset = out.spec.dataset;
    r.status = out.outcome == "completed" ? "ok" : out.outcome;
    r.iterations = out.iterations;
    r.seconds = out.simSeconds;
    r.gteps = out.gteps;
    r.memoryBytes = static_cast<double>(out.memoryBytes);
    r.footprintBytes = static_cast<double>(out.footprintBytes);
    r.bandwidthUtilization = out.bwUtil;
    r.energyJoules = out.energyJ;
    r.schedulingOps = static_cast<double>(out.schedOps);
    r.atomicStalls = static_cast<double>(out.atomicStalls);
    r.updatesSkipped = static_cast<double>(out.updatesSkipped);
    r.vertexUpdates = static_cast<double>(out.vertexUpdates);
    r.edgesProcessed = static_cast<double>(out.edges);
    r.wallSimSeconds = out.runSeconds;
    return r;
}

/** Field-by-field equality of two records, wall-clock split included. */
bool
sameRecord(const harness::RunRecord &a, const harness::RunRecord &b)
{
    return a.system == b.system && a.algorithm == b.algorithm &&
           a.dataset == b.dataset && a.status == b.status &&
           a.iterations == b.iterations && a.seconds == b.seconds &&
           a.gteps == b.gteps && a.memoryBytes == b.memoryBytes &&
           a.footprintBytes == b.footprintBytes &&
           a.bandwidthUtilization == b.bandwidthUtilization &&
           a.energyJoules == b.energyJoules &&
           a.schedulingOps == b.schedulingOps &&
           a.atomicStalls == b.atomicStalls &&
           a.updatesSkipped == b.updatesSkipped &&
           a.vertexUpdates == b.vertexUpdates &&
           a.edgesProcessed == b.edgesProcessed &&
           a.configHash == b.configHash &&
           a.wallLoadSeconds == b.wallLoadSeconds &&
           a.wallSimSeconds == b.wallSimSeconds &&
           a.wallValidateSeconds == b.wallValidateSeconds;
}

/** Simulated fields only: what must repeat across cold repetitions. */
bool
sameSimulation(const harness::RunRecord &a, const harness::RunRecord &b)
{
    harness::RunRecord x = a;
    x.wallLoadSeconds = b.wallLoadSeconds;
    x.wallSimSeconds = b.wallSimSeconds;
    x.wallValidateSeconds = b.wallValidateSeconds;
    return sameRecord(x, b);
}

// ---------------------------------------------------------------------
// Raw output.
// ---------------------------------------------------------------------

void
jsonKey(std::ostream &os, const char *key)
{
    stats::emitJsonString(os, key);
    os << ':';
}

void
writeRun(std::ostream &os, const RunOut &r)
{
    os << '{';
    jsonKey(os, "system");
    stats::emitJsonString(os, systemLabel(r.spec.system));
    os << ',';
    jsonKey(os, "algorithm");
    stats::emitJsonString(os, algo::algorithmName(r.spec.algorithm));
    os << ',';
    jsonKey(os, "dataset");
    stats::emitJsonString(os, r.spec.dataset);
    os << ',';
    jsonKey(os, "outcome");
    stats::emitJsonString(os, r.outcome);
    const std::pair<const char *, double> fields[] = {
        {"run_s", r.runSeconds},
        {"cycles", static_cast<double>(r.cycles)},
        {"stepped_cycles", static_cast<double>(r.stepped)},
        {"skipped_cycles", static_cast<double>(r.skipped)},
        {"skip_windows", static_cast<double>(r.windows)},
        {"iterations", static_cast<double>(r.iterations)},
        {"edges", static_cast<double>(r.edges)},
        {"memory_bytes", static_cast<double>(r.memoryBytes)},
        {"read_bytes", r.readBytes},
        {"write_bytes", r.writeBytes},
        {"row_hit_rate", r.rowHitRate},
        {"bw_util", r.bwUtil},
        {"xbar_conflicts", r.xbarConflicts},
        {"sched_ops", static_cast<double>(r.schedOps)},
        {"atomic_stalls", static_cast<double>(r.atomicStalls)},
        {"updates_skipped", static_cast<double>(r.updatesSkipped)},
        {"energy_j", r.energyJ},
        {"sim_seconds", r.simSeconds},
        {"gteps", r.gteps},
    };
    for (const auto &[key, value] : fields) {
        os << ',';
        jsonKey(os, key);
        stats::emitJsonNumber(os, value);
    }
    os << '}';
}

template <typename T, typename Fn>
void
writeArray(std::ostream &os, const std::vector<T> &items, Fn &&emit)
{
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0)
            os << ',';
        emit(items[i]);
    }
    os << ']';
}

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

struct GraphJob
{
    std::string file;
    std::function<graph::Csr()> make;
};

struct SetupOut
{
    double wallSeconds = 0.0;
    double heapBytes = 0.0;   ///< generated arrays, before saving
    double mappedBytes = 0.0; ///< the saved files, mapped back
};

/**
 * One set-up pass: generate each input (one at a time, so set-up never
 * holds two generated graphs), save it atomically, map every file back,
 * and construct each cell's accelerator once.
 */
SetupOut
setUp(const std::vector<GraphJob> &jobs, const std::vector<RunSpec> &runs,
      SpanLog &log)
{
    const Clock::time_point start = Clock::now();
    SetupOut out;
    {
        const Scope root(log, "bench.setup");
        for (const GraphJob &job : jobs) {
            std::filesystem::remove(job.file);
            graph::Csr g;
            {
                const Scope span(log, "graph.generate");
                g = job.make();
            }
            out.heapBytes += static_cast<double>(g.heapBytes());
            const Scope span(log, "graph.save");
            graph::saveBinaryAtomic(g, job.file);
        }
        std::map<std::string, graph::Csr> mapped;
        for (const GraphJob &job : jobs) {
            const Scope span(log, "graph.load");
            const graph::Csr &g = mapped[job.file] =
                graph::loadBinaryMapped(job.file);
            out.mappedBytes += static_cast<double>(g.mappedBytes());
        }
        for (const RunSpec &spec : runs)
            constructOnce(spec, mapped.at(spec.graphFile), log);
    }
    out.wallSeconds = secondsSince(start);
    return out;
}

struct Workload
{
    std::vector<GraphJob> graphs;
    std::vector<RunSpec> runs; ///< empty for the matrix
};

/**
 * Four RMAT graphs of scale 14, together the size of one scale-16 graph.
 * One graph's simulated results vary by 12-20% (quartile spread) from
 * seed to seed, as hubs land on different streams, UEs and channels;
 * four graphs halve that at the same cost.
 */
constexpr unsigned denseScale = 14;
constexpr unsigned denseGraphs = 4;

/**
 * The first RMAT seed from @p seed on whose graph the PR validator can
 * certify the reference engine's ranks. validatePr is a semi-oracle with
 * a pointwise bound that activation-gated PR does not always meet (about
 * one scale-16 graph in fifteen misses it, whatever the iteration cap).
 * Such an input would fail every system alike and say nothing about them.
 */
std::uint64_t
certifiableRmatSeed(std::uint64_t seed)
{
    const algo::AlgorithmId pr = algo::AlgorithmId::Pr;
    for (std::uint64_t s = seed;; ++s) {
        const graph::Csr g = graph::rmat(denseScale, 16, s, {}, false, 1);
        auto kernel = algo::makeAlgorithm(pr);
        algo::ReferenceOptions options;
        options.maxIterations = harness::iterationCap(pr);
        const auto ranks = algo::runReference(g, *kernel, 0, options);
        if (algo::validate(pr, g, 0, ranks.properties).valid)
            return s;
    }
}

/** Graph500 RMAT (edge factor 16): PR and CC on all three systems. */
Workload
denseWorkload(std::uint64_t seed)
{
    Workload w;
    SplitMix64 mix(seed);
    for (unsigned i = 0; i < denseGraphs; ++i) {
        const std::uint64_t graph_seed = certifiableRmatSeed(mix.next());
        const std::string file = "dense_rmat_" + std::to_string(i) + ".bin";
        const std::string name = "rmat" + std::to_string(denseScale) +
                                 "-seed" + std::to_string(graph_seed);
        w.graphs.push_back({file, [graph_seed] {
                                return graph::rmat(denseScale, 16,
                                                   graph_seed, {}, false, 1);
                            }});
        for (const algo::AlgorithmId id :
             {algo::AlgorithmId::Pr, algo::AlgorithmId::Cc}) {
            for (const System s :
                 {System::Gds, System::Gi, System::Gunrock})
                w.runs.push_back(
                    {s, id, file, name, 0, harness::iterationCap(id)});
        }
    }
    return w;
}

/** Length of the long road (GraphDynS only) and the comparison road. */
constexpr VertexId roadLong = 32768;
constexpr VertexId roadShort = 2048;

/**
 * Roads of maximal diameter: 1-wide grids (paths) with seeded weights.
 * A frontier never holds more than two vertices, so every iteration is a
 * few requests and an HBM round trip of pure waiting. BFS and SSSP run on
 * GraphDynS over the long road; the comparison road repeats them next to
 * Graphicionado (BFS) and Gunrock (BFS, SSSP). Both baselines sweep every
 * vertex each iteration, which is quadratic on a path, so they get the
 * short road. The source is a seeded vertex among the first eight, so
 * every traversal crosses the whole road and the iteration count hardly
 * depends on the seed.
 */
Workload
roadWorkload(std::uint64_t seed)
{
    Workload w;
    SplitMix64 mix(seed);
    const VertexId source = static_cast<VertexId>(mix.next() % 8);
    for (const VertexId length : {roadLong, roadShort}) {
        const std::string tag = "road" + std::to_string(length);
        const std::string name = tag + "-seed" + std::to_string(seed);
        const std::string unweighted = tag + "_u.bin";
        const std::string weighted = tag + "_w.bin";
        w.graphs.push_back({unweighted, [seed, length] {
                                return graph::grid2d(1, length, seed, false);
                            }});
        w.graphs.push_back({weighted, [seed, length] {
                                return graph::grid2d(1, length, seed, true);
                            }});
        const unsigned cap = 2 * length;
        const bool compare = length == roadShort;
        for (const System s : {System::Gds, System::Gi, System::Gunrock}) {
            if (s == System::Gds || compare)
                w.runs.push_back({s, algo::AlgorithmId::Bfs, unweighted,
                                  name, source, cap});
        }
        for (const System s : {System::Gds, System::Gunrock}) {
            if (s == System::Gds || compare)
                w.runs.push_back({s, algo::AlgorithmId::Sssp, weighted, name,
                                  source, cap});
        }
    }
    return w;
}

/** The twelve Table 4 surrogate files the Fig. 6 matrix reads. */
Workload
matrixWorkload()
{
    Workload w;
    const unsigned scale = graph::datasetScaleDivisor();
    for (const graph::DatasetSpec &spec : graph::realWorldDatasets()) {
        for (const bool weighted : {false, true}) {
            const graph::DatasetSpec *p = &spec;
            w.graphs.push_back(
                {harness::datasetCachePath(spec.name, scale, weighted),
                 [p, scale, weighted] {
                     return graph::makeDataset(*p, scale, weighted);
                 }});
        }
    }
    return w;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
    std::string traceFile;
};

/**
 * Set-up passes per run: at least five and at least one second's worth,
 * so a set-up of a few milliseconds (the roads) is the median of enough
 * passes to smooth out the latency of its fsyncs. Set-up time is their
 * median.
 */
constexpr std::size_t minSetupPasses = 5;
constexpr double minSetupSeconds = 1.0;

/** Result-cache file of the harness, in the working directory. */
constexpr const char *cacheFile = "gds_bench_cache_v1.csv";

struct Rep
{
    bool traced = false;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::vector<RunOut> runs;  ///< dense/road cells
    std::string manifest;      ///< matrix: this cold call's manifest copy
};

/** One run of a workload: set-up, timed passes, warm pass, raw output. */
class WorkloadRun
{
  public:
    explicit WorkloadRun(const Args &args)
        : a(args), matrix(args.workload == "matrix"),
          w(args.workload == "dense"  ? denseWorkload(args.seed)
            : args.workload == "road" ? roadWorkload(args.seed)
                                      : matrixWorkload())
    {
        log.setEnabled(a.trace);
    }

    int
    run()
    {
        const Clock::time_point start = Clock::now();
        while (setups.size() < minSetupPasses ||
               secondsSince(start) < minSetupSeconds)
            setups.push_back(setUp(w.graphs, w.runs, log));
        repeatWithinBudget();
        warmPass();
        if (matrix)
            probeFrColumn();
        return write();
    }

  private:
    /**
     * Timed passes until the budget is spent: stop once another pass like
     * the last would overrun it. Trace mode alternates untraced and traced
     * passes and needs one of each (the tracing overhead is their
     * difference).
     */
    void
    repeatWithinBudget()
    {
        const Clock::time_point start = Clock::now();
        for (unsigned i = 0;; ++i) {
            const Clock::time_point begin = Clock::now();
            pass(a.trace && i % 2 == 1);
            const bool required = a.trace && i < 1;
            if (!required &&
                secondsSince(start) + secondsSince(begin) > a.seconds)
                break;
        }
    }

    void
    pass(bool traced)
    {
        Rep rep;
        rep.traced = traced;
        std::vector<harness::RunRecord> records;
        log.setEnabled(traced);
        {
            const Scope root(log, "bench.rep");
            const Clock::time_point start = Clock::now();
            const double cpu = cpuSeconds();
            if (matrix) {
                std::filesystem::remove(cacheFile);
                const Scope span(log, "harness.evaluation_matrix");
                harness::ResultCache cache;
                records = harness::evaluationMatrix(cache);
            } else {
                for (const RunSpec &spec : w.runs)
                    rep.runs.push_back(simulate(spec, log));
            }
            rep.wallSeconds = secondsSince(start);
            rep.cpuSeconds = cpuSeconds() - cpu;
        }
        log.setEnabled(a.trace);
        const Scope root(log, "bench.certify");
        if (matrix) {
            rep.manifest =
                "manifest_cold_" + std::to_string(reps.size()) + ".json";
            std::filesystem::rename("manifest.json", rep.manifest);
            certifyCold(std::move(records));
        } else {
            certifyCells(rep.runs);
            // Certified and fingerprinted: keeping every pass's outputs
            // would make peak RSS grow with the number of passes.
            for (RunOut &r : rep.runs)
                std::vector<PropValue>().swap(r.properties);
        }
        reps.push_back(std::move(rep));
    }

    /** Every cell ok, and the same as in the previous cold call. */
    void
    certifyCold(std::vector<harness::RunRecord> records)
    {
        cert.check(records.size() == 90,
                   "matrix returned " + std::to_string(records.size()) +
                       " of 90 cells");
        for (std::size_t i = 0; i < records.size(); ++i) {
            const harness::RunRecord &r = records[i];
            const std::string label =
                r.system + "/" + r.algorithm + "/" + r.dataset;
            cert.check(r.ok(), label + ": status " + r.status);
            if (!cold.empty()) {
                cert.check(i < cold.size() && sameSimulation(r, cold[i]),
                           label + ": differs between cold calls");
            }
        }
        cold = std::move(records);
    }

    /** Every cell valid, and the same as in the first pass. */
    void
    certifyCells(const std::vector<RunOut> &runs)
    {
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const RunOut &r = runs[i];
            certifyRun(r, input(r.spec.graphFile), cert, log);
            if (reference.size() < runs.size())
                reference.push_back(r.fingerprint());
            else
                cert.check(r.fingerprint() == reference[i],
                           r.spec.label() +
                               ": simulated statistics differ between "
                               "passes");
        }
    }

    /** Serve the records of a cold pass again from the result cache. */
    void
    warmPass()
    {
        const Scope root(log, "bench.warm");
        std::vector<std::pair<harness::RunRecord, harness::RunRecord>> pairs;
        if (matrix) {
            const Clock::time_point start = Clock::now();
            std::vector<harness::RunRecord> served;
            {
                const Scope span(log, "harness.warm_matrix");
                harness::ResultCache cache;
                served = harness::evaluationMatrix(cache);
            }
            warmSeconds = secondsSince(start);
            std::filesystem::rename("manifest.json", "manifest_warm.json");
            cert.check(served.size() == cold.size(),
                       "warm matrix returned a different cell count");
            for (std::size_t i = 0; i < served.size() && i < cold.size();
                 ++i)
                pairs.emplace_back(served[i], cold[i]);
        } else {
            std::filesystem::remove(cacheFile);
            std::vector<std::pair<std::string, harness::RunRecord>> stored;
            for (const RunOut &r : reps.front().runs) {
                stored.emplace_back(
                    harness::cellKey(systemLabel(r.spec.system),
                                     r.spec.algorithm, r.spec.dataset),
                    toRecord(r));
            }
            {
                const Scope span(log, "harness.cache_store");
                harness::ResultCache cache;
                for (const auto &[key, record] : stored)
                    cache.store(key, record);
            }
            const Clock::time_point start = Clock::now();
            {
                const Scope span(log, "harness.cache_lookup");
                const harness::ResultCache cache;
                for (const auto &[key, record] : stored) {
                    harness::RunRecord found;
                    found.status = "missing";
                    if (const auto hit = cache.lookup(key))
                        found = *hit;
                    pairs.emplace_back(found, record);
                }
            }
            warmSeconds = secondsSince(start);
        }
        for (const auto &[served, original] : pairs) {
            const bool same = sameRecord(served, original);
            warmHits += same ? 1 : 0;
            cert.check(same, original.system + "/" + original.algorithm +
                                 "/" + original.dataset +
                                 ": warm record differs from cold");
        }
        warmLookups = pairs.size();
    }

    /**
     * Re-simulate the matrix's FR column directly (GraphDynS and
     * Graphicionado, every algorithm): validate the outputs and check
     * that the harness recorded exactly what the direct run computes.
     */
    void
    probeFrColumn()
    {
        const Scope root(log, "bench.probe");
        const unsigned scale = graph::datasetScaleDivisor();
        for (const algo::AlgorithmId id : algo::allAlgorithms) {
            const bool weighted = algo::makeAlgorithm(id)->usesWeights();
            const std::string file =
                harness::datasetCachePath("FR", scale, weighted);
            const graph::Csr &g = input(file);
            for (const System s : {System::Gds, System::Gi}) {
                const RunSpec spec{s, id, file, "FR",
                                   harness::sourceFor(id, g),
                                   harness::iterationCap(id)};
                RunOut out = simulate(spec, log);
                certifyRun(out, g, cert, log);
                const harness::RunRecord *rec = harness::tryFindRecord(
                    cold, systemLabel(s), algo::algorithmName(id), "FR");
                cert.check(rec != nullptr && rec->seconds == out.simSeconds &&
                               rec->edgesProcessed ==
                                   static_cast<double>(out.edges) &&
                               rec->iterations == out.iterations,
                           spec.label() +
                               ": matrix record differs from direct run");
                out.properties.clear();
                probes.push_back(std::move(out));
            }
        }
    }

    /** A certification input, mapped once. */
    const graph::Csr &
    input(const std::string &file)
    {
        auto it = graphs.find(file);
        if (it == graphs.end()) {
            const Scope span(log, "graph.load");
            it = graphs.emplace(file, graph::loadBinaryMapped(file)).first;
        }
        return it->second;
    }

    /** The raw output run.py reads, and the span trace. */
    int
    write() const
    {
        std::ofstream os(a.out);
        os.precision(17);
        os << '{';
        jsonKey(os, "workload");
        stats::emitJsonString(os, a.workload);
        os << ',';
        jsonKey(os, "seed");
        os << a.seed << ',';
        jsonKey(os, "jobs");
        os << (matrix ? common::jobCount() : 1u) << ',';
        jsonKey(os, "setup");
        writeArray(os, setups, [&os](const SetupOut &s) {
            os << "{\"wall_s\":" << s.wallSeconds
               << ",\"heap_bytes\":" << s.heapBytes
               << ",\"mapped_bytes\":" << s.mappedBytes << '}';
        });
        os << ',';
        jsonKey(os, "reps");
        writeArray(os, reps, [&os](const Rep &r) {
            os << "{\"traced\":" << (r.traced ? "true" : "false")
               << ",\"wall_s\":" << r.wallSeconds
               << ",\"cpu_s\":" << r.cpuSeconds << ",\"manifest\":";
            stats::emitJsonString(os, r.manifest);
            os << ",\"runs\":";
            writeArray(os, r.runs,
                       [&os](const RunOut &x) { writeRun(os, x); });
            os << '}';
        });
        os << ',';
        jsonKey(os, "probes");
        writeArray(os, probes, [&os](const RunOut &x) { writeRun(os, x); });
        os << ',';
        jsonKey(os, "records");
        harness::dumpRecordsJson(cold, os);
        os << ",\"warm\":{\"wall_s\":" << warmSeconds
           << ",\"hits\":" << warmHits << ",\"lookups\":" << warmLookups
           << "},\"certify\":{\"attempted\":" << cert.attempted
           << ",\"failures\":";
        writeArray(os, cert.failures, [&os](const std::string &f) {
            stats::emitJsonString(os, f);
        });
        os << "},\"peak_rss_bytes\":" << common::peakRssBytes() << "}\n";
        os.close();
        if (!os) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.out.c_str());
            return 1;
        }
        if (a.trace && !a.traceFile.empty() && !log.writeFile(a.traceFile)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceFile.c_str());
            return 1;
        }
        return 0;
    }

    const Args &a;
    const bool matrix;
    SpanLog log;
    Certifier cert;
    Workload w;
    std::vector<SetupOut> setups;
    std::vector<Rep> reps;
    std::vector<harness::RunRecord> cold;     ///< matrix: last cold call
    std::vector<std::string> reference;       ///< dense/road: first pass
    std::map<std::string, graph::Csr> graphs; ///< certification inputs
    double warmSeconds = 0.0;
    std::uint64_t warmHits = 0;
    std::uint64_t warmLookups = 0;
    std::vector<RunOut> probes; ///< matrix: the re-simulated FR column
};

/**
 * The certification path must catch what it exists to catch: a correct
 * run passes, a corrupted property vector and a drifted statistic fail.
 */
int
selfTest()
{
    SpanLog log;
    Certifier cert;
    const std::string file = "selftest_grid.bin";
    graph::saveBinaryAtomic(graph::grid2d(4, 64, 3, false), file);
    const graph::Csr g = graph::loadBinaryMapped(file);
    const RunSpec spec{System::Gds, algo::AlgorithmId::Bfs, file, "grid",
                       0, 1000};
    const RunOut good = simulate(spec, log);
    certifyRun(good, g, cert, log);
    const std::size_t clean_failures = cert.failures.size();

    RunOut corrupt = good;
    corrupt.properties.back() += 5; // farthest vertex: level no longer tight
    certifyRun(corrupt, g, cert, log);
    const bool corrupt_caught = cert.failures.size() == clean_failures + 1;

    RunOut drifted = good;
    drifted.cycles += 1;
    const bool drift_caught = drifted.fingerprint() != good.fingerprint() &&
                              simulate(spec, log).fingerprint() ==
                                  good.fingerprint();
    std::filesystem::remove(file);

    std::printf("selftest: clean run %s, corrupted properties %s, "
                "drifted statistic %s\n",
                clean_failures == 0 ? "certified" : "REJECTED",
                corrupt_caught ? "rejected" : "NOT CAUGHT",
                drift_caught ? "rejected" : "NOT CAUGHT");
    return clean_failures == 0 && corrupt_caught && drift_caught ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench run --workload dense|road|matrix "
                 "--seed N --seconds S --trace 0|1 --out RAW.json "
                 "[--trace-file TRACE.json]\n"
                 "       perfbench selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0)
        return selfTest();
    if (argc < 2 || std::strcmp(argv[1], "run") != 0)
        return usage();
    Args a;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload")
            a.workload = value;
        else if (key == "--seed")
            a.seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            a.trace = std::strcmp(value, "0") != 0;
        else if (key == "--out")
            a.out = value;
        else if (key == "--trace-file")
            a.traceFile = value;
        else
            return usage();
    }
    if (a.out.empty() || (a.workload != "dense" && a.workload != "road" &&
                          a.workload != "matrix"))
        return usage();
    try {
        return WorkloadRun(a).run();
    } catch (const SimError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
