/**
 * @file
 * gds_sim: a command-line driver exposing the whole evaluation platform,
 * the entry point a downstream user of this library reaches for first.
 *
 *   gds_sim --algo pr --dataset LJ --system gds
 *   gds_sim --algo sssp --graph edges.txt --system graphicionado
 *   gds_sim --algo bfs --rmat 18 --system all --stats
 *
 * Options:
 *   --algo bfs|sssp|cc|sswp|pr     algorithm (required)
 *   --system gds|graphicionado|gunrock|all   (default gds)
 *   --dataset NAME                 a Table 4 dataset (FR PK LJ HO IN OR,
 *                                  RM22..RM26), scaled by GDS_SCALE
 *   --graph FILE                   whitespace edge-list file
 *   --rmat SCALE                   RMAT graph with 2^SCALE vertices
 *   --source VID                   source vertex (default: max degree)
 *   --iters N                      iteration cap (default: 10 for PR)
 *   --set SYS.NAME=VALUE           set a config field of SYS (gds, gi,
 *                                  gunrock) as its fields() names it,
 *                                  after --iters; repeatable, e.g.
 *                                  gds.workloadBalance=false gi.hbm.tCl=12
 *   --stats                        dump the full statistics tree
 *   --trace FILE                   write a Perfetto-loadable event trace
 *   --sample-interval N            sample stats every N cycles
 *   --samples FILE                 sample CSV path (default
 *                                  gds_samples.csv; per-system prefix
 *                                  with --system all)
 *   --checkpoint-dir DIR           write mid-run checkpoints into DIR
 *   --checkpoint-interval N        checkpoint every N cycles (default:
 *                                  only on SIGINT/SIGTERM)
 *   --resume                       resume from DIR's latest checkpoint
 *   --kill-at-cycle N              raise SIGKILL at cycle N (crash tests)
 *
 * SIGINT/SIGTERM request a graceful stop: the run halts at the next
 * watchdog boundary, writes a final checkpoint (when --checkpoint-dir is
 * set) and still flushes samples and the trace, so an interrupted run can
 * be resumed with --resume and loses nothing. A checkpoint is keyed by
 * the system's effective config (its configHash), so resuming under a
 * different --set warns and starts clean.
 *
 * Every value flag also accepts the --flag=value spelling.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/graphicionado.hh"
#include "common/parse.hh"
#include "baseline/gunrock_sim.hh"
#include "core/gds_accel.hh"
#include "energy/energy_model.hh"
#include "graph/generators.hh"
#include "graph/loader.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

using namespace gds;

namespace
{

struct Options
{
    std::optional<algo::AlgorithmId> algorithm;
    std::string system = "gds";
    std::string dataset;
    std::string graphFile;
    std::optional<unsigned> rmatScale;
    std::optional<VertexId> source;
    unsigned iterations = 0;
    harness::SystemConfigs configs;
    bool dumpStats = false;
    std::string traceFile;
    Cycle sampleInterval = 0;
    std::string sampleFile = "gds_samples.csv";
    std::string checkpointDir;
    Cycle checkpointInterval = 0;
    bool resume = false;
    Cycle killAtCycle = 0;
};

/** Async-signal-safe: requestStop() is one relaxed atomic store. */
void
handleStopSignal(int)
{
    sim::requestStop();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --algo bfs|sssp|cc|sswp|pr "
                 "[--system gds|graphicionado|gunrock|all]\n"
                 "       (--dataset NAME | --graph FILE | --rmat SCALE)\n"
                 "       [--source VID] [--iters N] "
                 "[--set gds|gi|gunrock.NAME=VALUE]... [--stats]\n"
                 "       [--trace FILE] [--sample-interval N] "
                 "[--samples FILE]\n"
                 "       [--checkpoint-dir DIR] [--checkpoint-interval N] "
                 "[--resume]\n"
                 "       [--kill-at-cycle N]\n",
                 argv0);
    std::exit(1);
}

algo::AlgorithmId
parseAlgo(const std::string &name)
{
    if (name == "bfs")
        return algo::AlgorithmId::Bfs;
    if (name == "sssp")
        return algo::AlgorithmId::Sssp;
    if (name == "cc")
        return algo::AlgorithmId::Cc;
    if (name == "sswp")
        return algo::AlgorithmId::Sswp;
    if (name == "pr")
        return algo::AlgorithmId::Pr;
    fatal("unknown algorithm '%s'", name.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    std::optional<unsigned> iterations;
    std::vector<std::string> settings;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Both "--flag value" and "--flag=value" are accepted.
        std::optional<std::string> inline_value;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
            }
        }
        auto need_value = [&]() -> std::string {
            if (inline_value)
                return *inline_value;
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto no_value = [&]() {
            if (inline_value)
                usage(argv[0]);
        };
        // Numeric flags go through the checked parser: "--rmat=abc",
        // "--source=-1" or an overflowing value is a ConfigError that
        // main() turns into a message + usage, never an uncaught
        // std::invalid_argument crash (which bare std::stoul threw).
        auto need_u64 = [&](std::uint64_t min_v, std::uint64_t max_v) {
            return common::requireU64(arg, need_value(), min_v, max_v);
        };
        if (arg == "--algo")
            opts.algorithm = parseAlgo(need_value());
        else if (arg == "--system")
            opts.system = need_value();
        else if (arg == "--dataset")
            opts.dataset = need_value();
        else if (arg == "--graph")
            opts.graphFile = need_value();
        else if (arg == "--rmat")
            opts.rmatScale = static_cast<unsigned>(need_u64(1, 30));
        else if (arg == "--source")
            opts.source = static_cast<VertexId>(
                need_u64(0, std::numeric_limits<VertexId>::max()));
        else if (arg == "--iters")
            iterations = static_cast<unsigned>(
                need_u64(1, std::numeric_limits<unsigned>::max()));
        else if (arg == "--set")
            settings.push_back(need_value());
        else if (arg == "--stats") {
            no_value();
            opts.dumpStats = true;
        } else if (arg == "--trace")
            opts.traceFile = need_value();
        else if (arg == "--sample-interval")
            opts.sampleInterval = need_u64(
                1, std::numeric_limits<Cycle>::max());
        else if (arg == "--samples")
            opts.sampleFile = need_value();
        else if (arg == "--checkpoint-dir")
            opts.checkpointDir = need_value();
        else if (arg == "--checkpoint-interval")
            opts.checkpointInterval = need_u64(
                1, std::numeric_limits<Cycle>::max());
        else if (arg == "--resume") {
            no_value();
            opts.resume = true;
        } else if (arg == "--kill-at-cycle")
            opts.killAtCycle = need_u64(
                1, std::numeric_limits<Cycle>::max());
        else
            usage(argv[0]);
    }
    if (!opts.algorithm)
        usage(argv[0]);
    const int graph_sources = (!opts.dataset.empty() ? 1 : 0) +
                              (!opts.graphFile.empty() ? 1 : 0) +
                              (opts.rmatScale ? 1 : 0);
    if (graph_sources != 1)
        usage(argv[0]);
    // The iteration cap first, so a --set maxIterations overrides it.
    opts.iterations =
        iterations ? *iterations : harness::iterationCap(*opts.algorithm);
    opts.configs.gds.maxIterations = opts.iterations;
    opts.configs.gi.maxIterations = opts.iterations;
    opts.configs.gunrock.maxIterations = opts.iterations;
    for (const std::string &setting : settings)
        harness::setConfigField(opts.configs, setting);
    for (const char *violation :
         {core::configContractViolation(opts.configs.gds),
          baseline::configContractViolation(opts.configs.gi),
          baseline::gunrockContractViolation(opts.configs.gunrock)})
        if (violation)
            throw ConfigError(violation);
    if (opts.checkpointDir.empty() &&
        (opts.resume || opts.checkpointInterval != 0))
        fatal("--resume and --checkpoint-interval need --checkpoint-dir");
    return opts;
}

void
printCommon(const char *system, double seconds, double gteps,
            double bytes, double util, double energy_j)
{
    std::printf("%-14s time=%.4f ms  throughput=%.1f GTEPS  "
                "traffic=%.1f MB  bw=%.0f%%  energy=%.2f mJ\n",
                system, seconds * 1e3, gteps, bytes / 1e6, util * 100.0,
                energy_j * 1e3);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    try {
        opts = parseArgs(argc, argv);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        usage(argv[0]);
    }

    // Graceful stop: the handler only sets an atomic flag; the run loop
    // notices it at the next watchdog boundary, checkpoints and returns,
    // and main still flushes samples and the trace below.
    sim::clearStopRequest();
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);

    const auto algorithm_id = *opts.algorithm;
    const bool weighted =
        algo::makeAlgorithm(algorithm_id)->usesWeights();

    // --- Obtain the graph. ---
    graph::Csr g;
    if (!opts.dataset.empty()) {
        g = harness::loadDataset(opts.dataset, weighted);
    } else if (!opts.graphFile.empty()) {
        g = graph::loadEdgeList(opts.graphFile);
        if (weighted && !g.hasWeights())
            g = g.withRandomWeights(1);
    } else {
        g = graph::rmat(*opts.rmatScale, 16, 42, {}, weighted);
    }
    std::printf("graph: %u vertices, %llu edges\n", g.numVertices(),
                static_cast<unsigned long long>(g.numEdges()));

    const VertexId source = opts.source
                                ? *opts.source
                                : harness::sourceFor(algorithm_id, g);
    std::printf("%s from vertex %u, iteration cap %u\n\n",
                algo::algorithmName(algorithm_id).c_str(), source,
                opts.iterations);

    const bool all = opts.system == "all";
    energy::EnergyModel energy_model;

    // Telemetry: one tracer serves every simulated system (tracks are
    // per-component, so systems land on distinct tracks); samplers are
    // per run because their probes reference the accelerator instance.
    const bool tracing = !opts.traceFile.empty();
    obs::Tracer tracer;
    std::optional<obs::ScopedActiveTracer> trace_scope;
    if (tracing)
        trace_scope.emplace(&tracer);
    // Counter tracks ride the sample interval; default to 10k cycles
    // when tracing without sampling.
    const Cycle counter_interval =
        tracing ? (opts.sampleInterval != 0 ? opts.sampleInterval : 10'000)
                : 0;
    Cycle last_traced_cycle = 0;
    auto sample_path = [&](const char *system_tag) {
        return all ? std::string(system_tag) + "." + opts.sampleFile
                   : opts.sampleFile;
    };
    auto dump_samples = [&](const obs::Sampler &sampler,
                            const char *system_tag) {
        const std::string path = sample_path(system_tag);
        if (sampler.writeCsvFile(path)) {
            std::printf("  samples: %s (%zu rows, every %llu cycles)\n",
                        path.c_str(), sampler.sampleCount(),
                        static_cast<unsigned long long>(
                            opts.sampleInterval));
        }
    };
    // Per-system checkpoint basename so --system all runs don't collide.
    auto checkpoint_for = [&](const char *system_tag) {
        core::CheckpointOptions ckpt;
        if (opts.checkpointDir.empty())
            return ckpt;
        ckpt.dir = opts.checkpointDir;
        ckpt.basename = system_tag;
        ckpt.interval = opts.checkpointInterval;
        ckpt.resume = opts.resume;
        return ckpt;
    };
    auto note_interrupted = [&](const core::RunResult &r) {
        if (r.report.outcome != sim::RunOutcome::Stopped)
            return;
        std::printf("  stopped by signal at cycle %llu%s\n",
                    static_cast<unsigned long long>(r.cycles),
                    opts.checkpointDir.empty()
                        ? ""
                        : "; checkpoint written (rerun with --resume)");
    };

    // GraphDynS and Graphicionado run through the same accelerator
    // frame; only construction and the energy model differ.
    for (const std::string tag : {"gds", "graphicionado"}) {
        if (!all && opts.system != tag)
            continue;
        const bool gds = tag == "gds";
        const core::GdsConfig &gds_cfg = opts.configs.gds;
        const baseline::GraphicionadoConfig &gi_cfg = opts.configs.gi;
        auto a = algo::makeAlgorithm(algorithm_id);
        std::unique_ptr<core::VcpmAccel> accel;
        if (gds)
            accel = std::make_unique<core::GdsAccel>(gds_cfg, g, *a);
        else
            accel = std::make_unique<baseline::GraphicionadoAccel>(gi_cfg,
                                                                   g, *a);
        core::RunOptions run;
        run.source = source;
        obs::Sampler sampler;
        if (opts.sampleInterval != 0) {
            sampler.setInterval(opts.sampleInterval);
            run.sampler = &sampler;
        }
        run.traceCounterInterval = counter_interval;
        run.checkpoint = checkpoint_for(tag.c_str());
        // Keyed by the effective config: a resume under another --set
        // starts clean.
        run.checkpoint.identity =
            gds ? harness::configHash(gds_cfg) : harness::configHash(gi_cfg);
        run.killAtCycle = opts.killAtCycle;
        const auto r = accel->run(run);
        last_traced_cycle = std::max(last_traced_cycle, r.cycles);
        const double energy_j =
            gds ? energy_model.gdsEnergy(gds_cfg, r.cycles, r.memoryBytes)
                      .totalJ()
                : energy_model
                      .graphicionadoEnergy(gi_cfg, r.cycles, r.memoryBytes)
                      .totalJ();
        printCommon(gds ? "GraphDynS" : "Graphicionado",
                    static_cast<double>(r.cycles) * 1e-9, r.gteps(),
                    static_cast<double>(r.memoryBytes),
                    r.bandwidthUtilization, energy_j);
        std::printf("  iterations=%u slices=%u applies-skipped=%llu "
                    "atomic-stalls=%llu\n",
                    r.iterations, accel->numSlices(),
                    static_cast<unsigned long long>(r.updatesSkipped),
                    static_cast<unsigned long long>(r.atomicStalls));
        note_interrupted(r);
        if (opts.sampleInterval != 0)
            dump_samples(sampler, tag.c_str());
        if (opts.dumpStats)
            accel->statsGroup().dump(std::cout);
    }
    if (all || opts.system == "gunrock") {
        auto a = algo::makeAlgorithm(algorithm_id);
        baseline::GunrockSim gpu(opts.configs.gunrock, g, *a);
        const auto r = gpu.run(source);
        printCommon("Gunrock", r.seconds, r.gteps(),
                    static_cast<double>(r.memoryBytes),
                    r.bandwidthUtilization, r.energyJoules);
    }
    if (!all && opts.system != "gds" && opts.system != "graphicionado" &&
        opts.system != "gunrock")
        fatal("unknown system '%s'", opts.system.c_str());

    if (tracing) {
        // An aborted run (watchdog, cycle budget) can leave phase spans
        // open; close them so the trace stays well-nested.
        tracer.endAllOpen(last_traced_cycle);
        if (tracer.writeFile(opts.traceFile)) {
            std::printf("trace: %s (%zu events) — load in "
                        "https://ui.perfetto.dev\n",
                        opts.traceFile.c_str(), tracer.eventCount());
        }
    }
    return 0;
}
