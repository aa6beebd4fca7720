/**
 * @file
 * GraphDynS: the paper's accelerator, as a combined functional + cycle-level
 * timing model.
 *
 * The model executes the optimized programming model of Algorithm 2 on the
 * hardware organization of Fig. 3: a Prefetcher (Vpref + Epref) streaming
 * exactly the data the decoupled datapath announces, a Dispatcher of 16 DEs
 * performing workload-balanced threshold dispatch, a Processor of 16
 * 8-lane-SIMT PEs, and an Updater of 128 UEs behind a 128-radix crossbar,
 * each UE holding a 256 KB Vertex Buffer slice, a Ready-to-Update Bitmap,
 * a zero-stall Reduce Pipeline and an Activating Unit with coalesced,
 * double-buffered off-chip stores. Graphs whose temporary properties exceed
 * the 32 MB Vertex Buffer are processed in destination-range slices.
 *
 * Property values are computed for real during simulation, so every run's
 * output can be (and in the tests, is) compared against the functional
 * reference engine.
 *
 * The four data-aware scheduling techniques are individually switchable
 * (GdsConfig::workloadBalance / exactPrefetch / zeroStallAtomics /
 * updateScheduling), which is how the Fig. 14 ablation benches are built.
 */

#pragma once

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "algo/vcpm.hh"
#include "common/bitutil.hh"
#include "core/config.hh"
#include "core/memmap.hh"
#include "graph/slicer.hh"
#include "mem/crossbar.hh"
#include "mem/hbm.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/fault.hh"
#include "sim/queues.hh"
#include "sim/simulator.hh"

namespace gds::core
{

/**
 * Checkpoint policy of one accelerator run. With a directory configured
 * the run periodically snapshots its complete state (datapath, HBM,
 * crossbar, fault RNG, sampler, tracer, driver) to
 * `<dir>/<basename>.ckpt`; with resume set it first tries to continue
 * from the newest valid checkpoint whose identity matches. See
 * DESIGN.md "Checkpoint & recovery".
 */
struct CheckpointOptions
{
    /** Checkpoint directory; empty disables checkpointing entirely. */
    std::string dir;
    /** File base name inside dir (one logical run per base name). */
    std::string basename = "run";
    /** Cycles between periodic checkpoints; 0 = only on graceful stop. */
    Cycle interval = 0;
    /** Try to resume from the newest valid checkpoint first. */
    bool resume = false;
    /** Extra identity salt (e.g. the harness config hash); a checkpoint
     *  written under a different salt is refused on resume. */
    std::string identity;
};

/** Options of one accelerator run. */
struct RunOptions
{
    VertexId source = 0;
    /** Record per-PE edge counts for every iteration (Fig. 14b). */
    bool collectPeLoads = false;
    /** Hard cycle budget; 0 = the 50e9-cycle default. */
    Cycle cycleBudget = 0;
    /** No-progress window before declaring deadlock/livelock; 0 = default. */
    Cycle stallCycles = 0;
    /** Faults to inject (HBM delays/drops, crossbar stalls). */
    sim::FaultPlan faults;
    /**
     * Interval sampler driven by the run's Simulator (not owned). When it
     * has no probes yet, the default probe set is registered (see
     * registerProbes()).
     */
    obs::Sampler *sampler = nullptr;
    /**
     * Emit per-component activity counter tracks into the thread's active
     * tracer every this many cycles; 0 keeps counter tracks off.
     */
    Cycle traceCounterInterval = 0;
    /**
     * Skip provably idle cycle stretches (cycle-exact; see DESIGN.md
     * "Simulation performance"). Overridden off by GDS_NO_FASTFORWARD,
     * GDS_PERFECT_MEM and GDS_PROGRESS.
     */
    bool fastForward = true;
    /** Checkpoint/resume policy (preemption tolerance). */
    CheckpointOptions checkpoint;
    /** Wall-clock budget in seconds; 0 = unlimited. An exhausted budget
     *  writes a final checkpoint (when configured) and the run returns
     *  RunOutcome::Timeout. */
    double wallBudgetSeconds = 0.0;
    /**
     * Crash-injection hook for the checkpoint tests: raise SIGKILL the
     * moment this many cycles have elapsed in this run. 0 disables.
     * Combined with CheckpointOptions this proves a resumed run is
     * bit-exact against an uninterrupted one.
     */
    Cycle killAtCycle = 0;
};

/** Outcome of one accelerator run. */
struct RunResult
{
    /**
     * Watchdog verdict + failure diagnostics. On anything other than
     * RunOutcome::Completed the remaining fields describe the partial
     * run up to the point the watchdog fired.
     */
    sim::RunReport report;
    std::vector<PropValue> properties;
    unsigned iterations = 0;
    Cycle cycles = 0;
    std::uint64_t edgesProcessed = 0;
    std::uint64_t vertexUpdates = 0;
    std::uint64_t updatesSkipped = 0;
    std::uint64_t memoryBytes = 0;
    std::uint64_t footprintBytes = 0;
    double bandwidthUtilization = 0.0;
    std::uint64_t schedulingOps = 0;
    std::uint64_t atomicStalls = 0;
    /** Per-iteration per-PE edge loads (only when collectPeLoads). */
    std::vector<std::vector<std::uint64_t>> peLoads;

    /** True when the run finished normally. */
    bool completed() const { return report.ok(); }

    /** Giga-traversed-edges per second at the 1 GHz clock. */
    double
    gteps() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(edgesProcessed) / cycles;
    }
};

/** The GraphDynS accelerator model. */
class GdsAccel : public sim::Component
{
  public:
    /**
     * Bind the accelerator to a graph and an algorithm.
     *
     * @param config hardware configuration (Table 3 defaults)
     * @param g the graph; must carry weights iff the algorithm needs them
     * @param algorithm the VCPM kernels to execute
     * @throws ConfigError when the configuration is inconsistent
     */
    GdsAccel(const GdsConfig &config, const graph::Csr &g,
             algo::VcpmAlgorithm &algorithm,
             sim::Component *parent = nullptr);
    ~GdsAccel() override;

    /**
     * Execute the algorithm to convergence (or the iteration cap) under
     * watchdog supervision. Never hangs: a wedged run returns with
     * RunResult::report naming the outcome and the stalled components.
     *
     * @throws ConfigError on an invalid source or fault plan
     */
    RunResult run(const RunOptions &options = {});

    void tick() override;
    bool busy() const override;
    std::string debugState() const override;

    /**
     * 1 unless the current cycle is provably a pure wait (no port response
     * pending and the active phase cannot move or touch memory); then the
     * earliest cycle that can change that: the HBM's own horizon and, in
     * the Apply phase, the earliest VB-pipeline maturity.
     */
    Cycle nextEventCycle() const override;

    /**
     * Replay @p cycles pure-wait ticks in bulk: phase cycle counters,
     * per-cycle bottleneck attribution, VB pipeline clocks and the HBM
     * (refresh schedule included) all advance exactly as @p cycles naive
     * tick() calls would have left them.
     */
    void skipCycles(Cycle cycles) override;

    bool supportsFastForward() const override { return true; }

    /**
     * Checkpoint the complete accelerator: functional property arrays,
     * frontier buffers, every DE/PE/UE queue and pipeline register, both
     * phase-state blocks, the HBM (ports registered on the
     * serializer first) and the crossbar. Configuration and the bound
     * graph/algorithm are rebuilt by the constructor and must match —
     * run() guards that with the checkpoint identity string.
     */
    void saveState(sim::Serializer &s) const override;
    void restoreState(sim::Deserializer &d) override;

    /** The one checkpoint field list behind saveState()/restoreState(). */
    template <typename Self, typename Ar>
    static void fields(Self &self, Ar &ar);

    /** Activity = edges processed by the PEs (counter-track unit). */
    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(statEdgesProcessed.value());
    }

    /**
     * Register the default interval-probe set on @p sampler: HBM
     * read/write bytes, crossbar conflicts, DE/PE/UE queue occupancies
     * and the frontier size. run() calls this automatically when
     * RunOptions::sampler arrives with no probes of its own.
     */
    void registerProbes(obs::Sampler &sampler) const;

    /** The memory device (bandwidth/traffic stats for the benches). */
    const mem::Hbm &hbmDevice() const { return *hbm; }

    /** Off-chip storage footprint (Fig. 11). */
    std::uint64_t footprintBytes() const { return layout->footprintBytes(); }

    /** Number of destination-range slices in use. */
    unsigned numSlices() const { return static_cast<unsigned>(
        sliceCount); }

  private:
    // ------------------------------------------------------------------
    // Record/flit types flowing between components.
    // ------------------------------------------------------------------

    /** Active vertex data (Sec. 4.1.1): prop + offset + edgeCnt = 12 B.
     *  vid is carried for functional simulation only. */
    struct ActiveRecord
    {
        VertexId vid;
        PropValue prop;
        std::uint32_t edgeCnt;
        EdgeId offset; ///< into the owning slice's edge array

        template <typename Self, typename Ar>
        static void
        fields(Self &r, Ar &ar)
        {
            ar(r.vid, r.prop, r.edgeCnt, r.offset);
        }
    };

    /** One SIMT lane's worth of scatter work. */
    struct EdgeTask
    {
        VertexId dst;
        Weight weight;
        PropValue uProp;

        template <typename Self, typename Ar>
        static void
        fields(Self &t, Ar &ar)
        {
            ar(t.dst, t.weight, t.uProp);
        }
    };

    /** Edge-processing result routed through the crossbar to a UE. */
    struct ResultFlit
    {
        VertexId dst;
        PropValue value;

        template <typename Self, typename Ar>
        static void
        fields(Self &f, Ar &ar)
        {
            ar(f.dst, f.value);
        }
    };

    /** An Apply-phase vertex list (vListSize consecutive vertices). */
    struct ApplyList
    {
        VertexId startVid;
        std::uint16_t count;
        std::uint32_t group; ///< index into ApplyState::groups

        template <typename Self, typename Ar>
        static void
        fields(Self &l, Ar &ar)
        {
            ar(l.startVid, l.count, l.group);
        }
    };

    /** Per-record edge-prefetch bookkeeping. Large edge lists are fetched
     *  in several bounded requests ("parts"). */
    struct RecordFetch
    {
        bool reserved = false;   ///< buffer budget reserved
        bool allIssued = false;  ///< every part request issued
        bool ready = false;      ///< edge data available for dispatch
        std::uint32_t parts = 0; ///< part responses still outstanding
        std::uint64_t bytesIssued = 0;

        template <typename Self, typename Ar>
        static void
        fields(Self &f, Ar &ar)
        {
            ar(f.reserved, f.allIssued, f.ready, f.parts, f.bytesIssued);
        }
    };

    /** Per-UE state: Reduce Pipeline history + AU batching. */
    struct Ue
    {
        sim::BoundedQueue<ResultFlit> inbox;
        // Zero-stall mode resolves RAW by forwarding; stall mode
        // (Graphicionado-style) must wait while a conflicting update is in
        // flight in the 3-stage pipeline.
        std::array<VertexId, 2> pipeAddr{invalidVertex, invalidVertex};
        std::array<Cycle, 2> pipeCycle{0, 0};

        explicit Ue(unsigned depth) : inbox(depth) {}
    };

    /** Per-PE state. */
    struct Pe
    {
        sim::BoundedQueue<EdgeTask> edgeQueue;       ///< scatter workload
        std::vector<ResultFlit> pendingFlits;        ///< xbar retry buffer
        sim::BoundedQueue<ApplyList> applyQueue;     ///< apply workload
        sim::DelayQueue<ApplyList> vbStage;          ///< VB read pipeline

        Pe(unsigned edge_cap, unsigned apply_cap, Cycle vb_latency)
            : edgeQueue(edge_cap), applyQueue(apply_cap),
              vbStage(4, vb_latency)
        {}
    };

    /** Per-DE dispatch progress on its current record. */
    struct De
    {
        sim::BoundedQueue<std::uint64_t> vpb; ///< record indices
        std::uint32_t chunkCursor = 0;

        explicit De(unsigned cap) : vpb(cap) {}
    };

    enum class Phase
    {
        ScatterPhase,
        ApplyPhase,
        Finished,
    };

    // ------------------------------------------------------------------
    // Phase bookkeeping.
    // ------------------------------------------------------------------

    struct ScatterState
    {
        std::uint64_t recordsTotal = 0;
        std::uint64_t expectedEdges = 0;
        std::uint64_t batchesTotal = 0;
        std::uint64_t batchesIssued = 0;
        std::vector<std::uint8_t> batchReady;
        std::uint64_t commitCursor = 0;   ///< next record to commit
        std::uint64_t recordsDispatched = 0;
        std::uint64_t edgesReduced = 0;
        std::uint64_t fillOutstanding = 0;
        Addr fillCursor = 0;
        std::uint64_t fillBytesLeft = 0;
        std::deque<std::uint64_t> eprefPending; ///< records awaiting fetch
        std::vector<RecordFetch> fetch;
        std::vector<std::vector<std::uint64_t>> fetchBatches;
        std::uint64_t bufferedEdges = 0;
    };

    struct GroupFetch
    {
        unsigned requestsIssued = 0; ///< prefetch requests sent so far
        unsigned outstanding = 0;    ///< HBM responses still due
        std::uint32_t listsPushed = 0;
        std::uint32_t remainingVerts = 0;
    };

    struct ApplyState
    {
        std::vector<VertexId> groups; ///< start vid of each ready group
        std::vector<GroupFetch> fetch;
        std::uint64_t groupsRequested = 0;
        std::uint64_t commitCursor = 0; ///< group currently pushing lists
        std::uint64_t groupsCompleted = 0;
        std::uint64_t auBufferedRecords = 0;
        Addr auWriteCursor = 0;
        std::deque<std::pair<Addr, unsigned>> propWrites;
    };

    // ------------------------------------------------------------------
    // Phase logic (gds_scatter.cc / gds_apply.cc).
    // ------------------------------------------------------------------

    void startIteration();
    void startScatter();
    void tickScatter();
    bool scatterDone() const;
    void tickVpref();
    void tickEpref();
    void materializeRecord(std::uint64_t rec_index);
    void tickDispatchers();
    void dispatchChunk(De &de, unsigned de_index);
    void tickPesScatter();
    void tickUes();
    void reduceFlit(const ResultFlit &flit);

    // Fast-forward quiescence predicates (one per phase; each mirrors its
    // phase's tick path and returns true only when that path is provably a
    // pure wait — per-cycle stats aside, which skipCycles() replays).
    bool scatterQuiescent() const;
    bool applyQuiescent() const;

    void startApply();
    void tickApply();
    bool applyDone() const;
    void tickApplyPrefetch();
    void tickApplyCommit();
    void tickPesApply();
    void applyVertex(VertexId v);
    void flushAu(bool force);

    void finishSlice();

    // Tracer hooks (one branch each when tracing is off).
    void traceBegin(std::string event);
    void traceEnd();

    // Helpers.
    const graph::Csr &sliceGraph(unsigned s) const;
    VertexId sliceBegin(unsigned s) const;
    VertexId sliceEnd(unsigned s) const;
    void buildInitialActives(VertexId source);
    void activateVertex(VertexId v, PropValue new_prop);
    std::uint64_t groupIndexOf(VertexId v) const
    {
        return v / cfg.rbGroupSize;
    }

    // ------------------------------------------------------------------
    // Configuration and bound inputs.
    // ------------------------------------------------------------------

    // gds-ckpt: skip(cfg) construction-time configuration; resume verifies
    // the config hash instead of serializing it
    GdsConfig cfg;
    // gds-ckpt: skip(fullGraph) non-owning reference to the immutable input
    // graph the caller rebinds on resume
    const graph::Csr &fullGraph;
    // gds-ckpt: skip(algo) non-owning reference to the stateless algorithm
    // kernel the caller rebinds on resume
    algo::VcpmAlgorithm &algo;
    // gds-ckpt: skip(weighted) derived from the algorithm kernel in the
    // constructor
    bool weighted;
    // gds-ckpt: skip(hasConstProp) derived from the algorithm kernel in the
    // constructor
    bool hasConstProp;

    // Slicing.
    // gds-ckpt: skip(sliceCount) derived from cfg and the graph in the
    // constructor
    unsigned sliceCount = 1;
    // gds-ckpt: skip(slices) deterministic re-partition of the immutable
    // input graph, rebuilt in the constructor
    std::vector<graph::Slice> slices; ///< empty when sliceCount == 1
    // gds-ckpt: skip(sliceEdgeStart) derived from slices in the constructor
    std::vector<EdgeId> sliceEdgeStart;

    // gds-ckpt: skip(layout) address map derived from cfg and the graph in
    // the constructor
    std::unique_ptr<MemoryLayout> layout;
    std::unique_ptr<mem::Hbm> hbm;
    std::unique_ptr<mem::Crossbar> xbar;

    // Functional state.
    std::vector<PropValue> prop;
    std::vector<PropValue> tProp;
    std::vector<PropValue> cProp;
    std::vector<std::uint8_t> readyGroup;
    std::vector<std::vector<ActiveRecord>> activeCur;  ///< per slice
    std::vector<std::vector<ActiveRecord>> activeNext; ///< per slice
    std::uint64_t activatedThisIteration = 0;

    // Microarchitectural state.
    std::vector<De> des;
    std::vector<Pe> pes;
    std::vector<Ue> ues;
    /**
     * Aggregate occupancy of the scatter datapath queues, maintained at
     * every push/pop. The per-tick stage walks and the fast-forward
     * quiescence predicate consult these instead of scanning all PEs/UEs,
     * which keeps idle stages O(1) per cycle.
     */
    std::uint64_t scEdgesQueued = 0;   ///< sum of PE edgeQueue sizes
    std::uint64_t scFlitsBuffered = 0; ///< sum of PE pendingFlits sizes
    std::uint64_t ueFlitsQueued = 0;   ///< sum of UE inbox sizes
    /**
     * UEs whose inbox holds a flit, one bit per UE: tickUes() visits only
     * these, in ascending UE order. The route loop sets a UE's bit on
     * every push; a UE clears it when its inbox drains, so a UE stalled on
     * a RAW conflict keeps it.
     */
    // gds-ckpt: skip(uesNonEmpty) derived from the UE inboxes; rebuilt at
    // the end of restoreState()
    BitMask uesNonEmpty;
    ScatterState sc;
    ApplyState ap;
    Phase phase = Phase::Finished;
    unsigned curSlice = 0;
    unsigned iteration = 0;
    unsigned activeBuf = 0;
    Cycle now = 0;
    /** Local clock at run() entry; serialized so a resumed run reports
     *  cycles spanning the whole logical run, not just the tail. */
    Cycle runStart = 0;
    /**
     * GDS_PERFECT_MEM, resolved exactly once at run() entry and used by
     * every consumer (dispatch materialization, the scatter quiescence
     * predicate, fast-forward gating). Run-scoped on purpose: a test or
     * a daemon job that flips the environment variable between runs gets
     * consistent behaviour within each run, and nothing latched in a
     * function-local static can leak across jobs sharing the process.
     */
    // gds-ckpt: skip(perfectMem) run-scoped environment latch, re-resolved
    // at run() entry on the resumed process before restore applies
    bool perfectMem = false;
    bool collectPeLoads = false;
    std::vector<std::uint64_t> peLoadThisIteration;
    std::vector<std::vector<std::uint64_t>> peLoadTrace;

    mem::HbmPort vportRead;  ///< Vpref record/vertex reads + tProp fill
    mem::HbmPort eportRead;  ///< Epref edge reads
    mem::HbmPort auPortWrite;///< AU active/prop stores

    // Stats.
    stats::Scalar statIterations;
    stats::Scalar statScatterCycles;
    stats::Scalar statApplyCycles;
    stats::Scalar statEdgesProcessed;
    stats::Scalar statVertexUpdates;
    stats::Scalar statUpdatesSkipped;
    stats::Scalar statSchedulingOps;
    stats::Scalar statAtomicStalls;
    stats::Scalar statTPropMods;
    stats::Scalar statApplyOps;
    stats::Scalar statVbAccesses;
    stats::Scalar statReduceOps;
    stats::Vector statPeEdges;
    // Bottleneck attribution counters (per DE-cycle / commit attempt).
    stats::Scalar statDeIdle;        ///< DE cycles with an empty VPB RAM
    stats::Scalar statDeWaitReady;   ///< DE cycles waiting on edge data
    stats::Scalar statDeBlockedPe;   ///< DE cycles blocked by a full PE queue
    stats::Scalar statCommitBlockedBatch; ///< commits stalled on Vpref data
    stats::Scalar statCommitBlockedVpb;   ///< commits stalled on a full VPB
};

} // namespace gds::core
