/**
 * @file
 * The accelerator frame both cycle-level models derive from.
 *
 * GraphDynS (core::GdsAccel) and the Graphicionado baseline
 * (baseline::GraphicionadoAccel) run the same vertex-centric iteration:
 * per destination slice a Scatter phase streams the frontier's records and
 * their edges and reduces into temporary properties, then an Apply phase
 * folds those into the properties and activates the changed vertices.
 * Both run on the same HBM system. VcpmAccel owns everything outside the
 * datapath: the bound graph and algorithm, the slicing, the address map,
 * the HBM and its three port roles, the functional property arrays and
 * frontier, iteration and slice control, the run driver, fast-forward and
 * checkpoint plumbing, and the memory front end: the active-record stream,
 * the edge part-fetch and the store queue. A model supplies its datapath
 * through the hooks below and its front-end policy as arguments; the frame
 * never asks which model it serves.
 */

#pragma once

#include <deque>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algo/vcpm.hh"
#include "core/memmap.hh"
#include "graph/slicer.hh"
#include "mem/hbm.hh"
#include "obs/sampler.hh"
#include "sim/fault.hh"
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
    /** Record per-unit edge counts for every iteration (Fig. 14b). */
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
    /** Per-iteration per-unit edge loads (only when collectPeLoads). */
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

/** A vertex-centric accelerator: the frame of one model's datapath. */
class VcpmAccel : public sim::Component
{
  public:
    /** What a model fixes about the frame at construction. */
    struct Shape
    {
        VertexId sliceCapacity;     ///< vertices whose tProp fits on chip
        unsigned edgeBytes;         ///< bytes per unweighted edge record
        unsigned activeRecordBytes; ///< bytes per active-vertex record
        unsigned maxIterations;
        unsigned loadUnits;         ///< scatter units in the load trace
        const mem::HbmConfig &hbm;
    };

    /**
     * Execute the algorithm to convergence (or the iteration cap) under
     * watchdog supervision. Never hangs: a wedged run returns with
     * RunResult::report naming the outcome and the stalled components.
     *
     * @throws ConfigError on an invalid source or fault plan
     */
    RunResult run(const RunOptions &options = {});

    /** Drain port responses, tick the active phase, then the HBM. */
    void tick() override;
    bool busy() const override;
    std::string debugState() const override;

    /**
     * 1 unless the current cycle is provably a pure wait (no port response
     * pending and the active phase's quiescence predicate holds); then the
     * earliest cycle that can change that: the HBM's own horizon and the
     * datapath's extraEventHorizon().
     */
    Cycle nextEventCycle() const override;

    /**
     * Replay @p cycles pure-wait ticks in bulk: phase cycle counters, the
     * datapath's per-cycle bookkeeping (replaySkip()) and the HBM
     * (refresh schedule included) advance exactly as @p cycles naive
     * tick() calls would have left them.
     */
    void skipCycles(Cycle cycles) override;

    bool supportsFastForward() const override { return true; }

    /**
     * Checkpoint the complete accelerator: the frame's functional and
     * control state, the ports and the HBM (ports registered on the
     * serializer first), then the datapath. Configuration and the bound
     * graph/algorithm are rebuilt by the constructor and must match —
     * run() guards that with the checkpoint identity string.
     */
    void saveState(sim::Serializer &s) const override;
    void restoreState(sim::Deserializer &d) override;

    /** The frame's checkpoint field list (the datapath lists its own). */
    template <typename Self, typename Ar>
    static void fields(Self &self, Ar &ar);

    /** Activity = edges processed (counter-track unit). */
    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(statEdgesProcessed.value());
    }

    /**
     * Register the default interval-probe set on @p sampler: HBM
     * read/write bytes, the datapath's queue occupancies, the frontier
     * size and edgesProcessed. run() calls this automatically when
     * RunOptions::sampler arrives with no probes of its own.
     */
    void registerProbes(obs::Sampler &sampler) const;

    /** The memory device (bandwidth/traffic stats for the benches). */
    const mem::Hbm &hbmDevice() const { return *hbm; }

    /** Off-chip storage footprint (Fig. 11). */
    std::uint64_t footprintBytes() const { return layout->footprintBytes(); }

    /** Number of destination-range slices in use. */
    unsigned numSlices() const { return sliceCount; }

  protected:
    /**
     * @param component_name component name, also the checkpoint identity
     *        prefix
     * @param g the graph; must carry weights iff the algorithm needs them
     * @throws ConfigError when the graph lacks the algorithm's weights
     */
    VcpmAccel(std::string component_name, const graph::Csr &g,
              algo::VcpmAlgorithm &algorithm, const Shape &shape,
              sim::Component *parent);

    /** A frontier entry: the vertex and its property at activation. */
    struct ActiveRecord
    {
        VertexId vid;
        PropValue prop;

        template <typename Self, typename Ar>
        static void
        fields(Self &r, Ar &ar)
        {
            ar(r.vid, r.prop);
        }
    };

    enum class Phase
    {
        ScatterPhase,
        ApplyPhase,
        Finished,
    };

    /** Active-record stream of one Scatter phase: the frontier read in
     *  batches on recordPort, committed to the datapath in order. */
    struct RecordStream
    {
        std::uint64_t records = 0;       ///< frontier records to stream
        std::uint64_t expectedEdges = 0; ///< their out-edges in the slice
        std::uint64_t batchRecords = 1;  ///< records per batch request
        std::uint64_t batchesIssued = 0;
        std::vector<std::uint8_t> batchReady; ///< one flag per batch
        std::uint64_t commitCursor = 0;       ///< next record to commit
        std::uint64_t recordsDone = 0;
        std::uint64_t edgesReduced = 0;

        template <typename Self, typename Ar>
        static void
        fields(Self &unit, Ar &ar)
        {
            ar(unit.records, unit.expectedEdges, unit.batchRecords,
               unit.batchesIssued, unit.batchReady, unit.commitCursor);
            ar(unit.recordsDone, unit.edgesReduced);
        }
    };

    /** Edge-fetch state of one record. A large edge list is fetched in
     *  several bounded requests ("parts"). */
    struct RecordFetch
    {
        bool allIssued = false;  ///< every part request issued
        bool ready = false;      ///< edge data on chip
        std::uint32_t parts = 0; ///< part responses still outstanding
        std::uint64_t bytesIssued = 0;

        template <typename Self, typename Ar>
        static void
        fields(Self &f, Ar &ar)
        {
            ar(f.allIssued, f.ready, f.parts, f.bytesIssued);
        }
    };

    /** Edge part-fetch of one Scatter phase, one entry per record. */
    struct EdgePartFetch
    {
        std::vector<RecordFetch> table;

        template <typename Self, typename Ar>
        static void
        fields(Self &unit, Ar &ar)
        {
            ar(unit.table);
        }
    };

    /** Store queue of one Apply phase: property write-backs, and the next
     *  iteration's active records stored in batches at auWriteCursor. */
    struct StoreQueue
    {
        std::deque<std::pair<Addr, unsigned>> propWrites;
        std::uint64_t bufferedRecords = 0; ///< active records not stored
        Addr auWriteCursor = 0;

        template <typename Self, typename Ar>
        static void
        fields(Self &unit, Ar &ar)
        {
            ar(unit.propWrites);
            ar(unit.bufferedRecords, unit.auWriteCursor);
        }
    };

    // ------------------------------------------------------------------
    // Datapath hooks.
    // ------------------------------------------------------------------

    /** Reset run-scoped datapath state once the properties are set. */
    virtual void prepareRun() = 0;
    /** Act on the responses waiting on the record and edge ports (the
     *  frame discards store acknowledgements itself). */
    virtual void drainResponses() = 0;
    virtual void startScatter() = 0;
    virtual void tickScatter() = 0;
    virtual bool scatterDone() const = 0;
    virtual void startApply() = 0;
    virtual void tickApply() = 0;
    virtual bool applyDone() const = 0;
    /**
     * Fast-forward quiescence predicates of an unfinished phase, one per
     * phase: each mirrors its phase's tick path and returns true only when
     * that path is provably a pure wait (per-cycle stats aside, which
     * replaySkip() replays) and would attempt no HBM access.
     */
    virtual bool scatterQuiescent() const = 0;
    virtual bool applyQuiescent() const = 0;
    /** Replay the datapath's per-cycle bookkeeping of @p cycles skipped
     *  pure-wait ticks. */
    virtual void replaySkip(Cycle cycles) { (void)cycles; }
    /** Earliest datapath event that is not an HBM event. */
    virtual Cycle extraEventHorizon() const { return kNeverEvent; }
    /** Attach (or with nullptr detach) a fault injector beyond the HBM. */
    virtual void attachFaults(sim::FaultInjector *injector)
    {
        (void)injector;
    }
    /** Fill the model-specific RunResult fields. */
    virtual void fillResult(RunResult &result) const = 0;
    /** Occupied datapath queues (the frame checks the ports and the
     *  records the datapath holds). */
    virtual bool datapathBusy() const = 0;
    /** Append the phase progress and queue occupancies to debugState(). */
    virtual void datapathState(std::ostream &os) const = 0;
    /** Register the datapath's queue-occupancy probes. */
    virtual void registerDatapathProbes(obs::Sampler &sampler) const = 0;
    /** Checkpoint the datapath (its own fields() list). */
    virtual void saveDatapath(sim::Serializer &s) const = 0;
    virtual void restoreDatapath(sim::Deserializer &d) = 0;

    // ------------------------------------------------------------------
    // Helpers for the datapaths.
    // ------------------------------------------------------------------

    const graph::Csr &
    sliceGraph(unsigned s) const
    {
        return sliceCount == 1 ? fullGraph : slices[s].subgraph;
    }
    VertexId
    sliceBegin(unsigned s) const
    {
        return sliceCount == 1 ? 0 : slices[s].dstBegin;
    }
    VertexId
    sliceEnd(unsigned s) const
    {
        return sliceCount == 1 ? fullGraph.numVertices() : slices[s].dstEnd;
    }

    /** Add @p v with its new property to the next iteration's frontier. */
    void
    activate(VertexId v, PropValue new_prop)
    {
        activeNext.push_back(ActiveRecord{v, new_prop});
    }

    // Tracer hooks (one branch each when tracing is off).
    void traceBegin(std::string event);
    void traceEnd();

    // The memory front end. A model passes its policy in: windows, batch
    // sizes and tags (detail::makeTag; issueRecordBatches adds the batch).

    /** Stream `active` in batches of @p batch_records, each record with
     *  an empty edge part-fetch entry. */
    void startRecordStream(unsigned batch_records);
    /** Issue record batches (payload: batch index) while recordPort has
     *  fewer than @p max_inflight requests outstanding. */
    void issueRecordBatches(unsigned max_inflight, std::uint64_t tag);
    bool
    recordBatchIssuable(unsigned max_inflight) const
    {
        return recordStream.batchesIssued < recordStream.batchReady.size() &&
               recordPort.inflight() < max_inflight;
    }
    bool
    recordArrived(std::uint64_t k) const
    {
        return recordStream.batchReady[k / recordStream.batchRecords] != 0;
    }
    /** A record is left to commit and its batch has arrived. */
    bool
    nextCommitArrived() const
    {
        return recordStream.commitCursor < recordStream.records &&
               recordArrived(recordStream.commitCursor);
    }
    /** Records committed to the datapath and not yet done. */
    std::uint64_t
    recordsHeld() const
    {
        return recordStream.commitCursor - recordStream.recordsDone;
    }
    bool
    recordStreamDone() const
    {
        return recordStream.recordsDone == recordStream.records &&
               recordStream.edgesReduced == recordStream.expectedEdges;
    }

    /** Issue the next part (at most detail::maxRequestBytes) of @p f's
     *  bytes [begin, begin + bytes) on @p port, tagged @p tag; false when
     *  the HBM refused it. */
    bool issuePart(RecordFetch &f, Addr begin, std::uint64_t bytes,
                   std::uint64_t tag, mem::HbmPort &port);
    /** One part of @p f arrived; true when that made it ready. */
    static bool partArrived(RecordFetch &f);

    void flushPropWrites(std::uint64_t tag);
    /** Store buffered active records in batches of @p batch; with
     *  @p force also the sub-batch remainder. */
    void flushRecordStores(std::uint64_t batch, bool force,
                           std::uint64_t tag);
    /** A flush would attempt an access. */
    bool
    storesPending(std::uint64_t batch, bool force) const
    {
        return !stores.propWrites.empty() ||
               stores.bufferedRecords >= batch ||
               (force && stores.bufferedRecords > 0);
    }
    bool
    storesDrained() const
    {
        return stores.propWrites.empty() && stores.bufferedRecords == 0 &&
               storePort.inflight() == 0;
    }

    // ------------------------------------------------------------------
    // Bound inputs, slicing and memory.
    // ------------------------------------------------------------------

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
    // gds-ckpt: skip(maxIterations) construction-time configuration
    unsigned maxIterations;
    // gds-ckpt: skip(loadUnits) construction-time configuration
    unsigned loadUnits;

    // gds-ckpt: skip(sliceCount) derived from the configuration and the
    // graph in the constructor
    unsigned sliceCount = 1;
    // gds-ckpt: skip(slices) deterministic re-partition of the immutable
    // input graph, rebuilt in the constructor
    std::vector<graph::Slice> slices; ///< empty when sliceCount == 1
    // gds-ckpt: skip(sliceEdgeStart) derived from slices in the constructor
    std::vector<EdgeId> sliceEdgeStart;

    // gds-ckpt: skip(layout) address map derived from the configuration
    // and the graph in the constructor
    std::unique_ptr<MemoryLayout> layout;
    std::unique_ptr<mem::Hbm> hbm;

    // ------------------------------------------------------------------
    // Functional and control state.
    // ------------------------------------------------------------------

    std::vector<PropValue> prop;
    std::vector<PropValue> tProp;
    std::vector<PropValue> cProp;
    /**
     * This iteration's and the next iteration's frontier. Every slice
     * scatters the same records (each slice's copy is stored off-chip, and
     * the models count those stores), so one list serves all slices.
     */
    std::vector<ActiveRecord> active;
    std::vector<ActiveRecord> activeNext;

    Phase phase = Phase::Finished;
    unsigned curSlice = 0;
    unsigned iteration = 0;
    unsigned activeBuf = 0; ///< which active array the frontier is read from
    Cycle now = 0;
    /** Local clock at run() entry; serialized so a resumed run reports
     *  cycles spanning the whole logical run, not just the tail. */
    Cycle runStart = 0;
    bool collectLoads = false;
    std::vector<std::uint64_t> loadThisIteration; ///< per scatter unit
    std::vector<std::vector<std::uint64_t>> loadTrace;

    mem::HbmPort recordPort; ///< active-record and vertex-data reads
    mem::HbmPort edgePort;   ///< edge reads
    mem::HbmPort storePort;  ///< property and active-record stores

    RecordStream recordStream; ///< Scatter: the frontier's records
    EdgePartFetch edgeParts;   ///< Scatter: their edge lists
    StoreQueue stores;         ///< Apply: property and record stores

    // Stats every model registers first, in this order.
    stats::Scalar statIterations;
    stats::Scalar statScatterCycles;
    stats::Scalar statApplyCycles;
    stats::Scalar statEdgesProcessed;
    stats::Scalar statVertexUpdates;

  private:
    void startIteration();
    void beginScatter();
    void beginApply();
    void finishSlice();
};

} // namespace gds::core
