/**
 * @file
 * Cycle-level reconstruction of Graphicionado (Ham et al., MICRO 2016),
 * the state-of-the-art graph-analytics accelerator GraphDynS compares
 * against (Table 3: 1 GHz, 128 streams, 64 MB eDRAM, the same 512 GB/s
 * HBM).
 *
 * The model reproduces exactly the behaviours the GraphDynS paper
 * attributes to Graphicionado (Sec. 3.2):
 *  - active vertices hash-assigned to streams (vid % numStreams), so hub
 *    vertices serialize on one stream (workload irregularity unsolved);
 *  - edge records carry src_vid (+4 B per edge) and the end of an edge
 *    list is detected by reading one extra record (bandwidth waste);
 *  - the offset array lives on chip next to the temporary properties,
 *    which is why it needs 64 MB of eDRAM (2x GraphDynS);
 *  - atomicity is enforced by stalling a stream while a conflicting
 *    update is in flight in the reduce pipeline;
 *  - the Apply phase sweeps every vertex (update irregularity unsolved)
 *    and stores changed properties with intermittent, uncoalesced writes.
 *
 * Functional + timing combined, like GdsAccel: results are checked against
 * the reference engine in the tests.
 */

#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "algo/vcpm.hh"
#include "core/gds_accel.hh" // RunOptions / RunResult
#include "core/memmap.hh"
#include "graph/slicer.hh"
#include "mem/hbm.hh"
#include "sim/queues.hh"

namespace gds::baseline
{

/** Graphicionado configuration (Table 3 column 2). */
struct GraphicionadoConfig
{
    unsigned numStreams = 128;                  ///< parallel pipelines
    std::uint64_t onChipBytes = 64ULL << 20;    ///< eDRAM (tProp + offsets)
    Cycle atomicPipelineDepth = 3;              ///< stall window on RAW
    unsigned vprefBatch = 32;                   ///< records per stream req
    unsigned vprefMaxInflight = 32;
    unsigned streamLookahead = 4;  ///< records prefetched ahead per stream
    unsigned streamQueueRecords = 64;
    unsigned edgeMaxInflight = 128;
    unsigned applyMaxInflight = 32;
    unsigned maxIterations = 1000;
    mem::HbmConfig hbm;

    /** Vertices whose tProp (+ offset entry) fit on chip per slice.
     *  The paper notes Graphicionado caches 2x the temporary properties
     *  of GraphDynS (Sec. 7.2). */
    VertexId
    sliceCapacity() const
    {
        const std::uint64_t cap = onChipBytes / bytesPerWord;
        return static_cast<VertexId>(
            std::min<std::uint64_t>(cap, invalidVertex - 1));
    }
};

/** The Graphicionado accelerator model. */
class GraphicionadoAccel : public sim::Component
{
  public:
    /** @throws ConfigError when the configuration is inconsistent. */
    GraphicionadoAccel(const GraphicionadoConfig &config,
                       const graph::Csr &g, algo::VcpmAlgorithm &algorithm,
                       sim::Component *parent = nullptr);
    ~GraphicionadoAccel() override;

    /**
     * Execute to convergence (or the iteration cap) under watchdog
     * supervision; RunResult::report carries the verdict.
     *
     * @throws ConfigError on an invalid source or fault plan
     */
    core::RunResult run(const core::RunOptions &options = {});

    void tick() override;
    bool busy() const override;
    std::string debugState() const override;

    /**
     * 1 unless the current cycle is provably a pure wait (no response
     * pending, every stream blocked on edge data, no issuable request);
     * then the HBM's own horizon. A ready stream head counts as active
     * even when it would RAW-stall: those stalls resolve by time, not
     * memory, and are stepped naively.
     */
    Cycle nextEventCycle() const override;

    /**
     * Replay @p cycles pure-wait ticks in bulk: phase cycle counters and
     * the HBM (refresh schedule included) advance exactly as @p cycles
     * naive tick() calls would have left them.
     */
    void skipCycles(Cycle cycles) override;

    bool supportsFastForward() const override { return true; }

    /**
     * Checkpoint the complete baseline: property arrays, frontier
     * buffers, per-stream backlogs, both phase-state blocks, the ports
     * and the HBM. Same contract as GdsAccel::saveState().
     */
    void saveState(sim::Serializer &s) const override;
    void restoreState(sim::Deserializer &d) override;

    /** The one checkpoint field list behind saveState()/restoreState(). */
    template <typename Self, typename Ar>
    static void fields(Self &self, Ar &ar);

    /** Activity = edges processed by the streams (counter-track unit). */
    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(statEdgesProcessed.value());
    }

    /** Default interval-probe set (HBM bytes, stream backlog, frontier);
     *  run() registers it when RunOptions::sampler has no probes. */
    void registerProbes(obs::Sampler &sampler) const;

    const mem::Hbm &hbmDevice() const { return *hbm; }
    std::uint64_t footprintBytes() const { return layout->footprintBytes(); }
    unsigned numSlices() const { return sliceCount; }

  private:
    /** Active record: vid + prop (8 B in memory). */
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

    /** Per-record edge fetch state. */
    struct RecordFetch
    {
        bool allIssued = false;
        bool ready = false;
        std::uint32_t parts = 0;
        std::uint64_t bytesIssued = 0;

        template <typename Self, typename Ar>
        static void
        fields(Self &f, Ar &ar)
        {
            ar(f.allIssued, f.ready, f.parts, f.bytesIssued);
        }
    };

    /** One processing stream (pipeline). */
    struct Stream
    {
        std::deque<std::uint64_t> records; ///< assigned record indices
        std::uint32_t edgeCursor = 0;      ///< progress in head record
    };

    enum class Phase
    {
        ScatterPhase,
        ApplyPhase,
        Finished,
    };

    void startIteration();
    void startScatter();
    void tickScatter();
    bool scatterDone() const;
    void startApply();
    void tickApply();
    bool applyDone() const;
    void finishSlice();

    // Fast-forward quiescence predicates (mirror the phase tick paths).
    bool scatterQuiescent() const;
    bool applyQuiescent() const;

    /** Re-derive stream @p s's bits in the scheduling masks; called after
     *  every push, pop, fetch issue and fetch completion on that stream. */
    void refreshStream(unsigned s);

    // Tracer hooks (one branch each when tracing is off).
    void traceBegin(std::string event);
    void traceEnd();

    const graph::Csr &sliceGraph(unsigned s) const;
    VertexId sliceBegin(unsigned s) const;
    VertexId sliceEnd(unsigned s) const;
    void buildInitialActives(VertexId source);

    // gds-ckpt: skip(cfg) construction-time configuration; resume verifies
    // the config hash instead of serializing it
    GraphicionadoConfig cfg;
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

    // gds-ckpt: skip(sliceCount) derived from cfg and the graph in the
    // constructor
    unsigned sliceCount = 1;
    // gds-ckpt: skip(slices) deterministic re-partition of the immutable
    // input graph, rebuilt in the constructor
    std::vector<graph::Slice> slices;
    // gds-ckpt: skip(sliceEdgeStart) derived from slices in the constructor
    std::vector<EdgeId> sliceEdgeStart;

    // gds-ckpt: skip(layout) address map derived from cfg and the graph in
    // the constructor
    std::unique_ptr<core::MemoryLayout> layout;
    std::unique_ptr<mem::Hbm> hbm;

    // Functional state.
    std::vector<PropValue> prop;
    std::vector<PropValue> tProp;
    std::vector<PropValue> cProp;
    std::vector<Cycle> lastReduceAt; ///< per-vertex RAW window tracking
    std::vector<std::vector<ActiveRecord>> activeCur;
    std::vector<std::vector<ActiveRecord>> activeNext;
    std::uint64_t activatedThisIteration = 0;

    // Scatter state.
    struct ScatterState
    {
        std::uint64_t recordsTotal = 0;
        std::uint64_t expectedEdges = 0;
        std::uint64_t batchesTotal = 0;
        std::uint64_t batchesIssued = 0;
        std::vector<std::uint8_t> batchReady;
        std::uint64_t commitCursor = 0;
        std::uint64_t recordsDone = 0;
        std::uint64_t edgesReduced = 0;
        std::vector<RecordFetch> fetch;
    };

    // Apply state.
    struct ApplyState
    {
        VertexId sweepBegin = 0;
        VertexId sweepEnd = 0;
        std::uint64_t batchesTotal = 0;
        std::uint64_t batchesIssued = 0;
        std::vector<std::uint8_t> batchIssuedParts; ///< requests sent (0..2)
        std::vector<std::uint8_t> batchPending;     ///< responses awaited
        VertexId commitCursor = 0; ///< next vertex to hand to a stream
        VertexId appliedCount = 0;
        std::deque<VertexId> pendingApplies; ///< committed, not yet applied
        std::uint64_t pendingAuRecords = 0;
        Addr auWriteCursor = 0;
        std::deque<std::pair<Addr, unsigned>> writes;
    };

    std::vector<Stream> streams;
    /**
     * Scheduling masks, one bit per stream: the scatter tick and its
     * quiescence predicate visit only set bits, in ascending stream order,
     * so their cost follows the active streams rather than numStreams.
     */
    // gds-ckpt: skip(streamsHeadReady) derived from the stream queues and
    // fetch states (head record has its edges on chip, or none); rebuilt
    // at the end of restoreState()
    std::vector<std::uint64_t> streamsHeadReady;
    // gds-ckpt: skip(streamsNeedingFetch) derived from the stream queues
    // and fetch states (lookahead records neither ready nor fully issued);
    // rebuilt at the end of restoreState()
    std::vector<std::uint64_t> streamsNeedingFetch;
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
    bool collectPeLoads = false;
    std::vector<std::uint64_t> streamLoadThisIteration;
    std::vector<std::vector<std::uint64_t>> streamLoadTrace;

    mem::HbmPort vport;
    mem::HbmPort eport;
    mem::HbmPort wport;

    stats::Scalar statIterations;
    stats::Scalar statScatterCycles;
    stats::Scalar statApplyCycles;
    stats::Scalar statEdgesProcessed;
    stats::Scalar statVertexUpdates;
    stats::Scalar statAtomicStalls;
    stats::Scalar statApplyOps;
    stats::Scalar statReduceOps;
    stats::Vector statStreamEdges;
};

} // namespace gds::baseline
