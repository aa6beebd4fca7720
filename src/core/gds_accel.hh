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
#include <memory>
#include <vector>

#include "common/bitutil.hh"
#include "core/config.hh"
#include "core/vcpm_accel.hh"
#include "mem/crossbar.hh"
#include "sim/queues.hh"

namespace gds::core
{

/** The GraphDynS accelerator model: the datapath on the VcpmAccel frame. */
class GdsAccel final : public VcpmAccel
{
  public:
    /**
     * Bind the accelerator to a graph and an algorithm.
     *
     * @param config hardware configuration (Table 3 defaults)
     * @param g the graph; must carry weights iff the algorithm needs them
     * @param algorithm the VCPM kernels to execute
     * @throws ConfigError when the configuration breaks a contract of
     *         configContractViolation()
     */
    GdsAccel(const GdsConfig &config, const graph::Csr &g,
             algo::VcpmAlgorithm &algorithm,
             sim::Component *parent = nullptr);

    /** Off under GDS_PERFECT_MEM: dispatch then materializes records on
     *  demand, so waits never become provable. */
    bool supportsFastForward() const override { return !perfectMem; }

    /** The datapath's checkpoint field list (the frame lists its own). */
    template <typename Self, typename Ar>
    static void fields(Self &self, Ar &ar);

  private:
    /** HBM request tag kinds (see core/detail.hh for the codec). */
    enum class Tag : std::uint64_t
    {
        RecordBatch = 1, ///< Vpref active-record stream (payload: batch)
        TPropFill,       ///< VB fill for sliced runs
        EdgeFetch,       ///< Epref edge data (payload: record index)
        EdgeBatch,       ///< Epref coalesced edge data (payload: batch)
        GroupData,       ///< Apply-phase group prefetch (payload: group)
        AuWrite,         ///< AU active-record store
        PropWrite,       ///< Apply-phase property write-back
    };

    // ------------------------------------------------------------------
    // Record/flit types flowing between components.
    // ------------------------------------------------------------------

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

    // ------------------------------------------------------------------
    // Phase bookkeeping.
    // ------------------------------------------------------------------

    /** Scatter state beyond the frame's front end. Epref's pending records
     *  (committed, edges not all requested) are, in commit order, the at
     *  most eight its last scan kept, then those from eprefNext on. */
    struct ScatterState
    {
        RecordFetch fill; ///< the sliced-run tProp fill, fetched in parts
        std::vector<std::uint64_t> eprefKept;
        std::uint64_t eprefNext = 0;
        /** Per record: its edges hold eprefBufferEdges budget. */
        std::vector<std::uint8_t> reserved;
        std::vector<std::vector<std::uint64_t>> fetchBatches;
        std::uint64_t bufferedEdges = 0;

        /** A fresh phase's state; the containers keep their storage,
         *  since the phase restarts every slice of every iteration. */
        void
        reset(std::uint64_t records)
        {
            fill = RecordFetch{};
            eprefKept.clear();
            eprefNext = 0;
            reserved.assign(records, 0);
            fetchBatches.clear();
            bufferedEdges = 0;
        }
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
        /** First vertex of each ready group's part inside the slice. */
        std::vector<VertexId> groups;
        std::vector<GroupFetch> fetch;
        std::uint64_t groupsRequested = 0;
        std::uint64_t commitCursor = 0; ///< group currently pushing lists
        std::uint64_t groupsCompleted = 0;

        /** A fresh phase's state, keeping the containers' storage. */
        void
        reset()
        {
            groups.clear();
            fetch.clear();
            groupsRequested = commitCursor = groupsCompleted = 0;
        }
    };

    // ------------------------------------------------------------------
    // Frame hooks (gds_accel.cc).
    // ------------------------------------------------------------------

    void prepareRun() override;
    void drainResponses() override;
    void replaySkip(Cycle cycles) override;
    Cycle extraEventHorizon() const override;
    void attachFaults(sim::FaultInjector *injector) override;
    void fillResult(RunResult &result) const override;
    bool datapathBusy() const override;
    void datapathState(std::ostream &os) const override;
    void registerDatapathProbes(obs::Sampler &sampler) const override;
    void saveDatapath(sim::Serializer &s) const override;
    void restoreDatapath(sim::Deserializer &d) override;

    // ------------------------------------------------------------------
    // Phase logic (gds_scatter.cc / gds_apply.cc).
    // ------------------------------------------------------------------

    void startScatter() override;
    void tickScatter() override;
    bool scatterDone() const override;
    bool scatterQuiescent() const override;
    void tickVpref();
    void tickEpref();
    /** Epref's pending records: their number, and the @p i-th. */
    std::uint64_t eprefPendingCount() const;
    std::uint64_t eprefPending(std::uint64_t i) const;
    /** Epref's budget test: would @p extra more edges overrun it? */
    bool eprefOverBudget(std::uint64_t extra) const;
    void tickDispatchers();
    void dispatchChunk(De &de, unsigned de_index);
    /** Pop DE @p de's finished head record and free its edge budget. */
    void retireRecord(De &de, std::uint64_t rec, std::uint64_t edge_cnt);
    void tickPesScatter();
    void tickUes();
    void reduceFlit(const ResultFlit &flit);

    void startApply() override;
    void tickApply() override;
    bool applyDone() const override;
    bool applyQuiescent() const override;
    void tickApplyPrefetch();
    void tickApplyCommit();
    void tickPesApply();

    std::uint64_t groupIndexOf(VertexId v) const
    {
        return v / cfg.rbGroupSize;
    }
    /** End of the current slice's part of the group holding @p v. */
    VertexId groupPartEnd(VertexId v) const;

    // gds-ckpt: skip(cfg) construction-time configuration; resume verifies
    // the config hash instead of serializing it
    GdsConfig cfg;
    std::unique_ptr<mem::Crossbar> xbar;
    /** Ready-to-Update Bitmap: one bit per rbGroupSize vertices. */
    std::vector<std::uint8_t> readyGroup;
    /**
     * The groups whose bit is set, in the order Scatter set them: Apply
     * takes its slice's ready groups from here instead of walking the
     * slice's bits.
     */
    // gds-ckpt: skip(readyList) derived from readyGroup; rebuilt at the
    // end of restoreDatapath()
    std::vector<std::uint64_t> readyList;

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
    /** DEs whose VPB RAM holds a record, kept at every push and pop. */
    // gds-ckpt: skip(desWithRecords) derived from the VPB RAMs; rebuilt at
    // the end of restoreDatapath()
    unsigned desWithRecords = 0;
    /**
     * UEs whose inbox holds a flit, one bit per UE: tickUes() visits only
     * these, in ascending UE order. The route loop sets a UE's bit on
     * every push; a UE clears it when its inbox drains, so a UE stalled on
     * a RAW conflict keeps it.
     */
    // gds-ckpt: skip(uesNonEmpty) derived from the UE inboxes; rebuilt at
    // the end of restoreDatapath()
    BitMask uesNonEmpty;
    /**
     * PEs holding a queued or in-flight apply list, one bit per PE: the
     * Apply stage walks and its fast-forward predicates visit only these,
     * in ascending PE order. tickApplyCommit() sets a PE's bit when it
     * pushes a list; tickPesApply() clears it once the PE's list queue
     * and VB stage are both empty.
     */
    // gds-ckpt: skip(pesApplyBusy) derived from the PE apply queues;
    // rebuilt at the end of restoreDatapath()
    BitMask pesApplyBusy;
    /** Vertices the list being applied changed (per-list scratch). */
    // gds-ckpt: skip(appliedChanged) per-list scratch, dead between lists
    std::vector<VertexId> appliedChanged;
    ScatterState sc;
    ApplyState ap;
    /**
     * GDS_PERFECT_MEM, resolved exactly once per run (prepareRun()) and
     * used by every consumer (dispatch materialization, the scatter
     * quiescence predicate, fast-forward gating). Run-scoped on purpose:
     * a test or a daemon job that flips the environment variable between
     * runs gets consistent behaviour within each run, and nothing latched
     * in a function-local static can leak across jobs sharing the process.
     */
    // gds-ckpt: skip(perfectMem) run-scoped environment latch, re-resolved
    // at run() entry on the resumed process before restore applies
    bool perfectMem = false;

    // Stats beyond the frame's five.
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
