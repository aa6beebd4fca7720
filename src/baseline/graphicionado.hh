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
#include <vector>

#include "common/bitutil.hh"
#include "core/vcpm_accel.hh"
#include "sim/queues.hh"

namespace gds::baseline
{

/** Longest RAW window the stream wake ring is sized for. */
inline constexpr Cycle kMaxAtomicPipelineDepth = Cycle{1} << 16;

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

    /** The one field list (see core::GdsConfig::fields). */
    template <class Self, class V>
    static void
    fields(Self &c, V &v)
    {
        v("numStreams", c.numStreams);
        v("onChipBytes", c.onChipBytes);
        v("atomicPipelineDepth", c.atomicPipelineDepth);
        v("vprefBatch", c.vprefBatch);
        v("vprefMaxInflight", c.vprefMaxInflight);
        v("streamLookahead", c.streamLookahead);
        v("streamQueueRecords", c.streamQueueRecords);
        v("edgeMaxInflight", c.edgeMaxInflight);
        v("applyMaxInflight", c.applyMaxInflight);
        v("maxIterations", c.maxIterations);
        mem::HbmConfig::fields(c.hbm, v);
    }

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

/**
 * First violated Graphicionado configuration contract, or nullptr. Zero
 * streams, queue depths, batch sizes or in-flight windows divide by zero
 * or never issue; the RAW wake ring holds one slot per cycle of the
 * window. GraphicionadoAccel's constructor throws ConfigError on a
 * violation. maxIterations and atomicPipelineDepth may be 0.
 */
constexpr const char *
configContractViolation(const GraphicionadoConfig &c)
{
    if (c.numStreams == 0)
        return "numStreams must be nonzero";
    if (c.onChipBytes < bytesPerWord)
        return "onChipBytes must hold at least one property word";
    if (c.atomicPipelineDepth > kMaxAtomicPipelineDepth)
        return "atomicPipelineDepth must not exceed 65536 cycles";
    if (c.vprefBatch == 0)
        return "vprefBatch must be nonzero";
    if (c.vprefMaxInflight == 0)
        return "vprefMaxInflight must be nonzero";
    if (c.streamLookahead == 0)
        return "streamLookahead must be nonzero";
    if (c.streamQueueRecords == 0)
        return "streamQueueRecords must be nonzero";
    if (c.edgeMaxInflight == 0)
        return "edgeMaxInflight must be nonzero";
    if (c.applyMaxInflight == 0)
        return "applyMaxInflight must be nonzero";
    return mem::hbmContractViolation(c.hbm);
}

static_assert(configContractViolation(GraphicionadoConfig{}) == nullptr,
              "default GraphicionadoConfig violates its own contracts");

/** The Graphicionado accelerator model: its datapath on the VcpmAccel
 *  frame. */
class GraphicionadoAccel final : public core::VcpmAccel
{
  public:
    /** @throws ConfigError when the configuration breaks a contract of
     *  configContractViolation(). */
    GraphicionadoAccel(const GraphicionadoConfig &config,
                       const graph::Csr &g, algo::VcpmAlgorithm &algorithm,
                       sim::Component *parent = nullptr);

    /** The datapath's checkpoint field list (the frame lists its own). */
    template <typename Self, typename Ar>
    static void fields(Self &self, Ar &ar);

  private:
    /** HBM request tag kinds (see core/detail.hh for the codec). */
    enum class Tag : std::uint64_t
    {
        RecordBatch = 1, ///< active-record stream (payload: batch index)
        EdgeFetch,       ///< edge data (payload: record index)
        ApplyBatch,      ///< sweep prefetch (payload: batch index)
        Store,           ///< active-record or property store
    };

    /** One processing stream (pipeline): its backlog of record indices. */
    struct Stream
    {
        sim::BoundedQueue<std::uint64_t> records;

        explicit Stream(unsigned capacity) : records(capacity) {}
    };

    /**
     * Head register of one stream: the head record's remaining edge range
     * in the slice CSR and its property, loaded when the record becomes
     * the ready head. next == end means no edge is left: a degree-0 head,
     * or a finished record whose successor is not ready yet.
     */
    struct Head
    {
        EdgeId next = 0;
        EdgeId end = 0;
        PropValue prop = 0;
    };

    // Frame hooks.
    void prepareRun() override;
    void drainResponses() override;
    void fillResult(core::RunResult &result) const override;
    bool datapathBusy() const override;
    void datapathState(std::ostream &os) const override;
    void registerDatapathProbes(obs::Sampler &sampler) const override;
    void saveDatapath(sim::Serializer &s) const override;
    void restoreDatapath(sim::Deserializer &d) override;

    void startScatter() override;
    void tickScatter() override;
    bool scatterDone() const override;
    bool scatterQuiescent() const override;
    void startApply() override;
    void tickApply() override;
    bool applyDone() const override;
    bool applyQuiescent() const override;

    /** Re-derive stream @p s's bits in the scheduling masks, loading its
     *  head register when a new record became the ready head; called after
     *  every push, pop, fetch issue and fetch completion on that stream. */
    void refreshStream(unsigned s);

    /** Clear the scheduling masks and the wake ring. */
    void clearStreamSchedule();

    /** Park RAW-stalled stream @p s until cycle @p wake, when the update
     *  it conflicts with leaves the reduce pipeline. */
    void sleepStream(unsigned s, Cycle wake);

    /** Stream @p s's progress in its head record (the checkpointed edge
     *  cursor). */
    std::uint32_t headCursor(unsigned s) const;

    // gds-ckpt: skip(cfg) construction-time configuration; resume verifies
    // the config hash instead of serializing it
    GraphicionadoConfig cfg;
    std::vector<Cycle> lastReduceAt; ///< per-vertex RAW window tracking

    // Apply state.
    struct ApplyState
    {
        VertexId sweepBegin = 0;
        VertexId sweepEnd = 0;
        std::uint64_t batchesIssued = 0;
        std::vector<std::uint8_t> batchIssuedParts; ///< requests sent (0..2)
        std::vector<std::uint8_t> batchPending;     ///< responses awaited
        VertexId commitCursor = 0; ///< next vertex to hand to a stream
        VertexId appliedCount = 0;
        std::deque<VertexId> pendingApplies; ///< committed, not yet applied
    };

    std::vector<Stream> streams;
    /** Checkpointed as each stream's edge cursor (headCursor()); the
     *  registers are reloaded from it at the end of restoreDatapath(). */
    std::vector<Head> heads;
    /**
     * Scheduling masks, one bit per stream: the scatter tick and its
     * quiescence predicate visit only set bits, in ascending stream order,
     * so their cost follows the active streams rather than numStreams.
     */
    // gds-ckpt: skip(streamsHeadReady) derived from the stream queues and
    // fetch states (head record has its edges on chip, or none, and the
    // stream is not asleep); rebuilt at the end of restoreDatapath()
    BitMask streamsHeadReady;
    // gds-ckpt: skip(streamsNeedingFetch) derived from the stream queues
    // and fetch states (lookahead records neither ready nor fully issued);
    // rebuilt at the end of restoreDatapath()
    BitMask streamsNeedingFetch;
    /**
     * RAW-stalled streams. A stream stalling on dst cannot act before
     * lastReduceAt[dst] + atomicPipelineDepth: no other stream reduces dst
     * earlier and its head does not change. It sleeps in the wake-ring
     * slot of that cycle instead of being re-checked every cycle; each
     * scatter tick first wakes its slot, then counts one stall per stream
     * still asleep, as the naive loop would.
     */
    // gds-ckpt: skip(streamsAsleep) derived: a head parked inside its RAW
    // window; restoreDatapath() leaves it empty and the first tick re-parks
    // every ready head still inside its window, with the same stall count
    BitMask streamsAsleep;
    // gds-ckpt: skip(wakeRing) derived with streamsAsleep: one mask per
    // cycle of the next atomicPipelineDepth + 1 (rounded up to a power of
    // two); cleared with it in restoreDatapath()
    std::vector<BitMask> wakeRing;
    ApplyState ap;

    // Stats beyond the frame's five.
    stats::Scalar statAtomicStalls;
    stats::Scalar statApplyOps;
    stats::Scalar statReduceOps;
    stats::Vector statStreamEdges;
};

} // namespace gds::baseline
