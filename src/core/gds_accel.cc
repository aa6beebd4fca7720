/**
 * @file
 * GraphDynS top level: construction, initialization, the run loop,
 * HBM response dispatch, and iteration/slice control.
 */

#include "core/gds_accel.hh"

#include <algorithm>
#include <ostream>

#include "common/parse.hh"
#include "core/detail.hh"
#include "sim/checkpoint.hh"

namespace gds::core
{

using detail::makeTag;
using detail::tagKind;
using detail::tagPayload;

namespace
{

/** The frame's shape of a validated GraphDynS configuration. */
VcpmAccel::Shape
gdsShape(const GdsConfig &c)
{
    // Typed errors, not asserts, so a bad sweep point fails its cell
    // instead of killing the bench.
    if (const char *violation = configContractViolation(c))
        throw ConfigError(violation);
    // Edges are (dst[, weight]); an active record is prop + offset +
    // edgeCnt = 12 B (Sec. 4.1.1).
    return {c.sliceCapacity(), 4u, 12u, c.maxIterations, c.numPes, c.hbm};
}

} // namespace

GdsAccel::GdsAccel(const GdsConfig &config, const graph::Csr &g,
                   algo::VcpmAlgorithm &algorithm, sim::Component *parent)
    : VcpmAccel("graphdyns", g, algorithm, gdsShape(config), parent),
      cfg(config),
      statUpdatesSkipped(&statsGroup(), "updatesSkipped",
                         "Apply operations eliminated by the RB bitmap"),
      statSchedulingOps(&statsGroup(), "schedulingOps",
                        "Dispatcher scheduling operations"),
      statAtomicStalls(&statsGroup(), "atomicStalls",
                       "Reduce stalls from RAW conflicts"),
      statTPropMods(&statsGroup(), "tPropModifications",
                    "reduces that modified a temporary property"),
      statApplyOps(&statsGroup(), "applyOps", "Apply kernel executions"),
      statVbAccesses(&statsGroup(), "vbAccesses",
                     "Vertex Buffer read/write operations"),
      statReduceOps(&statsGroup(), "reduceOps", "Reduce kernel executions"),
      statPeEdges(&statsGroup(), "peEdges", "edges processed per PE",
                  config.numPes),
      statDeIdle(&statsGroup(), "deIdle", "DE cycles with empty VPB"),
      statDeWaitReady(&statsGroup(), "deWaitReady",
                      "DE cycles waiting for edge data"),
      statDeBlockedPe(&statsGroup(), "deBlockedPe",
                      "DE cycles blocked on a full PE queue"),
      statCommitBlockedBatch(&statsGroup(), "commitBlockedBatch",
                             "record commits stalled on Vpref data"),
      statCommitBlockedVpb(&statsGroup(), "commitBlockedVpb",
                           "record commits stalled on a full VPB RAM")
{
    xbar = std::make_unique<mem::Crossbar>(cfg.numUes, this);
    for (unsigned i = 0; i < cfg.numPes; ++i) { // one DE per PE
        des.emplace_back(cfg.vpbRecords);
        pes.emplace_back(cfg.peQueueEdges, cfg.applyListQueue,
                         cfg.vbLatency);
    }
    for (unsigned i = 0; i < cfg.numUes; ++i)
        ues.emplace_back(cfg.ueQueueDepth);
    uesNonEmpty = makeBitMask(cfg.numUes);
    pesApplyBusy = makeBitMask(cfg.numPes);
}

void
GdsAccel::prepareRun()
{
    // Resolve env-derived run behaviour exactly once, here. Every other
    // consumer reads the member: re-reading getenv() mid-run (or caching
    // it in a function-local static, as dispatchChunk once did) lets two
    // sites disagree when the environment changes mid-process — fatal in
    // a daemon where many jobs share one process.
    perfectMem = common::envFlag("GDS_PERFECT_MEM");
    readyGroup.assign(groupIndexOf(fullGraph.numVertices() - 1) + 1, 0);
    readyList.clear();
}

void
GdsAccel::attachFaults(sim::FaultInjector *injector)
{
    xbar->setFaultInjector(injector);
}

void
GdsAccel::fillResult(RunResult &result) const
{
    result.updatesSkipped =
        static_cast<std::uint64_t>(statUpdatesSkipped.value());
    result.schedulingOps =
        static_cast<std::uint64_t>(statSchedulingOps.value());
    result.atomicStalls =
        static_cast<std::uint64_t>(statAtomicStalls.value());
}

void
GdsAccel::registerDatapathProbes(obs::Sampler &sampler) const
{
    sampler.add("xbar.conflicts", [this] { return xbar->conflicts(); });
    sampler.add("de.vpbRecords",
                [this] { return static_cast<double>(recordsHeld()); });
    sampler.add("pe.edgeQueue",
                [this] { return static_cast<double>(scEdgesQueued); });
    sampler.add("pe.applyQueue", [this] {
        std::size_t total = 0;
        for (const Pe &pe : pes)
            total += pe.applyQueue.size() + pe.vbStage.size();
        return static_cast<double>(total);
    });
    sampler.add("ue.inbox",
                [this] { return static_cast<double>(ueFlitsQueued); });
}

bool
GdsAccel::datapathBusy() const
{
    // The occupancy counts and masks stand in for walking every engine.
    return scEdgesQueued != 0 || scFlitsBuffered != 0 ||
           ueFlitsQueued != 0 || anyBit(pesApplyBusy) ||
           eprefPendingCount() != 0 || !stores.propWrites.empty();
}

void
GdsAccel::datapathState(std::ostream &os) const
{
    if (phase == Phase::ScatterPhase) {
        os << " epref[pending=" << eprefPendingCount()
           << " bufferedEdges=" << sc.bufferedEdges << "]";
    } else if (phase == Phase::ApplyPhase) {
        os << " apply[groups=" << ap.groupsCompleted << "/"
           << ap.groups.size() << " commit=" << ap.commitCursor
           << " auBuffered=" << stores.bufferedRecords
           << " propWrites=" << stores.propWrites.size() << "]";
    }
    std::size_t apply_q = 0, vb_q = 0;
    for (const Pe &pe : pes) {
        apply_q += pe.applyQueue.size();
        vb_q += pe.vbStage.size();
    }
    os << " queues[vpb=" << recordsHeld() << " edge=" << scEdgesQueued
       << " apply=" << apply_q << " vb=" << vb_q << " ue=" << ueFlitsQueued
       << "]";
}

void
GdsAccel::drainResponses()
{
    while (recordPort.hasResponse()) {
        const std::uint64_t tag = recordPort.popResponse();
        switch (tagKind<Tag>(tag)) {
          case Tag::RecordBatch:
            recordStream.batchReady[tagPayload(tag)] = 1;
            break;
          case Tag::TPropFill:
            partArrived(sc.fill);
            break;
          case Tag::GroupData: {
            GroupFetch &gf = ap.fetch[tagPayload(tag)];
            gds_assert(gf.outstanding > 0, "stray group response");
            --gf.outstanding;
            break;
          }
          default:
            panic("unexpected tag on the Vpref port");
        }
    }
    while (edgePort.hasResponse()) {
        const std::uint64_t tag = edgePort.popResponse();
        const std::uint64_t payload = tagPayload(tag);
        switch (tagKind<Tag>(tag)) {
          case Tag::EdgeFetch:
            partArrived(edgeParts.table[payload]);
            break;
          case Tag::EdgeBatch:
            // One coalesced request served several whole records.
            for (const std::uint64_t rec : sc.fetchBatches[payload])
                edgeParts.table[rec].ready = true;
            break;
          default:
            panic("unexpected tag on the Epref port");
        }
    }
}

Cycle
GdsAccel::extraEventHorizon() const
{
    // In Apply, a busy PE's VB-stage head maturing at cycle t ends a
    // wait at the tick of cycle t, the (t - now + 1)-th tick from here.
    Cycle horizon = kNeverEvent;
    if (phase != Phase::ApplyPhase)
        return horizon;
    for (unsigned p = nextSetBit(pesApplyBusy, 0); p < cfg.numPes;
         p = nextSetBit(pesApplyBusy, p + 1)) {
        const Cycle wait = pes[p].vbStage.cyclesUntilReady(now);
        if (wait != sim::DelayQueue<ApplyList>::kNever)
            horizon = std::min(horizon, wait + 1);
    }
    return horizon;
}

void
GdsAccel::replaySkip(Cycle cycles)
{
    // Per-DE and commit bottleneck attribution: the quiescence predicate
    // pinned down which branch every skipped cycle would have taken.
    // Apply keeps no per-cycle bookkeeping (the VB stage reads the
    // frame's clock).
    switch (phase) {
      case Phase::ScatterPhase:
        statDeIdle += static_cast<double>(
            (cfg.numPes - desWithRecords) * cycles);
        statDeWaitReady += static_cast<double>(desWithRecords * cycles);
        if (recordStream.commitCursor < recordStream.records) {
            if (!recordArrived(recordStream.commitCursor))
                statCommitBlockedBatch += static_cast<double>(cycles);
            else
                statCommitBlockedVpb += static_cast<double>(cycles);
        }
        break;
      case Phase::ApplyPhase:
      case Phase::Finished:
        break;
    }
}

namespace
{

constexpr std::uint32_t kAccelMarker = 0x47445331; // "GDS1"

} // namespace

template <typename Self, typename Ar>
void
GdsAccel::fields(Self &self, Ar &ar)
{
    ar(sim::Marker{kAccelMarker});
    ar(self.readyGroup);

    // Datapath queues and pipeline registers.
    for (auto &de : self.des)
        ar(de.vpb, de.chunkCursor);
    for (auto &pe : self.pes)
        ar(pe.edgeQueue, pe.pendingFlits, pe.applyQueue, pe.vbStage);
    for (auto &ue : self.ues)
        ar(ue.inbox, ue.pipeAddr, ue.pipeCycle);
    ar(self.scEdgesQueued, self.scFlitsBuffered, self.ueFlitsQueued);

    // Scatter- and Apply-phase bookkeeping, then the crossbar.
    auto &scatter = self.sc;
    ar(scatter.fill, scatter.eprefKept, scatter.eprefNext, scatter.reserved,
       scatter.fetchBatches, scatter.bufferedEdges);
    auto &apply = self.ap;
    ar(apply.groups, apply.fetch, apply.groupsRequested, apply.commitCursor,
       apply.groupsCompleted);
    ar(*self.xbar);
}

void
GdsAccel::saveDatapath(sim::Serializer &s) const
{
    fields(*this, s);
}

void
GdsAccel::restoreDatapath(sim::Deserializer &d)
{
    fields(*this, d);

    // The occupancy count and masks and the ready-group list are derived
    // state, never serialized.
    desWithRecords = 0;
    for (const De &de : des)
        desWithRecords += de.vpb.empty() ? 0u : 1u;
    for (unsigned u = 0; u < cfg.numUes; ++u)
        assignBit(uesNonEmpty, u, !ues[u].inbox.empty());
    for (unsigned p = 0; p < cfg.numPes; ++p)
        assignBit(pesApplyBusy, p,
                  !pes[p].applyQueue.empty() || !pes[p].vbStage.empty());
    readyList.clear();
    for (std::uint64_t g = 0; g < readyGroup.size(); ++g) {
        if (readyGroup[g] != 0)
            readyList.push_back(g);
    }
}

} // namespace gds::core
