/**
 * @file
 * GraphDynS top level: construction, initialization, the run loop,
 * HBM response dispatch, and iteration/slice control.
 */

#include "core/gds_accel.hh"

#include <algorithm>
#include <csignal>
#include <optional>
#include <sstream>

#include "common/parse.hh"
#include "core/checkpoint_session.hh"
#include "core/detail.hh"
#include "sim/checkpoint.hh"

namespace gds::core
{

using detail::Tag;
using detail::makeTag;
using detail::tagKind;
using detail::tagPayload;

GdsAccel::GdsAccel(const GdsConfig &config, const graph::Csr &g,
                   algo::VcpmAlgorithm &algorithm, sim::Component *parent)
    : sim::Component("graphdyns", parent),
      cfg(config),
      fullGraph(g),
      algo(algorithm),
      weighted(algorithm.usesWeights()),
      hasConstProp(algorithm.usesConstProp()),
      statIterations(&statsGroup(), "iterations", "iterations executed"),
      statScatterCycles(&statsGroup(), "scatterCycles",
                        "cycles spent in Scatter phases"),
      statApplyCycles(&statsGroup(), "applyCycles",
                      "cycles spent in Apply phases"),
      statEdgesProcessed(&statsGroup(), "edgesProcessed",
                         "edges processed by PEs"),
      statVertexUpdates(&statsGroup(), "vertexUpdates",
                        "vertices whose property changed in Apply"),
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
    // User-facing configuration consistency: typed errors, not asserts,
    // so a bad sweep point fails its cell instead of killing the bench.
    if (weighted && !fullGraph.hasWeights())
        throw ConfigError(algo.name() + " needs a weighted graph");
    if (cfg.numPes == 0 || cfg.numUes % cfg.numPes != 0)
        throw ConfigError("numUes must be a positive multiple of numPes");
    // Flit routing selects the UE by masking the destination's low bits.
    if (!isPow2(cfg.numUes))
        throw ConfigError("numUes must be a power of two");
    if (cfg.numDispatchers != cfg.numPes)
        throw ConfigError("the DE->PE pairing assumes one DE per PE");
    // The workload queue must be able to hold the largest single
    // dispatch: a whole sub-threshold edge list or one split chunk.
    if (cfg.peQueueEdges < cfg.eThreshold ||
        cfg.peQueueEdges < cfg.eListSize) {
        throw ConfigError(gds::detail::vformat(
            "peQueueEdges (%u) must cover eThreshold (%u) and "
            "eListSize (%u) or dispatch can deadlock",
            cfg.peQueueEdges, cfg.eThreshold, cfg.eListSize));
    }

    // Destination-range slicing when tProp exceeds the Vertex Buffer.
    const VertexId v_count = fullGraph.numVertices();
    const VertexId capacity = cfg.sliceCapacity();
    sliceCount = graph::numSlices(v_count, capacity);
    if (sliceCount > 1)
        slices = graph::sliceByDestination(fullGraph, capacity);

    sliceEdgeStart.resize(sliceCount, 0);
    EdgeId edge_cursor = 0;
    for (unsigned s = 0; s < sliceCount; ++s) {
        sliceEdgeStart[s] = edge_cursor;
        edge_cursor += sliceGraph(s).numEdges();
    }

    const RecordFormat fmt{weighted ? 8u : 4u, 12u, 0u};
    layout = std::make_unique<MemoryLayout>(v_count, edge_cursor, fmt,
                                            hasConstProp, sliceCount > 1);
    hbm = std::make_unique<mem::Hbm>(cfg.hbm, this);
    xbar = std::make_unique<mem::Crossbar>(cfg.numUes, this);

    for (unsigned i = 0; i < cfg.numDispatchers; ++i)
        des.emplace_back(cfg.vpbRecords);
    for (unsigned i = 0; i < cfg.numPes; ++i)
        pes.emplace_back(cfg.peQueueEdges, cfg.applyListQueue,
                         cfg.vbLatency);
    for (unsigned i = 0; i < cfg.numUes; ++i)
        ues.emplace_back(cfg.ueQueueDepth);
    uesNonEmpty = makeBitMask(cfg.numUes);
}

GdsAccel::~GdsAccel() = default;

const graph::Csr &
GdsAccel::sliceGraph(unsigned s) const
{
    return sliceCount == 1 ? fullGraph : slices[s].subgraph;
}

VertexId
GdsAccel::sliceBegin(unsigned s) const
{
    return sliceCount == 1 ? 0 : slices[s].dstBegin;
}

VertexId
GdsAccel::sliceEnd(unsigned s) const
{
    return sliceCount == 1 ? fullGraph.numVertices() : slices[s].dstEnd;
}

void
GdsAccel::buildInitialActives(VertexId source)
{
    activeCur.assign(sliceCount, {});
    activeNext.assign(sliceCount, {});
    auto add = [this](VertexId v) {
        for (unsigned s = 0; s < sliceCount; ++s) {
            const graph::Csr &sg = sliceGraph(s);
            activeCur[s].push_back(ActiveRecord{
                v, prop[v],
                static_cast<std::uint32_t>(sg.outDegree(v)),
                sg.offsetOf(v)});
        }
    };
    if (algo.allInitiallyActive()) {
        for (VertexId v = 0; v < fullGraph.numVertices(); ++v)
            add(v);
    } else {
        add(source);
    }
}

void
GdsAccel::activateVertex(VertexId v, PropValue new_prop)
{
    ++activatedThisIteration;
    for (unsigned s = 0; s < sliceCount; ++s) {
        const graph::Csr &sg = sliceGraph(s);
        activeNext[s].push_back(ActiveRecord{
            v, new_prop, static_cast<std::uint32_t>(sg.outDegree(v)),
            sg.offsetOf(v)});
    }
    ap.auBufferedRecords += sliceCount;
}

RunResult
GdsAccel::run(const RunOptions &options)
{
    const VertexId v_count = fullGraph.numVertices();
    if (v_count == 0)
        throw ConfigError("cannot run on an empty graph");
    if (options.source >= v_count)
        throw ConfigError(gds::detail::vformat(
            "source %u out of range (V=%u)", options.source, v_count));

    // Resolve env-derived run behaviour exactly once, here. Every other
    // consumer reads the member: re-reading getenv() mid-run (or caching
    // it in a function-local static, as dispatchChunk once did) lets two
    // sites disagree when the environment changes mid-process — fatal in
    // a daemon where many jobs share one process.
    perfectMem = common::envFlag("GDS_PERFECT_MEM");

    algo.bind(fullGraph);

    prop.resize(v_count);
    tProp.resize(v_count);
    for (VertexId v = 0; v < v_count; ++v) {
        prop[v] = algo.initialProp(v, fullGraph, options.source);
        tProp[v] = algo.tPropIdentity(v, fullGraph, options.source);
    }
    if (hasConstProp) {
        cProp.resize(v_count);
        for (VertexId v = 0; v < v_count; ++v)
            cProp[v] = algo.constProp(v, fullGraph);
    }
    readyGroup.assign(groupIndexOf(v_count - 1) + 1, 0);

    buildInitialActives(options.source);
    collectPeLoads = options.collectPeLoads;
    peLoadTrace.clear();
    peLoadThisIteration.assign(cfg.numPes, 0);

    iteration = 0;
    activeBuf = 0;
    activatedThisIteration = 0;
    startIteration();

    runStart = now;
    const bool progress = common::envFlag("GDS_PROGRESS");

    // Supervised execution: a Simulator drives tick() under a watchdog
    // that distinguishes completion, deadlock, livelock and cycle-budget
    // exhaustion instead of asserting on runaway simulations.
    sim::Simulator driver;
    driver.add(this);
    if (options.sampler) {
        if (options.sampler->probeCount() == 0)
            registerProbes(*options.sampler);
        driver.setSampler(options.sampler);
    }
    driver.setTracer(obs::activeTracer(), options.traceCounterInterval);
    sim::RunLimits limits;
    if (options.cycleBudget != 0)
        limits.maxCycles = options.cycleBudget;
    else
        limits.maxCycles = 50'000'000'000ULL;
    if (options.stallCycles != 0)
        limits.stallCycles = options.stallCycles;
    // Fast-forward is cycle-exact but incompatible with the per-cycle
    // heartbeat (its modulo would miss skipped boundaries) and pointless
    // under perfect memory (dispatch materializes records on demand, so
    // waits never become provable).
    limits.fastForward = options.fastForward && !progress &&
                         !common::envFlag("GDS_NO_FASTFORWARD") &&
                         !perfectMem;

    std::optional<sim::FaultInjector> injector;
    if (options.faults.any()) {
        injector.emplace(options.faults); // throws ConfigError if invalid
        hbm->setFaultInjector(&*injector);
        xbar->setFaultInjector(&*injector);
    }

    const auto finished = [&] {
        // Diagnostic heartbeat for long runs (GDS_PROGRESS=1).
        if (progress && now != runStart &&
            (now - runStart) % 1'000'000 == 0) {
            inform("cycle=%llu iter=%u slice=%u phase=%d "
                   "scatter=%llu/%llu reduced=%llu/%llu apply=%llu/%zu",
                   static_cast<unsigned long long>(now - runStart),
                   iteration, curSlice, static_cast<int>(phase),
                   static_cast<unsigned long long>(sc.recordsDispatched),
                   static_cast<unsigned long long>(sc.recordsTotal),
                   static_cast<unsigned long long>(sc.edgesReduced),
                   static_cast<unsigned long long>(sc.expectedEdges),
                   static_cast<unsigned long long>(ap.groupsCompleted),
                   ap.groups.size());
        }
        // Crash injection for the checkpoint tests: die without any
        // cleanup, exactly like an external SIGKILL preemption.
        if (options.killAtCycle != 0 &&
            now - runStart >= options.killAtCycle)
            std::raise(SIGKILL);
        return phase == Phase::Finished;
    };
    // Resume (when asked to) lands before the predicate first runs, so
    // runStart is the restored logical run start.
    const sim::RunReport report = runCheckpointed(
        "graphdyns", algo.name(), fullGraph, options, *this, now,
        injector ? &*injector : nullptr, driver,
        [&](const sim::RunHooks &hooks) {
            return driver.run(finished, limits, hooks);
        });

    hbm->setFaultInjector(nullptr);
    xbar->setFaultInjector(nullptr);

    RunResult result;
    result.report = report;
    result.properties = prop;
    result.iterations = iteration;
    result.cycles = now - runStart;
    result.edgesProcessed =
        static_cast<std::uint64_t>(statEdgesProcessed.value());
    result.vertexUpdates =
        static_cast<std::uint64_t>(statVertexUpdates.value());
    result.updatesSkipped =
        static_cast<std::uint64_t>(statUpdatesSkipped.value());
    result.memoryBytes = static_cast<std::uint64_t>(hbm->totalBytes());
    result.footprintBytes = layout->footprintBytes();
    result.bandwidthUtilization = hbm->bandwidthUtilization();
    result.schedulingOps =
        static_cast<std::uint64_t>(statSchedulingOps.value());
    result.atomicStalls =
        static_cast<std::uint64_t>(statAtomicStalls.value());
    result.peLoads = peLoadTrace;
    return result;
}

void
GdsAccel::registerProbes(obs::Sampler &sampler) const
{
    sampler.add("hbm.readBytes", [this] { return hbm->readBytes(); });
    sampler.add("hbm.writeBytes", [this] { return hbm->writeBytes(); });
    sampler.add("xbar.conflicts", [this] { return xbar->conflicts(); });
    sampler.add("de.vpbRecords", [this] {
        std::size_t total = 0;
        for (const De &de : des)
            total += de.vpb.size();
        return static_cast<double>(total);
    });
    sampler.add("pe.edgeQueue", [this] {
        std::size_t total = 0;
        for (const Pe &pe : pes)
            total += pe.edgeQueue.size();
        return static_cast<double>(total);
    });
    sampler.add("pe.applyQueue", [this] {
        std::size_t total = 0;
        for (const Pe &pe : pes)
            total += pe.applyQueue.size() + pe.vbStage.size();
        return static_cast<double>(total);
    });
    sampler.add("ue.inbox", [this] {
        std::size_t total = 0;
        for (const Ue &ue : ues)
            total += ue.inbox.size();
        return static_cast<double>(total);
    });
    sampler.add("frontier.records", [this] {
        // Every active vertex appears once per slice; report vertices.
        return activeCur.empty()
                   ? 0.0
                   : static_cast<double>(activeCur[0].size());
    });
    sampler.addScalar("edgesProcessed", statEdgesProcessed);
}

void
GdsAccel::traceBegin(std::string event)
{
    if (obs::Tracer *t = obs::activeTracer())
        t->begin(t->track(tracePath()), std::move(event), now);
}

void
GdsAccel::traceEnd()
{
    if (obs::Tracer *t = obs::activeTracer())
        t->end(t->track(tracePath()), now);
}

void
GdsAccel::startIteration()
{
    activatedThisIteration = 0;
    curSlice = 0;
    // An iteration with no active vertices anywhere terminates the run.
    bool any_active = false;
    for (const auto &list : activeCur)
        any_active |= !list.empty();
    if (!any_active || iteration >= cfg.maxIterations) {
        phase = Phase::Finished;
        return;
    }
    startScatter();
}

void
GdsAccel::finishSlice()
{
    traceEnd(); // "apply"

    // Clear the Ready-to-Update bits this slice consumed.
    const std::uint64_t first = groupIndexOf(sliceBegin(curSlice));
    const std::uint64_t last = groupIndexOf(sliceEnd(curSlice) - 1);
    for (std::uint64_t g = first; g <= last; ++g)
        readyGroup[g] = 0;

    ++curSlice;
    if (curSlice < sliceCount) {
        startScatter();
        return;
    }

    // Iteration complete.
    traceEnd(); // "iteration:N"
    ++iteration;
    ++statIterations;
    if (collectPeLoads) {
        peLoadTrace.push_back(peLoadThisIteration);
        peLoadThisIteration.assign(cfg.numPes, 0);
    }
    activeCur.swap(activeNext);
    for (auto &list : activeNext)
        list.clear();
    activeBuf ^= 1;
    startIteration();
}

bool
GdsAccel::busy() const
{
    // "Busy" means work is actually in flight at the accelerator level --
    // outstanding memory requests, undelivered responses, or occupied
    // datapath queues. A wedged run with none of these is a deadlock; one
    // where responses never drain (e.g. dropped by fault injection) keeps
    // the ports in flight and classifies as livelock instead.
    if (vportRead.inflight() > 0 || eportRead.inflight() > 0 ||
        auPortWrite.inflight() > 0)
        return true;
    if (vportRead.hasResponse() || eportRead.hasResponse() ||
        auPortWrite.hasResponse())
        return true;
    for (const De &de : des) {
        if (!de.vpb.empty())
            return true;
    }
    for (const Pe &pe : pes) {
        if (!pe.edgeQueue.empty() || !pe.applyQueue.empty() ||
            !pe.vbStage.empty() || !pe.pendingFlits.empty())
            return true;
    }
    for (const Ue &ue : ues) {
        if (!ue.inbox.empty())
            return true;
    }
    if (!sc.eprefPending.empty() || !ap.propWrites.empty())
        return true;
    return false;
}

std::string
GdsAccel::debugState() const
{
    std::ostringstream os;
    os << "phase=";
    switch (phase) {
      case Phase::ScatterPhase:
        os << "scatter";
        break;
      case Phase::ApplyPhase:
        os << "apply";
        break;
      case Phase::Finished:
        os << "finished";
        break;
    }
    os << " iter=" << iteration << " slice=" << curSlice << "/" << sliceCount
       << " cycle=" << now;
    os << " inflight[v=" << vportRead.inflight()
       << " e=" << eportRead.inflight() << " au=" << auPortWrite.inflight()
       << "]";
    if (phase == Phase::ScatterPhase) {
        os << " scatter[dispatched=" << sc.recordsDispatched << "/"
           << sc.recordsTotal << " reduced=" << sc.edgesReduced << "/"
           << sc.expectedEdges << " commit=" << sc.commitCursor
           << " eprefPending=" << sc.eprefPending.size()
           << " bufferedEdges=" << sc.bufferedEdges << "]";
    } else if (phase == Phase::ApplyPhase) {
        os << " apply[groups=" << ap.groupsCompleted << "/"
           << ap.groups.size() << " commit=" << ap.commitCursor
           << " auBuffered=" << ap.auBufferedRecords
           << " propWrites=" << ap.propWrites.size() << "]";
    }
    std::size_t edge_q = 0, apply_q = 0, ue_q = 0, vpb_q = 0;
    for (const Pe &pe : pes) {
        edge_q += pe.edgeQueue.size();
        apply_q += pe.applyQueue.size() + pe.vbStage.size();
    }
    for (const Ue &ue : ues)
        ue_q += ue.inbox.size();
    for (const De &de : des)
        vpb_q += de.vpb.size();
    os << " queues[vpb=" << vpb_q << " edge=" << edge_q
       << " apply=" << apply_q << " ue=" << ue_q << "]";
    return os.str();
}

void
GdsAccel::tick()
{
    // Deliver matured HBM responses to their owners.
    while (vportRead.hasResponse()) {
        const std::uint64_t tag = vportRead.popResponse();
        switch (tagKind(tag)) {
          case Tag::RecordBatch:
            sc.batchReady[tagPayload(tag)] = 1;
            break;
          case Tag::TPropFill:
            --sc.fillOutstanding;
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
    while (eportRead.hasResponse()) {
        const std::uint64_t tag = eportRead.popResponse();
        const std::uint64_t payload = tagPayload(tag);
        switch (tagKind(tag)) {
          case Tag::EdgeFetch: {
            RecordFetch &f = sc.fetch[payload];
            gds_assert(f.parts > 0, "stray edge response");
            --f.parts;
            if (f.allIssued && f.parts == 0)
                materializeRecord(payload);
            break;
          }
          case Tag::EdgeBatch:
            // One coalesced request served several whole records.
            for (const std::uint64_t rec : sc.fetchBatches[payload])
                materializeRecord(rec);
            break;
          default:
            panic("unexpected tag on the Epref port");
        }
    }
    while (auPortWrite.hasResponse())
        auPortWrite.popResponse(); // stores only gate phase completion

    switch (phase) {
      case Phase::ScatterPhase:
        ++statScatterCycles;
        tickScatter();
        if (scatterDone())
            startApply();
        break;
      case Phase::ApplyPhase:
        ++statApplyCycles;
        tickApply();
        if (applyDone())
            finishSlice();
        break;
      case Phase::Finished:
        break;
    }

    if (debug::anyEnabled()) {
        // Re-scope attribution: the HBM is ticked from inside our tick,
        // but its DPRINTF lines should carry its own path.
        const debug::ScopedTraceComponent scope(hbm->tracePath());
        hbm->tick();
    } else {
        hbm->tick();
    }
    ++now;
}

Cycle
GdsAccel::nextEventCycle() const
{
    // A pending port response is drained (and acted on) next tick.
    if (vportRead.hasResponse() || eportRead.hasResponse() ||
        auPortWrite.hasResponse())
        return 1;

    switch (phase) {
      case Phase::ScatterPhase:
        if (!scatterQuiescent())
            return 1;
        break;
      case Phase::ApplyPhase:
        if (!applyQuiescent())
            return 1;
        break;
      case Phase::Finished:
        break;
    }

    // Provably waiting: the only things that can end the wait are an HBM
    // event (a completion maturing or a queued transaction becoming
    // issuable) and, in Apply, a VB-pipeline entry maturing.
    Cycle horizon = hbm->nextEventCycle();
    if (phase == Phase::ApplyPhase) {
        for (const Pe &pe : pes)
            horizon = std::min(horizon, pe.vbStage.cyclesUntilReady());
    }
    return horizon < 1 ? Cycle{1} : horizon;
}

namespace
{

constexpr std::uint32_t kAccelMarker = 0x47445331; // "GDS1"

} // namespace

template <typename Self, typename Ar>
void
GdsAccel::fields(Self &self, Ar &ar)
{
    sim::Component::fields(self, ar);
    ar(sim::Marker{kAccelMarker});

    // Functional state.
    ar(self.prop, self.tProp, self.cProp, self.readyGroup, self.activeCur,
       self.activeNext, self.activatedThisIteration);

    // Datapath queues and pipeline registers.
    for (auto &de : self.des)
        ar(de.vpb, de.chunkCursor);
    for (auto &pe : self.pes)
        ar(pe.edgeQueue, pe.pendingFlits, pe.applyQueue, pe.vbStage);
    for (auto &ue : self.ues)
        ar(ue.inbox, ue.pipeAddr, ue.pipeCycle);
    ar(self.scEdgesQueued, self.scFlitsBuffered, self.ueFlitsQueued);

    // Scatter- and Apply-phase bookkeeping.
    auto &scatter = self.sc;
    ar(scatter.recordsTotal, scatter.expectedEdges, scatter.batchesTotal,
       scatter.batchesIssued, scatter.batchReady, scatter.commitCursor,
       scatter.recordsDispatched, scatter.edgesReduced,
       scatter.fillOutstanding, scatter.fillCursor, scatter.fillBytesLeft,
       scatter.eprefPending, scatter.fetch, scatter.fetchBatches,
       scatter.bufferedEdges);
    auto &apply = self.ap;
    ar(apply.groups, apply.fetch, apply.groupsRequested, apply.commitCursor,
       apply.groupsCompleted, apply.auBufferedRecords, apply.auWriteCursor,
       apply.propWrites);

    // Control state, then the ports and the child components.
    ar(self.phase, self.curSlice, self.iteration, self.activeBuf, self.now,
       self.runStart, self.collectPeLoads, self.peLoadThisIteration,
       self.peLoadTrace);
    ar(self.vportRead, self.eportRead, self.auPortWrite, *self.hbm,
       *self.xbar);
}

void
GdsAccel::saveState(sim::Serializer &s) const
{
    // Port identities first: the HBM request slab references them
    // through the pointer registry.
    s.registerPointer(&vportRead);
    s.registerPointer(&eportRead);
    s.registerPointer(&auPortWrite);
    fields(*this, s);
}

void
GdsAccel::restoreState(sim::Deserializer &d)
{
    d.registerPointer(&vportRead);
    d.registerPointer(&eportRead);
    d.registerPointer(&auPortWrite);
    fields(*this, d);

    // The UE occupancy mask is derived state, never serialized.
    for (unsigned u = 0; u < cfg.numUes; ++u)
        assignBit(uesNonEmpty, u, !ues[u].inbox.empty());
}

void
GdsAccel::skipCycles(Cycle cycles)
{
    // Replay per-cycle bookkeeping exactly as `cycles` quiescent tick()
    // calls would have: phase cycle counters, per-DE and commit bottleneck
    // attribution (the quiescence predicate pinned down which branch every
    // skipped cycle would have taken), VB pipeline clocks, and the HBM.
    switch (phase) {
      case Phase::ScatterPhase: {
        statScatterCycles += static_cast<double>(cycles);
        for (const De &de : des) {
            if (de.vpb.empty())
                statDeIdle += static_cast<double>(cycles);
            else
                statDeWaitReady += static_cast<double>(cycles);
        }
        if (sc.commitCursor < sc.recordsTotal) {
            if (!sc.batchReady[sc.commitCursor / cfg.vprefBatch])
                statCommitBlockedBatch += static_cast<double>(cycles);
            else
                statCommitBlockedVpb += static_cast<double>(cycles);
        }
        break;
      }
      case Phase::ApplyPhase:
        statApplyCycles += static_cast<double>(cycles);
        for (Pe &pe : pes)
            pe.vbStage.advance(cycles);
        break;
      case Phase::Finished:
        break;
    }
    hbm->skipCycles(cycles);
    now += cycles;
}

} // namespace gds::core
