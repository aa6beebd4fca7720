/**
 * @file
 * The accelerator frame: construction, the run driver, iteration and
 * slice control, the tick skeleton, fast-forward and checkpointing.
 */

#include "core/vcpm_accel.hh"

#include <algorithm>
#include <csignal>
#include <optional>
#include <sstream>

#include "common/bitutil.hh"
#include "common/debug.hh"
#include "common/parse.hh"
#include "core/checkpoint_session.hh"
#include "core/detail.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"

namespace gds::core
{

VcpmAccel::VcpmAccel(std::string component_name, const graph::Csr &g,
                     algo::VcpmAlgorithm &algorithm, const Shape &shape,
                     sim::Component *parent)
    : sim::Component(std::move(component_name), parent),
      fullGraph(g),
      algo(algorithm),
      weighted(algorithm.usesWeights()),
      hasConstProp(algorithm.usesConstProp()),
      maxIterations(shape.maxIterations),
      loadUnits(shape.loadUnits),
      statIterations(&statsGroup(), "iterations", "iterations executed"),
      statScatterCycles(&statsGroup(), "scatterCycles",
                        "cycles spent in Scatter phases"),
      statApplyCycles(&statsGroup(), "applyCycles",
                      "cycles spent in Apply phases"),
      statEdgesProcessed(&statsGroup(), "edgesProcessed",
                         "edges processed by the scatter datapath"),
      statVertexUpdates(&statsGroup(), "vertexUpdates",
                        "vertices whose property changed in Apply")
{
    // User-facing consistency: a typed error, not an assert, so a bad
    // sweep point fails its cell instead of killing the bench.
    if (weighted && !fullGraph.hasWeights())
        throw ConfigError(algo.name() + " needs a weighted graph");

    // Destination-range slicing when tProp exceeds the on-chip store.
    const VertexId v_count = fullGraph.numVertices();
    sliceCount = graph::numSlices(v_count, shape.sliceCapacity);
    if (sliceCount > 1)
        slices = graph::sliceByDestination(fullGraph, shape.sliceCapacity);

    sliceEdgeStart.resize(sliceCount, 0);
    EdgeId edge_cursor = 0;
    for (unsigned s = 0; s < sliceCount; ++s) {
        sliceEdgeStart[s] = edge_cursor;
        edge_cursor += sliceGraph(s).numEdges();
    }

    // A weighted edge record carries one more word.
    const RecordFormat fmt{shape.edgeBytes + (weighted ? bytesPerWord : 0u),
                           shape.activeRecordBytes, 0u};
    layout = std::make_unique<MemoryLayout>(v_count, edge_cursor, fmt,
                                            hasConstProp, sliceCount > 1);
    hbm = std::make_unique<mem::Hbm>(shape.hbm, this);
}

RunResult
VcpmAccel::run(const RunOptions &options)
{
    const VertexId v_count = fullGraph.numVertices();
    if (v_count == 0)
        throw ConfigError("cannot run on an empty graph");
    if (options.source >= v_count)
        throw ConfigError(gds::detail::vformat(
            "source %u out of range (V=%u)", options.source, v_count));

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
    prepareRun();

    active.clear();
    activeNext.clear();
    if (algo.allInitiallyActive()) {
        for (VertexId v = 0; v < v_count; ++v)
            active.push_back(ActiveRecord{v, prop[v]});
    } else {
        active.push_back(ActiveRecord{options.source, prop[options.source]});
    }
    collectLoads = options.collectPeLoads;
    loadTrace.clear();
    loadThisIteration.assign(loadUnits, 0);

    iteration = 0;
    activeBuf = 0;
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
    limits.maxCycles =
        options.cycleBudget != 0 ? options.cycleBudget : 50'000'000'000ULL;
    if (options.stallCycles != 0)
        limits.stallCycles = options.stallCycles;
    // Fast-forward is cycle-exact but incompatible with the per-cycle
    // heartbeat (its modulo would miss skipped boundaries).
    limits.fastForward = options.fastForward && !progress &&
                         !common::envFlag("GDS_NO_FASTFORWARD");

    std::optional<sim::FaultInjector> injector;
    if (options.faults.any()) {
        injector.emplace(options.faults); // throws ConfigError if invalid
        hbm->setFaultInjector(&*injector);
        attachFaults(&*injector);
    }

    const auto finished = [&] {
        // Diagnostic heartbeat for long runs (GDS_PROGRESS=1).
        if (progress && now != runStart &&
            (now - runStart) % 1'000'000 == 0) {
            inform("run cycle %llu: %s",
                   static_cast<unsigned long long>(now - runStart),
                   debugState().c_str());
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
        name().c_str(), algo.name(), fullGraph, options, *this, now,
        injector ? &*injector : nullptr, driver,
        [&](const sim::RunHooks &hooks) {
            return driver.run(finished, limits, hooks);
        });

    hbm->setFaultInjector(nullptr);
    attachFaults(nullptr);

    RunResult result;
    result.report = report;
    result.properties = prop;
    result.iterations = iteration;
    result.cycles = now - runStart;
    result.edgesProcessed =
        static_cast<std::uint64_t>(statEdgesProcessed.value());
    result.vertexUpdates =
        static_cast<std::uint64_t>(statVertexUpdates.value());
    result.memoryBytes = static_cast<std::uint64_t>(hbm->totalBytes());
    result.footprintBytes = layout->footprintBytes();
    result.bandwidthUtilization = hbm->bandwidthUtilization();
    result.peLoads = loadTrace;
    fillResult(result);
    return result;
}

void
VcpmAccel::registerProbes(obs::Sampler &sampler) const
{
    sampler.add("hbm.readBytes", [this] { return hbm->readBytes(); });
    sampler.add("hbm.writeBytes", [this] { return hbm->writeBytes(); });
    registerDatapathProbes(sampler);
    sampler.add("frontier.records",
                [this] { return static_cast<double>(active.size()); });
    sampler.addScalar("edgesProcessed", statEdgesProcessed);
}

void
VcpmAccel::traceBegin(std::string event)
{
    if (obs::Tracer *t = obs::activeTracer())
        t->begin(t->track(tracePath()), std::move(event), now);
}

void
VcpmAccel::traceEnd()
{
    if (obs::Tracer *t = obs::activeTracer())
        t->end(t->track(tracePath()), now);
}

void
VcpmAccel::startIteration()
{
    curSlice = 0;
    // An iteration with no active vertices terminates the run.
    if (active.empty() || iteration >= maxIterations) {
        phase = Phase::Finished;
        return;
    }
    beginScatter();
}

void
VcpmAccel::beginScatter()
{
    DPRINTF(Phase, "iter %u slice %u: Scatter starts (%zu active)",
            iteration, curSlice, active.size());
    if (curSlice == 0)
        traceBegin("iteration:" + std::to_string(iteration));
    traceBegin("scatter");
    phase = Phase::ScatterPhase;
    startScatter();
}

void
VcpmAccel::beginApply()
{
    DPRINTF(Phase, "iter %u slice %u: Apply starts", iteration, curSlice);
    traceEnd(); // "scatter"
    traceBegin("apply");
    phase = Phase::ApplyPhase;
    // Activated records are stored into the next iteration's array.
    stores.propWrites.clear();
    stores.bufferedRecords = 0;
    stores.auWriteCursor = layout->activeArrayBase(activeBuf ^ 1);
    startApply();
}

void
VcpmAccel::finishSlice()
{
    traceEnd(); // "apply"

    ++curSlice;
    if (curSlice < sliceCount) {
        beginScatter();
        return;
    }

    // Iteration complete.
    traceEnd(); // "iteration:N"
    ++iteration;
    ++statIterations;
    if (collectLoads) {
        loadTrace.push_back(loadThisIteration);
        loadThisIteration.assign(loadUnits, 0);
    }
    active.swap(activeNext);
    activeNext.clear();
    activeBuf ^= 1;
    startIteration();
}

// ---------------------------------------------------------------------
// The shared memory front end.
// ---------------------------------------------------------------------

void
VcpmAccel::startRecordStream(unsigned batch_records)
{
    // Runs every slice of every iteration; the containers keep storage.
    RecordStream &rs = recordStream;
    const graph::Csr &sg = sliceGraph(curSlice);
    rs.records = active.size();
    rs.expectedEdges = 0;
    for (const ActiveRecord &r : active)
        rs.expectedEdges += sg.outDegree(r.vid);
    rs.batchRecords = batch_records;
    rs.batchesIssued = rs.commitCursor = rs.recordsDone = 0;
    rs.edgesReduced = 0;
    rs.batchReady.assign(ceilDiv<std::uint64_t>(rs.records, batch_records),
                         0);
    edgeParts.table.assign(rs.records, RecordFetch{});
}

void
VcpmAccel::issueRecordBatches(unsigned max_inflight, std::uint64_t tag)
{
    while (recordBatchIssuable(max_inflight)) {
        const std::uint64_t b = recordStream.batchesIssued;
        const std::uint64_t first = b * recordStream.batchRecords;
        const std::uint64_t count =
            std::min(recordStream.batchRecords, recordStream.records - first);
        const unsigned bytes = static_cast<unsigned>(
            count * layout->fmt.activeRecordBytes);
        if (!hbm->access(layout->activeRecordAddr(activeBuf, first), bytes,
                         false, tag | b, &recordPort))
            break;
        ++recordStream.batchesIssued;
    }
}

bool
VcpmAccel::issuePart(RecordFetch &f, Addr begin, std::uint64_t bytes,
                     std::uint64_t tag, mem::HbmPort &port)
{
    const unsigned chunk = static_cast<unsigned>(std::min<std::uint64_t>(
        bytes - f.bytesIssued, detail::maxRequestBytes));
    if (!hbm->access(begin + f.bytesIssued, chunk, false, tag, &port))
        return false;
    f.bytesIssued += chunk;
    ++f.parts;
    f.allIssued = f.bytesIssued == bytes;
    return true;
}

bool
VcpmAccel::partArrived(RecordFetch &f)
{
    gds_assert(f.parts > 0, "stray part response");
    --f.parts;
    if (!f.allIssued || f.parts != 0 || f.ready)
        return false;
    f.ready = true;
    return true;
}

void
VcpmAccel::flushPropWrites(std::uint64_t tag)
{
    while (!stores.propWrites.empty()) {
        const auto [addr, bytes] = stores.propWrites.front();
        if (!hbm->access(addr, bytes, true, tag, &storePort))
            break;
        stores.propWrites.pop_front();
    }
}

void
VcpmAccel::flushRecordStores(std::uint64_t batch, bool force,
                             std::uint64_t tag)
{
    while (stores.bufferedRecords >= batch ||
           (force && stores.bufferedRecords > 0)) {
        const std::uint64_t n = std::min(stores.bufferedRecords, batch);
        const unsigned bytes = static_cast<unsigned>(
            n * layout->fmt.activeRecordBytes);
        if (!hbm->access(stores.auWriteCursor, bytes, true, tag,
                         &storePort))
            break;
        stores.auWriteCursor += bytes;
        stores.bufferedRecords -= n;
    }
}

void
VcpmAccel::tick()
{
    drainResponses();
    while (storePort.hasResponse())
        storePort.popResponse(); // stores only gate phase completion

    switch (phase) {
      case Phase::ScatterPhase:
        ++statScatterCycles;
        tickScatter();
        if (scatterDone())
            beginApply();
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

bool
VcpmAccel::busy() const
{
    // "Busy" means work is actually in flight -- outstanding memory
    // requests, undelivered responses, or occupied datapath queues. A
    // wedged run with none of these is a deadlock; one where responses
    // never drain (e.g. dropped by fault injection) keeps the ports in
    // flight and classifies as livelock instead.
    for (const mem::HbmPort *port : {&recordPort, &edgePort, &storePort}) {
        if (port->inflight() > 0 || port->hasResponse())
            return true;
    }
    return recordsHeld() != 0 || datapathBusy();
}

std::string
VcpmAccel::debugState() const
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
    os << " inflight[v=" << recordPort.inflight()
       << " e=" << edgePort.inflight() << " w=" << storePort.inflight()
       << "]";
    if (phase == Phase::ScatterPhase) {
        // partialFetches: edge lists partly requested, parts in flight.
        std::uint64_t partial = 0;
        for (const RecordFetch &f : edgeParts.table)
            partial += f.parts > 0 && !f.allIssued ? 1 : 0;
        const RecordStream &rs = recordStream;
        os << " scatter[done=" << rs.recordsDone << "/" << rs.records
           << " reduced=" << rs.edgesReduced << "/" << rs.expectedEdges
           << " commit=" << rs.commitCursor << " partialFetches=" << partial
           << "]";
    }
    datapathState(os);
    return os.str();
}

Cycle
VcpmAccel::nextEventCycle() const
{
    // A pending port response is drained (and acted on) next tick.
    if (recordPort.hasResponse() || edgePort.hasResponse() ||
        storePort.hasResponse())
        return 1;

    switch (phase) {
      // A drained phase transitions at the end of its next tick.
      case Phase::ScatterPhase:
        if (scatterDone() || !scatterQuiescent())
            return 1;
        break;
      case Phase::ApplyPhase:
        if (applyDone() || !applyQuiescent())
            return 1;
        break;
      case Phase::Finished:
        break;
    }

    // Provably waiting: only an HBM event (a completion maturing or a
    // queued transaction becoming issuable) or a datapath timer can end
    // the wait.
    const Cycle horizon =
        std::min(hbm->nextEventCycle(), extraEventHorizon());
    return horizon < 1 ? Cycle{1} : horizon;
}

void
VcpmAccel::skipCycles(Cycle cycles)
{
    switch (phase) {
      case Phase::ScatterPhase:
        statScatterCycles += static_cast<double>(cycles);
        break;
      case Phase::ApplyPhase:
        statApplyCycles += static_cast<double>(cycles);
        break;
      case Phase::Finished:
        break;
    }
    replaySkip(cycles);
    hbm->skipCycles(cycles);
    now += cycles;
}

namespace
{

constexpr std::uint32_t kFrameMarker = 0x56435031; // "VCP1"

} // namespace

template <typename Self, typename Ar>
void
VcpmAccel::fields(Self &self, Ar &ar)
{
    sim::Component::fields(self, ar);
    ar(sim::Marker{kFrameMarker});
    ar(self.prop, self.tProp, self.cProp, self.active, self.activeNext);
    ar(self.phase, self.curSlice, self.iteration, self.activeBuf, self.now,
       self.runStart, self.collectLoads, self.loadThisIteration,
       self.loadTrace);
    ar(self.recordPort, self.edgePort, self.storePort, *self.hbm);
    ar(self.recordStream, self.edgeParts, self.stores);
}

void
VcpmAccel::saveState(sim::Serializer &s) const
{
    // Port identities first: the HBM request slab references them
    // through the pointer registry.
    s.registerPointer(&recordPort);
    s.registerPointer(&edgePort);
    s.registerPointer(&storePort);
    fields(*this, s);
    saveDatapath(s);
}

void
VcpmAccel::restoreState(sim::Deserializer &d)
{
    d.registerPointer(&recordPort);
    d.registerPointer(&edgePort);
    d.registerPointer(&storePort);
    fields(*this, d);
    restoreDatapath(d);
}

} // namespace gds::core
