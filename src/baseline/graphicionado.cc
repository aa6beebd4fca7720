#include "baseline/graphicionado.hh"

#include <algorithm>
#include <bit>
#include <csignal>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "common/bitutil.hh"
#include "common/parse.hh"
#include "core/checkpoint_session.hh"
#include "sim/checkpoint.hh"

namespace gds::baseline
{

namespace
{

enum class Tag : std::uint64_t
{
    RecordBatch = 1,
    TPropFill,
    EdgeFetch,
    ApplyBatch,
    Store,
};

constexpr std::uint64_t
makeTag(Tag kind, std::uint64_t payload)
{
    return (static_cast<std::uint64_t>(kind) << 56) | payload;
}

constexpr Tag
tagKind(std::uint64_t tag)
{
    return static_cast<Tag>(tag >> 56);
}

constexpr std::uint64_t
tagPayload(std::uint64_t tag)
{
    return tag & ((1ULL << 56) - 1);
}

constexpr unsigned maxRequestBytes = 512;
constexpr unsigned applyBatchVerts = 128; ///< props per sweep request
constexpr unsigned auRecordBatch = 8;     ///< active records per store

// Stream scheduling masks: one bit per stream, 64 streams per word.
constexpr unsigned kMaskWordBits = 64;

void
assignBit(std::vector<std::uint64_t> &mask, unsigned i, bool on)
{
    const std::uint64_t bit = std::uint64_t{1} << (i % kMaskWordBits);
    if (on)
        mask[i / kMaskWordBits] |= bit;
    else
        mask[i / kMaskWordBits] &= ~bit;
}

/** Lowest set bit at or above @p from, or mask.size() * 64 when none. */
unsigned
nextSetBit(const std::vector<std::uint64_t> &mask, unsigned from)
{
    const auto none = static_cast<unsigned>(mask.size() * kMaskWordBits);
    std::size_t w = from / kMaskWordBits;
    if (w >= mask.size())
        return none;
    std::uint64_t bits =
        mask[w] & (~std::uint64_t{0} << (from % kMaskWordBits));
    while (bits == 0) {
        if (++w == mask.size())
            return none;
        bits = mask[w];
    }
    return static_cast<unsigned>(w * kMaskWordBits) +
           static_cast<unsigned>(std::countr_zero(bits));
}

bool
anyBit(const std::vector<std::uint64_t> &mask)
{
    return std::any_of(mask.begin(), mask.end(),
                       [](std::uint64_t word) { return word != 0; });
}

} // namespace

GraphicionadoAccel::GraphicionadoAccel(const GraphicionadoConfig &config,
                                       const graph::Csr &g,
                                       algo::VcpmAlgorithm &algorithm,
                                       sim::Component *parent)
    : sim::Component("graphicionado", parent),
      cfg(config),
      fullGraph(g),
      algo(algorithm),
      weighted(algorithm.usesWeights()),
      hasConstProp(algorithm.usesConstProp()),
      statIterations(&statsGroup(), "iterations", "iterations executed"),
      statScatterCycles(&statsGroup(), "scatterCycles",
                        "cycles in the processing (scatter) phase"),
      statApplyCycles(&statsGroup(), "applyCycles",
                      "cycles in the apply phase"),
      statEdgesProcessed(&statsGroup(), "edgesProcessed",
                         "edges processed by the streams"),
      statVertexUpdates(&statsGroup(), "vertexUpdates",
                        "vertices whose property changed in Apply"),
      statAtomicStalls(&statsGroup(), "atomicStalls",
                       "stream stalls from RAW conflicts"),
      statApplyOps(&statsGroup(), "applyOps", "Apply kernel executions"),
      statReduceOps(&statsGroup(), "reduceOps", "Reduce kernel executions"),
      statStreamEdges(&statsGroup(), "streamEdges",
                      "edges processed per stream", config.numStreams)
{
    if (weighted && !fullGraph.hasWeights())
        throw ConfigError(algo.name() + " needs a weighted graph");

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

    // Graphicionado record formats: edges carry src_vid (+4 B), active
    // records are (vid, prop) = 8 B.
    const core::RecordFormat fmt{weighted ? 12u : 8u, 8u, 0u};
    layout = std::make_unique<core::MemoryLayout>(
        v_count, edge_cursor, fmt, hasConstProp, sliceCount > 1);
    hbm = std::make_unique<mem::Hbm>(cfg.hbm, this);

    streams.resize(cfg.numStreams);
    const std::size_t mask_words =
        ceilDiv<std::size_t>(cfg.numStreams, kMaskWordBits);
    streamsHeadReady.assign(mask_words, 0);
    streamsNeedingFetch.assign(mask_words, 0);
}

GraphicionadoAccel::~GraphicionadoAccel() = default;

const graph::Csr &
GraphicionadoAccel::sliceGraph(unsigned s) const
{
    return sliceCount == 1 ? fullGraph : slices[s].subgraph;
}

VertexId
GraphicionadoAccel::sliceBegin(unsigned s) const
{
    return sliceCount == 1 ? 0 : slices[s].dstBegin;
}

VertexId
GraphicionadoAccel::sliceEnd(unsigned s) const
{
    return sliceCount == 1 ? fullGraph.numVertices() : slices[s].dstEnd;
}

void
GraphicionadoAccel::buildInitialActives(VertexId source)
{
    activeCur.assign(sliceCount, {});
    activeNext.assign(sliceCount, {});
    auto add = [this](VertexId v) {
        for (unsigned s = 0; s < sliceCount; ++s)
            activeCur[s].push_back(ActiveRecord{v, prop[v]});
    };
    if (algo.allInitiallyActive()) {
        for (VertexId v = 0; v < fullGraph.numVertices(); ++v)
            add(v);
    } else {
        add(source);
    }
}

core::RunResult
GraphicionadoAccel::run(const core::RunOptions &options)
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
    lastReduceAt.assign(v_count, 0);

    buildInitialActives(options.source);
    collectPeLoads = options.collectPeLoads;
    streamLoadTrace.clear();
    streamLoadThisIteration.assign(cfg.numStreams, 0);

    iteration = 0;
    activeBuf = 0;
    startIteration();

    runStart = now;

    // Supervised execution (same protocol as GdsAccel::run): completion,
    // deadlock, livelock and budget exhaustion are distinguished by the
    // Simulator watchdog instead of an assert.
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
    limits.fastForward =
        options.fastForward && !common::envFlag("GDS_NO_FASTFORWARD");

    std::optional<sim::FaultInjector> injector;
    if (options.faults.any()) {
        injector.emplace(options.faults); // throws ConfigError if invalid
        hbm->setFaultInjector(&*injector);
    }

    const auto finished = [&] {
        if (options.killAtCycle != 0 &&
            now - runStart >= options.killAtCycle)
            std::raise(SIGKILL);
        return phase == Phase::Finished;
    };
    const sim::RunReport report = core::runCheckpointed(
        "graphicionado", algo.name(), fullGraph, options, *this, now,
        injector ? &*injector : nullptr, driver,
        [&](const sim::RunHooks &hooks) {
            return driver.run(finished, limits, hooks);
        });

    hbm->setFaultInjector(nullptr);

    core::RunResult result;
    result.report = report;
    result.properties = prop;
    result.iterations = iteration;
    result.cycles = now - runStart;
    result.edgesProcessed =
        static_cast<std::uint64_t>(statEdgesProcessed.value());
    result.vertexUpdates =
        static_cast<std::uint64_t>(statVertexUpdates.value());
    result.updatesSkipped = 0; // the full sweep never skips
    result.memoryBytes = static_cast<std::uint64_t>(hbm->totalBytes());
    result.footprintBytes = layout->footprintBytes();
    result.bandwidthUtilization = hbm->bandwidthUtilization();
    result.atomicStalls =
        static_cast<std::uint64_t>(statAtomicStalls.value());
    result.peLoads = streamLoadTrace;
    return result;
}

void
GraphicionadoAccel::registerProbes(obs::Sampler &sampler) const
{
    sampler.add("hbm.readBytes", [this] { return hbm->readBytes(); });
    sampler.add("hbm.writeBytes", [this] { return hbm->writeBytes(); });
    sampler.add("stream.backlog", [this] {
        std::size_t total = 0;
        for (const Stream &s : streams)
            total += s.records.size();
        return static_cast<double>(total);
    });
    sampler.add("frontier.records", [this] {
        return activeCur.empty()
                   ? 0.0
                   : static_cast<double>(activeCur[0].size());
    });
    sampler.addScalar("edgesProcessed", statEdgesProcessed);
}

void
GraphicionadoAccel::traceBegin(std::string event)
{
    if (obs::Tracer *t = obs::activeTracer())
        t->begin(t->track(tracePath()), std::move(event), now);
}

void
GraphicionadoAccel::traceEnd()
{
    if (obs::Tracer *t = obs::activeTracer())
        t->end(t->track(tracePath()), now);
}

void
GraphicionadoAccel::startIteration()
{
    activatedThisIteration = 0;
    curSlice = 0;
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
GraphicionadoAccel::finishSlice()
{
    traceEnd(); // "apply"
    ++curSlice;
    if (curSlice < sliceCount) {
        startScatter();
        return;
    }
    traceEnd(); // "iteration:N"
    ++iteration;
    ++statIterations;
    if (collectPeLoads) {
        streamLoadTrace.push_back(streamLoadThisIteration);
        streamLoadThisIteration.assign(cfg.numStreams, 0);
    }
    activeCur.swap(activeNext);
    for (auto &list : activeNext)
        list.clear();
    activeBuf ^= 1;
    startIteration();
}

// ---------------------------------------------------------------------
// Scatter ("processing") phase.
// ---------------------------------------------------------------------

void
GraphicionadoAccel::startScatter()
{
    if (curSlice == 0)
        traceBegin("iteration:" + std::to_string(iteration));
    traceBegin("scatter");
    phase = Phase::ScatterPhase;
    const auto &records = activeCur[curSlice];

    sc = ScatterState{};
    sc.recordsTotal = records.size();
    const graph::Csr &sg = sliceGraph(curSlice);
    for (const ActiveRecord &r : records)
        sc.expectedEdges += sg.outDegree(r.vid);
    sc.batchesTotal = ceilDiv<std::uint64_t>(sc.recordsTotal,
                                             cfg.vprefBatch);
    sc.batchReady.assign(sc.batchesTotal, 0);
    sc.fetch.assign(sc.recordsTotal, RecordFetch{});

    for (Stream &stream : streams) {
        stream.records.clear();
        stream.edgeCursor = 0;
    }
    std::fill(streamsHeadReady.begin(), streamsHeadReady.end(), 0);
    std::fill(streamsNeedingFetch.begin(), streamsNeedingFetch.end(), 0);
}

void
GraphicionadoAccel::refreshStream(unsigned s)
{
    const Stream &stream = streams[s];
    bool head_ready = false;
    if (!stream.records.empty()) {
        const std::uint64_t head = stream.records.front();
        head_ready = sc.fetch[head].ready ||
                     sliceGraph(curSlice).outDegree(
                         activeCur[curSlice][head].vid) == 0;
    }
    assignBit(streamsHeadReady, s, head_ready);
    const std::size_t lookahead = std::min<std::size_t>(
        stream.records.size(), cfg.streamLookahead);
    bool needs_fetch = false;
    for (std::size_t i = 0; i < lookahead && !needs_fetch; ++i) {
        const RecordFetch &f = sc.fetch[stream.records[i]];
        needs_fetch = !f.ready && !f.allIssued;
    }
    assignBit(streamsNeedingFetch, s, needs_fetch);
}

bool
GraphicionadoAccel::scatterDone() const
{
    return sc.recordsDone == sc.recordsTotal &&
           sc.edgesReduced == sc.expectedEdges;
}

void
GraphicionadoAccel::tickScatter()
{
    const graph::Csr &sg = sliceGraph(curSlice);
    const auto &records = activeCur[curSlice];

    // --- Streams: one edge per cycle, stalling on RAW conflicts. Only
    // streams whose head record can act are visited (a head still waiting
    // for its edge data does nothing), in ascending stream order: the
    // reduce order PR's float sums depend on. ---
    for (unsigned s = nextSetBit(streamsHeadReady, 0); s < cfg.numStreams;
         s = nextSetBit(streamsHeadReady, s + 1)) {
        Stream &stream = streams[s];
        const std::uint64_t rec = stream.records.front();
        const ActiveRecord &r = records[rec];
        const std::uint64_t degree = sg.outDegree(r.vid);
        if (degree == 0) {
            stream.records.pop_front();
            stream.edgeCursor = 0;
            ++sc.recordsDone;
            refreshStream(s);
            continue;
        }
        gds_assert(sc.fetch[rec].ready, "stream head scheduled unready");

        // The on-chip edge is read from the slice's CSR view.
        const EdgeId e = sg.offsetOf(r.vid) + stream.edgeCursor;
        const VertexId dst = sg.edgeDest(e);
        // Atomic enforcement: stall while a conflicting update is inside
        // the reduce pipeline.
        if (now - lastReduceAt[dst] < cfg.atomicPipelineDepth &&
            lastReduceAt[dst] != 0) {
            ++statAtomicStalls;
            continue;
        }
        const PropValue res = algo.processEdge(
            r.prop, weighted ? sg.edgeWeight(e) : Weight{1});
        tProp[dst] = algo.reduce(tProp[dst], res);
        lastReduceAt[dst] = now;
        ++statReduceOps;
        ++statEdgesProcessed;
        statStreamEdges[s] += 1;
        if (collectPeLoads)
            streamLoadThisIteration[s] += 1;
        ++sc.edgesReduced;
        progressed(now);
        if (++stream.edgeCursor == degree) {
            stream.records.pop_front();
            stream.edgeCursor = 0;
            ++sc.recordsDone;
            refreshStream(s);
        }
    }

    // --- Per-stream edge prefetch (offsets are on chip, so fetches start
    // immediately; each record reads one sentinel record extra and every
    // record carries src_vid). Only streams whose lookahead window still
    // needs a fetch are visited, in ascending stream order. ---
    unsigned issued = 0;
    bool mem_blocked = false;
    for (unsigned s = nextSetBit(streamsNeedingFetch, 0);
         s < cfg.numStreams && issued < 8 && !mem_blocked;
         s = nextSetBit(streamsNeedingFetch, s + 1)) {
        const Stream &stream = streams[s];
        const std::size_t lookahead =
            std::min<std::size_t>(stream.records.size(),
                                  cfg.streamLookahead);
        for (std::size_t i = 0; i < lookahead && issued < 8; ++i) {
            const std::uint64_t rec = stream.records[i];
            RecordFetch &f = sc.fetch[rec];
            if (f.ready || f.allIssued)
                continue;
            if (eport.inflight() >= cfg.edgeMaxInflight) {
                mem_blocked = true;
                break;
            }
            const ActiveRecord &r = records[rec];
            const std::uint64_t degree = sg.outDegree(r.vid);
            if (degree == 0) {
                f.ready = true;
                continue;
            }
            // +1 sentinel record read to detect the end of the list.
            const std::uint64_t total =
                (degree + 1) * layout->fmt.edgeBytes;
            const Addr begin = layout->edgeAddr(sliceEdgeStart[curSlice] +
                                                sg.offsetOf(r.vid));
            const unsigned chunk = static_cast<unsigned>(
                std::min<std::uint64_t>(total - f.bytesIssued,
                                        maxRequestBytes));
            if (!hbm->access(begin + f.bytesIssued, chunk, false,
                             makeTag(Tag::EdgeFetch, rec), &eport)) {
                mem_blocked = true;
                break;
            }
            f.bytesIssued += chunk;
            ++f.parts;
            ++issued;
            if (f.bytesIssued >= total)
                f.allIssued = true;
        }
        refreshStream(s);
    }

    // --- Vpref: stream active records, hash-assign to streams. ---
    while (sc.batchesIssued < sc.batchesTotal &&
           vport.inflight() < cfg.vprefMaxInflight) {
        const std::uint64_t b = sc.batchesIssued;
        const std::uint64_t first = b * cfg.vprefBatch;
        const std::uint64_t count = std::min<std::uint64_t>(
            cfg.vprefBatch, sc.recordsTotal - first);
        const Addr addr = layout->activeRecordAddr(activeBuf, first);
        if (!hbm->access(addr,
                         static_cast<unsigned>(
                             count * layout->fmt.activeRecordBytes),
                         false, makeTag(Tag::RecordBatch, b), &vport))
            break;
        ++sc.batchesIssued;
    }
    unsigned committed = 0;
    while (sc.commitCursor < sc.recordsTotal &&
           committed < cfg.numStreams) {
        const std::uint64_t k = sc.commitCursor;
        if (!sc.batchReady[k / cfg.vprefBatch])
            break;
        const unsigned s = records[k].vid % cfg.numStreams; // hash placement
        Stream &stream = streams[s];
        if (stream.records.size() >= cfg.streamQueueRecords)
            break; // head-of-line block: the imbalance bottleneck
        stream.records.push_back(k);
        refreshStream(s);
        ++sc.commitCursor;
        ++committed;
    }
}

// ---------------------------------------------------------------------
// Apply phase: full vertex sweep.
// ---------------------------------------------------------------------

void
GraphicionadoAccel::startApply()
{
    traceEnd(); // "scatter"
    traceBegin("apply");
    phase = Phase::ApplyPhase;
    ap = ApplyState{};
    ap.sweepBegin = sliceBegin(curSlice);
    ap.sweepEnd = sliceEnd(curSlice);
    ap.auWriteCursor = layout->activeArrayBase(activeBuf ^ 1);
    const std::uint64_t verts = ap.sweepEnd - ap.sweepBegin;
    ap.batchesTotal = ceilDiv<std::uint64_t>(verts, applyBatchVerts);
    ap.batchIssuedParts.assign(ap.batchesTotal, 0);
    ap.batchPending.assign(ap.batchesTotal, 0);
    ap.commitCursor = ap.sweepBegin;
}

bool
GraphicionadoAccel::applyDone() const
{
    return ap.appliedCount == ap.sweepEnd - ap.sweepBegin &&
           ap.pendingApplies.empty() && ap.writes.empty() &&
           ap.pendingAuRecords == 0 && wport.inflight() == 0;
}

void
GraphicionadoAccel::tickApply()
{
    // --- Streams apply one vertex per cycle each. ---
    unsigned applied = 0;
    while (!ap.pendingApplies.empty() && applied < cfg.numStreams) {
        const VertexId v = ap.pendingApplies.front();
        ap.pendingApplies.pop_front();
        const PropValue cp = hasConstProp ? cProp[v] : PropValue{0};
        const PropValue apply_res = algo.apply(prop[v], tProp[v], cp);
        if (algo.changed(prop[v], apply_res)) {
            prop[v] = apply_res;
            ++activatedThisIteration;
            ++statVertexUpdates;
            for (unsigned s = 0; s < sliceCount; ++s)
                activeNext[s].push_back(ActiveRecord{v, apply_res});
            ap.pendingAuRecords += sliceCount;
            // Intermittent, uncoalesced property store (4 B -> one 32 B
            // transaction): the update-irregularity cost GraphDynS
            // removes by write coalescing.
            ap.writes.push_back({layout->propAddr(v), bytesPerWord});
        } else if (algo.tPropResetsEachIteration()) {
            prop[v] = apply_res;
            ap.writes.push_back({layout->propAddr(v), bytesPerWord});
        }
        if (algo.tPropResetsEachIteration())
            tProp[v] = 0.0f;
        ++statApplyOps;
        ++ap.appliedCount;
        ++applied;
        progressed(now);
    }

    // --- Flush stores: active-record batches + property writes. ---
    while (ap.pendingAuRecords >= auRecordBatch ||
           (ap.pendingAuRecords > 0 &&
            ap.appliedCount == ap.sweepEnd - ap.sweepBegin)) {
        const std::uint64_t n =
            std::min<std::uint64_t>(ap.pendingAuRecords, auRecordBatch);
        const unsigned bytes = static_cast<unsigned>(
            n * layout->fmt.activeRecordBytes);
        if (!hbm->access(ap.auWriteCursor, bytes, true,
                         makeTag(Tag::Store, 0), &wport))
            break;
        ap.auWriteCursor += bytes;
        ap.pendingAuRecords -= n;
    }
    while (!ap.writes.empty()) {
        const auto [addr, bytes] = ap.writes.front();
        if (!hbm->access(addr, bytes, true, makeTag(Tag::Store, 1),
                         &wport))
            break;
        ap.writes.pop_front();
    }

    // --- Sweep prefetch: stream every vertex's property (and cProp). ---
    const std::uint8_t parts_needed = hasConstProp ? 2 : 1;
    while (ap.batchesIssued < ap.batchesTotal &&
           vport.inflight() < cfg.applyMaxInflight) {
        const std::uint64_t b = ap.batchesIssued;
        const VertexId first = ap.sweepBegin +
                               static_cast<VertexId>(b * applyBatchVerts);
        const unsigned count = static_cast<unsigned>(
            std::min<std::uint64_t>(applyBatchVerts, ap.sweepEnd - first));
        std::uint8_t &parts = ap.batchIssuedParts[b];
        while (parts < parts_needed) {
            const Addr addr = parts == 0 ? layout->propAddr(first)
                                         : layout->cPropAddr(first);
            if (!hbm->access(addr, count * bytesPerWord, false,
                             makeTag(Tag::ApplyBatch, b), &vport))
                break;
            ++parts;
            ++ap.batchPending[b];
        }
        if (parts < parts_needed)
            break; // memory backpressure: resume this batch next cycle
        ++ap.batchesIssued;
    }

    // --- Commit fetched vertices to the apply queue, in order. ---
    unsigned committed = 0;
    while (ap.commitCursor < ap.sweepEnd && committed < cfg.numStreams) {
        const std::uint64_t b =
            (ap.commitCursor - ap.sweepBegin) / applyBatchVerts;
        if (ap.batchIssuedParts[b] < parts_needed ||
            ap.batchPending[b] != 0)
            break;
        ap.pendingApplies.push_back(ap.commitCursor);
        ++ap.commitCursor;
        ++committed;
    }
}

// ---------------------------------------------------------------------
// Top-level tick.
// ---------------------------------------------------------------------

bool
GraphicionadoAccel::busy() const
{
    if (vport.inflight() > 0 || eport.inflight() > 0 ||
        wport.inflight() > 0)
        return true;
    if (vport.hasResponse() || eport.hasResponse() || wport.hasResponse())
        return true;
    for (const Stream &stream : streams) {
        if (!stream.records.empty())
            return true;
    }
    return !ap.pendingApplies.empty() || !ap.writes.empty() ||
           ap.pendingAuRecords > 0;
}

std::string
GraphicionadoAccel::debugState() const
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
    os << " inflight[v=" << vport.inflight() << " e=" << eport.inflight()
       << " w=" << wport.inflight() << "]";
    if (phase == Phase::ScatterPhase) {
        os << " scatter[done=" << sc.recordsDone << "/" << sc.recordsTotal
           << " reduced=" << sc.edgesReduced << "/" << sc.expectedEdges
           << " commit=" << sc.commitCursor << "]";
    } else if (phase == Phase::ApplyPhase) {
        os << " apply[applied=" << ap.appliedCount << "/"
           << (ap.sweepEnd - ap.sweepBegin)
           << " pending=" << ap.pendingApplies.size()
           << " writes=" << ap.writes.size() << "]";
    }
    std::size_t stream_q = 0;
    for (const Stream &stream : streams)
        stream_q += stream.records.size();
    os << " queues[streams=" << stream_q << "]";
    return os.str();
}

void
GraphicionadoAccel::tick()
{
    while (vport.hasResponse()) {
        const std::uint64_t tag = vport.popResponse();
        const std::uint64_t payload = tagPayload(tag);
        switch (tagKind(tag)) {
          case Tag::RecordBatch:
            sc.batchReady[payload] = 1;
            break;
          case Tag::ApplyBatch:
            gds_assert(ap.batchPending[payload] > 0, "stray apply batch");
            --ap.batchPending[payload];
            break;
          case Tag::TPropFill:
            break;
          default:
            panic("unexpected tag on the Graphicionado vport");
        }
    }
    while (eport.hasResponse()) {
        const std::uint64_t tag = eport.popResponse();
        const std::uint64_t rec = tagPayload(tag);
        gds_assert(tagKind(tag) == Tag::EdgeFetch, "bad eport tag");
        RecordFetch &f = sc.fetch[rec];
        gds_assert(f.parts > 0, "stray edge response");
        --f.parts;
        // The stream head reads the edges from the CSR view; arrival only
        // flips readiness, which may make the record's stream head ready.
        if (f.allIssued && f.parts == 0 && !f.ready) {
            f.ready = true;
            refreshStream(activeCur[curSlice][rec].vid % cfg.numStreams);
        }
    }
    while (wport.hasResponse())
        wport.popResponse();

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

bool
GraphicionadoAccel::scatterQuiescent() const
{
    const auto &records = activeCur[curSlice];

    // A drained phase transitions at the end of its next tick.
    if (scatterDone())
        return false;

    // Streams: a head record with edge data (or none to fetch) acts next
    // tick -- reducing, RAW-stalling, or retiring. Only "waiting for edge
    // data" is a pure wait, and those heads have no ready bit.
    if (anyBit(streamsHeadReady))
        return false;
    // Edge prefetch: with in-flight budget available, any lookahead record
    // still needing its fetch either issues a request or (degree 0) is
    // marked ready on the spot.
    if (eport.inflight() < cfg.edgeMaxInflight &&
        anyBit(streamsNeedingFetch))
        return false;
    // Vpref: an issuable record batch, or a commit neither blocked on
    // batch data nor on a full stream queue.
    if (sc.batchesIssued < sc.batchesTotal &&
        vport.inflight() < cfg.vprefMaxInflight)
        return false;
    if (sc.commitCursor < sc.recordsTotal) {
        const std::uint64_t k = sc.commitCursor;
        if (sc.batchReady[k / cfg.vprefBatch] &&
            streams[records[k].vid % cfg.numStreams].records.size() <
                cfg.streamQueueRecords)
            return false;
    }
    return true;
}

bool
GraphicionadoAccel::applyQuiescent() const
{
    // A drained phase transitions at the end of its next tick.
    if (applyDone())
        return false;
    // Queued applies execute next tick; queued stores issue requests.
    if (!ap.pendingApplies.empty() || !ap.writes.empty())
        return false;
    if (ap.pendingAuRecords >= auRecordBatch ||
        (ap.pendingAuRecords > 0 &&
         ap.appliedCount == ap.sweepEnd - ap.sweepBegin))
        return false;
    // Sweep prefetch: an open window always attempts an access.
    if (ap.batchesIssued < ap.batchesTotal &&
        vport.inflight() < cfg.applyMaxInflight)
        return false;
    // Commit: the next batch being fully fetched commits vertices.
    if (ap.commitCursor < ap.sweepEnd) {
        const std::uint64_t b =
            (ap.commitCursor - ap.sweepBegin) / applyBatchVerts;
        const std::uint8_t parts_needed = hasConstProp ? 2 : 1;
        if (ap.batchIssuedParts[b] >= parts_needed &&
            ap.batchPending[b] == 0)
            return false;
    }
    return true;
}

Cycle
GraphicionadoAccel::nextEventCycle() const
{
    if (vport.hasResponse() || eport.hasResponse() || wport.hasResponse())
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
    const Cycle horizon = hbm->nextEventCycle();
    return horizon < 1 ? Cycle{1} : horizon;
}

void
GraphicionadoAccel::skipCycles(Cycle cycles)
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
    hbm->skipCycles(cycles);
    now += cycles;
}

namespace
{

constexpr std::uint32_t kBaselineMarker = 0x47494f31; // "GIO1"

} // namespace

template <typename Self, typename Ar>
void
GraphicionadoAccel::fields(Self &self, Ar &ar)
{
    sim::Component::fields(self, ar);
    ar(sim::Marker{kBaselineMarker});

    ar(self.prop, self.tProp, self.cProp, self.lastReduceAt, self.activeCur,
       self.activeNext, self.activatedThisIteration);
    for (auto &stream : self.streams)
        ar(stream.records, stream.edgeCursor);

    auto &scatter = self.sc;
    ar(scatter.recordsTotal, scatter.expectedEdges, scatter.batchesTotal,
       scatter.batchesIssued, scatter.batchReady, scatter.commitCursor,
       scatter.recordsDone, scatter.edgesReduced, scatter.fetch);
    auto &apply = self.ap;
    ar(apply.sweepBegin, apply.sweepEnd, apply.batchesTotal,
       apply.batchesIssued, apply.batchIssuedParts, apply.batchPending,
       apply.commitCursor, apply.appliedCount, apply.pendingApplies,
       apply.pendingAuRecords, apply.auWriteCursor, apply.writes);

    ar(self.phase, self.curSlice, self.iteration, self.activeBuf, self.now,
       self.runStart, self.collectPeLoads, self.streamLoadThisIteration,
       self.streamLoadTrace);
    ar(self.vport, self.eport, self.wport, *self.hbm);
}

void
GraphicionadoAccel::saveState(sim::Serializer &s) const
{
    s.registerPointer(&vport);
    s.registerPointer(&eport);
    s.registerPointer(&wport);
    fields(*this, s);
}

void
GraphicionadoAccel::restoreState(sim::Deserializer &d)
{
    d.registerPointer(&vport);
    d.registerPointer(&eport);
    d.registerPointer(&wport);
    fields(*this, d);

    // The scheduling masks are derived state, never serialized.
    for (unsigned s = 0; s < cfg.numStreams; ++s)
        refreshStream(s);
}

} // namespace gds::baseline
