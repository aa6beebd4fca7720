#include "baseline/graphicionado.hh"

#include <algorithm>
#include <bit>
#include <ostream>

#include "common/bitutil.hh"
#include "core/detail.hh"
#include "sim/checkpoint.hh"

namespace gds::baseline
{

using core::detail::makeTag;
using core::detail::tagKind;
using core::detail::tagPayload;

namespace
{

constexpr unsigned applyBatchVerts = 128; ///< props per sweep request
constexpr unsigned auRecordBatch = 8;     ///< active records per store

/** The frame's shape of a validated Graphicionado configuration. */
core::VcpmAccel::Shape
giShape(const GraphicionadoConfig &c)
{
    if (const char *violation = configContractViolation(c))
        throw ConfigError(violation);
    // Edge records carry src_vid (+4 B); active records are (vid, prop).
    return {c.sliceCapacity(), 8u, 8u, c.maxIterations, c.numStreams, c.hbm};
}

} // namespace

GraphicionadoAccel::GraphicionadoAccel(const GraphicionadoConfig &config,
                                       const graph::Csr &g,
                                       algo::VcpmAlgorithm &algorithm,
                                       sim::Component *parent)
    : core::VcpmAccel("graphicionado", g, algorithm, giShape(config),
                      parent),
      cfg(config),
      statAtomicStalls(&statsGroup(), "atomicStalls",
                       "stream stalls from RAW conflicts"),
      statApplyOps(&statsGroup(), "applyOps", "Apply kernel executions"),
      statReduceOps(&statsGroup(), "reduceOps", "Reduce kernel executions"),
      statStreamEdges(&statsGroup(), "streamEdges",
                      "edges processed per stream", config.numStreams)
{
    streams.assign(cfg.numStreams, Stream(cfg.streamQueueRecords));
    heads.assign(cfg.numStreams, Head{});
    streamsHeadReady = makeBitMask(cfg.numStreams);
    streamsNeedingFetch = makeBitMask(cfg.numStreams);
    streamsAsleep = makeBitMask(cfg.numStreams);
    // Wakes fall 1..atomicPipelineDepth cycles ahead, so that many slots
    // plus the current one never alias; a power of two indexes by mask.
    wakeRing.assign(std::bit_ceil(cfg.atomicPipelineDepth + 1),
                    makeBitMask(cfg.numStreams));
}

void
GraphicionadoAccel::prepareRun()
{
    lastReduceAt.assign(fullGraph.numVertices(), 0);
}

void
GraphicionadoAccel::fillResult(core::RunResult &result) const
{
    result.atomicStalls =
        static_cast<std::uint64_t>(statAtomicStalls.value());
}

void
GraphicionadoAccel::registerDatapathProbes(obs::Sampler &sampler) const
{
    sampler.add("stream.backlog",
                [this] { return static_cast<double>(recordsHeld()); });
}

// ---------------------------------------------------------------------
// Scatter ("processing") phase.
// ---------------------------------------------------------------------

void
GraphicionadoAccel::startScatter()
{
    startRecordStream(cfg.vprefBatch);

    for (Stream &stream : streams)
        stream.records.clear();
    heads.assign(cfg.numStreams, Head{});
    clearStreamSchedule();
}

void
GraphicionadoAccel::clearStreamSchedule()
{
    for (BitMask *mask : {&streamsHeadReady, &streamsNeedingFetch,
                          &streamsAsleep})
        std::fill(mask->begin(), mask->end(), 0);
    for (BitMask &slot : wakeRing)
        std::fill(slot.begin(), slot.end(), 0);
}

void
GraphicionadoAccel::refreshStream(unsigned s)
{
    const Stream &stream = streams[s];
    bool head_ready = false;
    if (!stream.records.empty()) {
        const std::uint64_t head = stream.records.front();
        const ActiveRecord &r = active[head];
        const graph::Csr &sg = sliceGraph(curSlice);
        head_ready =
            edgeParts.table[head].ready || sg.outDegree(r.vid) == 0;
        Head &h = heads[s];
        if (head_ready && h.next == h.end) {
            const EdgeId first = sg.offsetOf(r.vid);
            h = Head{first, first + sg.outDegree(r.vid), r.prop};
        }
    }
    // An asleep stream's head is ready but cannot act before it wakes.
    assignBit(streamsHeadReady, s, head_ready && !testBit(streamsAsleep, s));
    const std::size_t lookahead = std::min<std::size_t>(
        stream.records.size(), cfg.streamLookahead);
    bool needs_fetch = false;
    for (std::size_t i = 0; i < lookahead && !needs_fetch; ++i) {
        const RecordFetch &f = edgeParts.table[stream.records[i]];
        needs_fetch = !f.ready && !f.allIssued;
    }
    assignBit(streamsNeedingFetch, s, needs_fetch);
}

void
GraphicionadoAccel::sleepStream(unsigned s, Cycle wake)
{
    assignBit(streamsHeadReady, s, false);
    assignBit(streamsAsleep, s, true);
    assignBit(wakeRing[wake & (wakeRing.size() - 1)], s, true);
}

std::uint32_t
GraphicionadoAccel::headCursor(unsigned s) const
{
    // Only a ready (or asleep) head has reduced edges; its register then
    // holds that record.
    if (!testBit(streamsHeadReady, s) && !testBit(streamsAsleep, s))
        return 0;
    const VertexId vid = active[streams[s].records.front()].vid;
    return static_cast<std::uint32_t>(heads[s].next -
                                      sliceGraph(curSlice).offsetOf(vid));
}

bool
GraphicionadoAccel::scatterDone() const
{
    return recordStreamDone();
}

void
GraphicionadoAccel::tickScatter()
{
    const graph::Csr &sg = sliceGraph(curSlice);

    // --- Wake the streams whose RAW window closes this cycle. Every
    // stream still asleep stalls this cycle, exactly as a naive re-check
    // would find. ---
    BitMask &due = wakeRing[now & (wakeRing.size() - 1)];
    std::uint64_t asleep = 0;
    for (std::size_t w = 0; w < due.size(); ++w) {
        streamsHeadReady[w] |= due[w];
        streamsAsleep[w] &= ~due[w];
        due[w] = 0;
        asleep += static_cast<std::uint64_t>(std::popcount(streamsAsleep[w]));
    }
    if (asleep != 0)
        statAtomicStalls += static_cast<double>(asleep);

    // --- Streams: one edge per cycle, stalling on RAW conflicts. Only
    // streams whose head record can act are visited (a head still waiting
    // for its edge data does nothing), in ascending stream order: the
    // reduce order PR's float sums depend on. A visit changes only its own
    // stream's bits, so each mask word is read once. Each visit reads the
    // head register and the edge's destination state only. ---
    std::uint64_t reduced = 0;
    for (std::size_t w = 0; w < streamsHeadReady.size(); ++w) {
        for (std::uint64_t bits = streamsHeadReady[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned s = static_cast<unsigned>(w * kMaskWordBits) +
                               static_cast<unsigned>(std::countr_zero(bits));
            Head &h = heads[s];
            if (h.next != h.end) {
                // The on-chip edge is read from the slice's CSR view.
                const VertexId dst = sg.edgeDest(h.next);
                // Atomic enforcement: stall while a conflicting update is
                // inside the reduce pipeline.
                const Cycle last = lastReduceAt[dst];
                if (now - last < cfg.atomicPipelineDepth && last != 0) {
                    ++statAtomicStalls;
                    sleepStream(s, last + cfg.atomicPipelineDepth);
                    continue;
                }
                const PropValue res = algo.processEdge(
                    h.prop, weighted ? sg.edgeWeight(h.next) : Weight{1});
                tProp[dst] = algo.reduce(tProp[dst], res);
                lastReduceAt[dst] = now;
                ++reduced;
                progressed(now);
                statStreamEdges[s] += 1;
                if (collectLoads)
                    loadThisIteration[s] += 1;
                if (++h.next != h.end)
                    continue;
            }
            // The head record has no edge left: retire it.
            streams[s].records.pop();
            ++recordStream.recordsDone;
            refreshStream(s);
        }
    }
    if (reduced != 0) {
        statReduceOps += static_cast<double>(reduced);
        statEdgesProcessed += static_cast<double>(reduced);
        recordStream.edgesReduced += reduced;
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
            RecordFetch &f = edgeParts.table[rec];
            if (f.ready || f.allIssued)
                continue;
            if (edgePort.inflight() >= cfg.edgeMaxInflight) {
                mem_blocked = true;
                break;
            }
            const VertexId vid = active[rec].vid;
            const std::uint64_t degree = sg.outDegree(vid);
            if (degree == 0) {
                f.ready = true;
                continue;
            }
            // +1 sentinel record read to detect the end of the list.
            const Addr begin = layout->edgeAddr(sliceEdgeStart[curSlice] +
                                                sg.offsetOf(vid));
            if (!issuePart(f, begin, (degree + 1) * layout->fmt.edgeBytes,
                           makeTag(Tag::EdgeFetch, rec), edgePort)) {
                mem_blocked = true;
                break;
            }
            ++issued;
        }
        refreshStream(s);
    }

    // --- Vpref: stream active records, hash-assign to streams. ---
    issueRecordBatches(cfg.vprefMaxInflight, makeTag(Tag::RecordBatch, 0));
    unsigned committed = 0;
    while (recordStream.commitCursor < recordStream.records &&
           committed < cfg.numStreams) {
        const std::uint64_t k = recordStream.commitCursor;
        if (!recordArrived(k))
            break;
        const unsigned s = active[k].vid % cfg.numStreams; // hash placement
        Stream &stream = streams[s];
        if (stream.records.size() >= cfg.streamQueueRecords)
            break; // head-of-line block: the imbalance bottleneck
        stream.records.push(k);
        refreshStream(s);
        ++recordStream.commitCursor;
        ++committed;
    }
}

// ---------------------------------------------------------------------
// Apply phase: full vertex sweep.
// ---------------------------------------------------------------------

void
GraphicionadoAccel::startApply()
{
    ap = ApplyState{};
    ap.sweepBegin = sliceBegin(curSlice);
    ap.sweepEnd = sliceEnd(curSlice);
    const std::uint64_t batches = ceilDiv<std::uint64_t>(
        ap.sweepEnd - ap.sweepBegin, applyBatchVerts);
    ap.batchIssuedParts.assign(batches, 0);
    ap.batchPending.assign(batches, 0);
    ap.commitCursor = ap.sweepBegin;
}

bool
GraphicionadoAccel::applyDone() const
{
    return ap.appliedCount == ap.sweepEnd - ap.sweepBegin &&
           ap.pendingApplies.empty() && storesDrained();
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
            ++statVertexUpdates;
            activate(v, apply_res);
            stores.bufferedRecords += sliceCount; // one record per slice
            // Intermittent, uncoalesced property store (4 B -> one 32 B
            // transaction): the update-irregularity cost GraphDynS
            // removes by write coalescing.
            stores.propWrites.push_back({layout->propAddr(v), bytesPerWord});
        } else if (algo.tPropResetsEachIteration()) {
            prop[v] = apply_res;
            stores.propWrites.push_back({layout->propAddr(v), bytesPerWord});
        }
        if (algo.tPropResetsEachIteration())
            tProp[v] = 0.0f;
        ++statApplyOps;
        ++ap.appliedCount;
        ++applied;
        progressed(now);
    }

    // --- Flush stores: active-record batches, then property writes. ---
    flushRecordStores(auRecordBatch,
                      ap.appliedCount == ap.sweepEnd - ap.sweepBegin,
                      makeTag(Tag::Store, 0));
    flushPropWrites(makeTag(Tag::Store, 1));

    // --- Sweep prefetch: stream every vertex's property (and cProp). ---
    const std::uint8_t parts_needed = hasConstProp ? 2 : 1;
    while (ap.batchesIssued < ap.batchPending.size() &&
           recordPort.inflight() < cfg.applyMaxInflight) {
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
                             makeTag(Tag::ApplyBatch, b), &recordPort))
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
GraphicionadoAccel::datapathBusy() const
{
    return !ap.pendingApplies.empty() || !stores.propWrites.empty() ||
           stores.bufferedRecords > 0;
}

void
GraphicionadoAccel::datapathState(std::ostream &os) const
{
    if (phase == Phase::ApplyPhase) {
        os << " apply[applied=" << ap.appliedCount << "/"
           << (ap.sweepEnd - ap.sweepBegin)
           << " pending=" << ap.pendingApplies.size()
           << " writes=" << stores.propWrites.size() << "]";
    }
    os << " queues[streams=" << recordsHeld() << "]";
}

void
GraphicionadoAccel::drainResponses()
{
    while (recordPort.hasResponse()) {
        const std::uint64_t tag = recordPort.popResponse();
        const std::uint64_t payload = tagPayload(tag);
        switch (tagKind<Tag>(tag)) {
          case Tag::RecordBatch:
            recordStream.batchReady[payload] = 1;
            break;
          case Tag::ApplyBatch:
            gds_assert(ap.batchPending[payload] > 0, "stray apply batch");
            --ap.batchPending[payload];
            break;
          default:
            panic("unexpected tag on the Graphicionado record port");
        }
    }
    while (edgePort.hasResponse()) {
        const std::uint64_t tag = edgePort.popResponse();
        const std::uint64_t rec = tagPayload(tag);
        gds_assert(tagKind<Tag>(tag) == Tag::EdgeFetch, "bad edge-port tag");
        // The stream head reads the edges from the CSR view; arrival only
        // flips readiness, which may make the record's stream head ready.
        if (partArrived(edgeParts.table[rec]))
            refreshStream(active[rec].vid % cfg.numStreams);
    }
}

bool
GraphicionadoAccel::scatterQuiescent() const
{
    // Streams: a head record with edge data (or none to fetch) acts next
    // tick -- reducing, RAW-stalling, or retiring -- and an asleep stream
    // counts a stall every tick. Only "waiting for edge data" is a pure
    // wait, and those heads have neither bit.
    if (anyBit(streamsHeadReady) || anyBit(streamsAsleep))
        return false;
    // Edge prefetch: with in-flight budget available, any lookahead record
    // still needing its fetch either issues a request or (degree 0) is
    // marked ready on the spot.
    if (edgePort.inflight() < cfg.edgeMaxInflight &&
        anyBit(streamsNeedingFetch))
        return false;
    // Vpref: an issuable record batch, or a commit neither blocked on
    // batch data nor on a full stream queue.
    if (recordBatchIssuable(cfg.vprefMaxInflight))
        return false;
    return !(nextCommitArrived() &&
             streams[active[recordStream.commitCursor].vid % cfg.numStreams]
                     .records.size() < cfg.streamQueueRecords);
}

bool
GraphicionadoAccel::applyQuiescent() const
{
    // Queued applies execute next tick; queued stores issue requests.
    if (!ap.pendingApplies.empty() ||
        storesPending(auRecordBatch,
                      ap.appliedCount == ap.sweepEnd - ap.sweepBegin))
        return false;
    // Sweep prefetch: an open window always attempts an access.
    if (ap.batchesIssued < ap.batchPending.size() &&
        recordPort.inflight() < cfg.applyMaxInflight)
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

namespace
{

constexpr std::uint32_t kBaselineMarker = 0x47494f31; // "GIO1"

} // namespace

template <typename Self, typename Ar>
void
GraphicionadoAccel::fields(Self &self, Ar &ar)
{
    ar(sim::Marker{kBaselineMarker});
    ar(self.lastReduceAt);
    for (unsigned s = 0; s < self.streams.size(); ++s) {
        // The head's progress travels as an edge cursor into its record.
        // On restore the cursor is parked in the head register, which
        // restoreDatapath() then rebuilds.
        std::uint32_t cursor = 0;
        if constexpr (!Ar::kRestoring)
            cursor = self.headCursor(s);
        ar(self.streams[s].records, cursor);
        if constexpr (Ar::kRestoring)
            self.heads[s] = Head{cursor, 0, 0};
    }

    auto &apply = self.ap;
    ar(apply.sweepBegin, apply.sweepEnd, apply.batchesIssued,
       apply.batchIssuedParts, apply.batchPending, apply.commitCursor,
       apply.appliedCount, apply.pendingApplies);
}

void
GraphicionadoAccel::saveDatapath(sim::Serializer &s) const
{
    fields(*this, s);
}

void
GraphicionadoAccel::restoreDatapath(sim::Deserializer &d)
{
    fields(*this, d);

    // Head registers, scheduling masks and the wake ring are derived
    // state, never serialized. No stream comes back asleep: a ready head
    // still inside its RAW window stalls on the first tick and is parked
    // again, counting the one stall the asleep count would have.
    clearStreamSchedule();
    for (unsigned s = 0; s < cfg.numStreams; ++s) {
        const EdgeId cursor = heads[s].next; // parked there by fields()
        heads[s] = Head{};
        refreshStream(s); // loads a ready head at its first edge
        gds_require(cursor == 0 || heads[s].next + cursor < heads[s].end,
                    CheckpointError,
                    "stream %u edge cursor %llu past its head record", s,
                    static_cast<unsigned long long>(cursor));
        heads[s].next += cursor;
    }
}

} // namespace gds::baseline
