/**
 * @file
 * GraphDynS Scatter phase (Fig. 3c): active-record streaming (Vpref),
 * exact edge prefetching (Epref), workload-balanced dispatch (DEs),
 * SIMT edge processing (PEs), crossbar routing, and the zero-stall
 * store-reduce pipeline (UEs).
 */

#include "core/detail.hh"
#include "core/gds_accel.hh"

#include "common/debug.hh"

namespace gds::core
{

using detail::Tag;
using detail::makeTag;
using detail::tagKind;
using detail::tagPayload;
using detail::maxRequestBytes;

void
GdsAccel::startScatter()
{
    DPRINTF(Phase, "iter %u slice %u: Scatter starts (%zu active)",
            iteration, curSlice, activeCur[curSlice].size());
    if (curSlice == 0)
        traceBegin("iteration:" + std::to_string(iteration));
    traceBegin("scatter");
    phase = Phase::ScatterPhase;
    const auto &records = activeCur[curSlice];

    sc = ScatterState{};
    sc.recordsTotal = records.size();
    for (const ActiveRecord &r : records)
        sc.expectedEdges += r.edgeCnt;
    sc.batchesTotal = ceilDiv<std::uint64_t>(sc.recordsTotal,
                                             cfg.vprefBatch);
    sc.batchReady.assign(sc.batchesTotal, 0);
    sc.fetch.assign(sc.recordsTotal, RecordFetch{});

    // Sliced, non-resetting algorithms restore this slice's temporary
    // properties into the Vertex Buffer from the property array (see
    // DESIGN.md: min/max algorithms satisfy tProp==f(prop) after Apply,
    // so the fill is timing/traffic only -- the functional tProp array
    // is already correct).
    if (sliceCount > 1 && !algo.tPropResetsEachIteration()) {
        sc.fillCursor = layout->propAddr(sliceBegin(curSlice));
        sc.fillBytesLeft =
            static_cast<std::uint64_t>(sliceEnd(curSlice) -
                                       sliceBegin(curSlice)) *
            bytesPerWord;
    }

    for (De &de : des)
        de.chunkCursor = 0;
}

bool
GdsAccel::scatterDone() const
{
    return sc.recordsDispatched == sc.recordsTotal &&
           sc.edgesReduced == sc.expectedEdges &&
           sc.fillBytesLeft == 0 && sc.fillOutstanding == 0;
}

void
GdsAccel::tickScatter()
{
    // Consumers before producers: a value produced in cycle N is consumed
    // in cycle N+1 at the earliest.
    tickUes();
    tickPesScatter();
    tickDispatchers();
    tickEpref();
    tickVpref();
}

bool
GdsAccel::scatterQuiescent() const
{
    // Mirrors tickScatter() stage by stage: true only when every stage
    // would provably do nothing but per-cycle wait accounting (which
    // skipCycles() replays) and, crucially, would attempt no HBM access --
    // even a refused access draws fault-injector randomness.
    // perfectMem is resolved once per run (GdsAccel::run), so this
    // predicate and dispatchChunk() can never disagree about it.

    // A drained phase transitions at the end of its next tick.
    if (scatterDone())
        return false;

    // PEs and UEs: pending flits would route, queued edges would process,
    // queued updates would reduce. The aggregate occupancy counters stand
    // in for scanning every engine.
    if (scFlitsBuffered != 0 || scEdgesQueued != 0 || ueFlitsQueued != 0)
        return false;
    // DEs: a head record with edges but no data waits (statDeWaitReady);
    // anything else makes progress. With every PE queue empty a ready head
    // always dispatches, so "blocked on a full PE queue" cannot occur here.
    for (const De &de : des) {
        if (de.vpb.empty())
            continue;
        if (perfectMem)
            return false; // dispatch would materialize the record
        const std::uint64_t rec = de.vpb.front();
        if (activeCur[curSlice][rec].edgeCnt == 0 || sc.fetch[rec].ready)
            return false;
    }
    // Epref: walk the same window tickEpref() scans. Skipping a record
    // for buffer budget is pure; reaching any other case pops a zero-edge
    // record or attempts an access.
    if (!sc.eprefPending.empty() &&
        eportRead.inflight() < cfg.eprefMaxInflight) {
        bool budget_blocked = false;
        const std::size_t window =
            std::min<std::size_t>(sc.eprefPending.size(), 8);
        for (std::size_t w = 0; w < window; ++w) {
            const std::uint64_t rec = sc.eprefPending[w];
            const ActiveRecord &r = activeCur[curSlice][rec];
            const RecordFetch &f = sc.fetch[rec];
            if (r.edgeCnt == 0)
                return false;
            if (!f.reserved &&
                (budget_blocked ||
                 (sc.bufferedEdges > 0 &&
                  sc.bufferedEdges + r.edgeCnt > cfg.eprefBufferEdges))) {
                budget_blocked = true;
                continue;
            }
            return false;
        }
    }
    // Vpref: the tProp fill and the record stream would issue; a commit
    // goes through unless blocked on batch data or a full VPB RAM.
    if (sc.fillBytesLeft > 0 &&
        vportRead.inflight() < cfg.vprefMaxInflight)
        return false;
    if (sc.batchesIssued < sc.batchesTotal &&
        vportRead.inflight() < cfg.vprefMaxInflight)
        return false;
    if (sc.commitCursor < sc.recordsTotal) {
        const std::uint64_t k = sc.commitCursor;
        if (sc.batchReady[k / cfg.vprefBatch] &&
            des[k % cfg.numDispatchers].vpb.canPush())
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Vpref: stream active-vertex records (and the sliced-run tProp fill).
// ---------------------------------------------------------------------

void
GdsAccel::tickVpref()
{
    // tProp fill traffic (sequential stream of this slice's properties).
    while (sc.fillBytesLeft > 0 &&
           vportRead.inflight() < cfg.vprefMaxInflight) {
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(sc.fillBytesLeft, maxRequestBytes));
        if (!hbm->access(sc.fillCursor, chunk, false,
                         makeTag(Tag::TPropFill, 0), &vportRead))
            break;
        sc.fillCursor += chunk;
        sc.fillBytesLeft -= chunk;
        ++sc.fillOutstanding;
    }

    // Issue active-record stream requests (batches of vprefBatch records).
    while (sc.batchesIssued < sc.batchesTotal &&
           vportRead.inflight() < cfg.vprefMaxInflight) {
        const std::uint64_t b = sc.batchesIssued;
        const std::uint64_t first = b * cfg.vprefBatch;
        const std::uint64_t count =
            std::min<std::uint64_t>(cfg.vprefBatch,
                                    sc.recordsTotal - first);
        const Addr addr = layout->activeRecordAddr(activeBuf, first);
        const unsigned bytes = static_cast<unsigned>(
            count * layout->fmt.activeRecordBytes);
        if (!hbm->access(addr, bytes, false, makeTag(Tag::RecordBatch, b),
                         &vportRead))
            break;
        ++sc.batchesIssued;
    }

    // Commit records in arrival order into the per-DE VPB RAMs
    // (RAM id = arrival order % number of DEs, Sec. 5.2.2) and announce
    // them to Epref.
    unsigned committed = 0;
    while (sc.commitCursor < sc.recordsTotal &&
           committed < cfg.numDispatchers) {
        const std::uint64_t k = sc.commitCursor;
        if (!sc.batchReady[k / cfg.vprefBatch]) {
            ++statCommitBlockedBatch;
            break;
        }
        De &de = des[k % cfg.numDispatchers];
        if (!de.vpb.canPush()) {
            ++statCommitBlockedVpb;
            break;
        }
        de.vpb.push(k);
        sc.eprefPending.push_back(k);
        ++sc.commitCursor;
        ++committed;
    }
}

// ---------------------------------------------------------------------
// Epref: fetch edge data. Exact mode knows (offset, edgeCnt) from the
// active record, streams precisely those bytes, and coalesces adjacent
// lists into large requests. Non-exact mode (EP ablation off) models the
// prior-design alternative the paper describes: the offset comes from a
// large on-chip cache (Graphicionado's solution, so no dependent memory
// read), but fetches are per-record, cacheline-granular (64 B) and never
// coalesced -- wasting bandwidth and in-flight request slots.
// ---------------------------------------------------------------------

void
GdsAccel::materializeRecord(std::uint64_t rec_index)
{
    // The edge data now "on chip" is read from the slice's CSR view at
    // dispatch time (see dispatchChunk); arrival only flips readiness.
    sc.fetch[rec_index].ready = true;
}

void
GdsAccel::tickEpref()
{
    // Scan a small window of pending records each cycle. Offset lookups
    // (non-exact mode) may overlap freely; reorder-buffer budget is
    // granted strictly in FIFO order so that a deep record of a DE can
    // never starve that DE's own head-of-queue record. In exact mode,
    // adjacent records with contiguous edge ranges are coalesced into one
    // request (Sec. 5.2.1: "coalesce memory accesses to edge data and
    // maximize the number of in-flight memory requests").
    unsigned issued = 0;
    bool budget_blocked = false;
    std::size_t w = 0;
    while (w < std::min<std::size_t>(sc.eprefPending.size(), 8) &&
           issued < 4 && eportRead.inflight() < cfg.eprefMaxInflight) {
        const std::uint64_t rec = sc.eprefPending[w];
        const ActiveRecord &r = activeCur[curSlice][rec];
        RecordFetch &f = sc.fetch[rec];

        if (r.edgeCnt == 0) {
            f.ready = true;
            sc.eprefPending.erase(sc.eprefPending.begin() +
                                  static_cast<std::ptrdiff_t>(w));
            continue;
        }

        // Budget is granted FIFO; one oversize record may run alone.
        const auto over_budget = [this](std::uint64_t extra) {
            return sc.bufferedEdges > 0 &&
                   sc.bufferedEdges + extra > cfg.eprefBufferEdges;
        };
        if (!f.reserved && (budget_blocked || over_budget(r.edgeCnt))) {
            budget_blocked = true;
            ++w;
            continue;
        }

        const unsigned edge_bytes = layout->fmt.edgeBytes;
        const Addr begin =
            layout->edgeAddr(sliceEdgeStart[curSlice] + r.offset);
        const std::uint64_t r_bytes =
            static_cast<std::uint64_t>(r.edgeCnt) * edge_bytes;

        if (cfg.exactPrefetch && r_bytes <= maxRequestBytes &&
            f.bytesIssued == 0) {
            // Coalescing path: greedily absorb following pending records
            // whose edge ranges continue this one. Mutations happen only
            // after the request is accepted.
            std::uint64_t batch_bytes = r_bytes;
            std::uint64_t batch_edges = r.edgeCnt;
            std::size_t members = 1;
            while (w + members < sc.eprefPending.size()) {
                const std::uint64_t nrec = sc.eprefPending[w + members];
                const ActiveRecord &nr = activeCur[curSlice][nrec];
                if (nr.edgeCnt == 0)
                    break;
                const ActiveRecord &pr =
                    activeCur[curSlice][sc.eprefPending[w + members - 1]];
                if (nr.offset != pr.offset + pr.edgeCnt)
                    break; // not contiguous in the edge array
                const std::uint64_t n_bytes =
                    static_cast<std::uint64_t>(nr.edgeCnt) * edge_bytes;
                if (batch_bytes + n_bytes > maxRequestBytes)
                    break;
                if (over_budget(batch_edges + nr.edgeCnt))
                    break;
                batch_bytes += n_bytes;
                batch_edges += nr.edgeCnt;
                ++members;
            }
            const std::uint64_t batch_id = sc.fetchBatches.size();
            if (!hbm->access(begin,
                             static_cast<unsigned>(batch_bytes), false,
                             makeTag(Tag::EdgeBatch, batch_id),
                             &eportRead))
                break; // memory backpressure
            std::vector<std::uint64_t> group;
            group.reserve(members);
            for (std::size_t m = 0; m < members; ++m) {
                const std::uint64_t mrec = sc.eprefPending[w + m];
                RecordFetch &mf = sc.fetch[mrec];
                mf.reserved = true;
                mf.allIssued = true;
                group.push_back(mrec);
            }
            sc.bufferedEdges += batch_edges;
            sc.fetchBatches.push_back(std::move(group));
            sc.eprefPending.erase(
                sc.eprefPending.begin() + static_cast<std::ptrdiff_t>(w),
                sc.eprefPending.begin() +
                    static_cast<std::ptrdiff_t>(w + members));
            ++issued;
            continue;
        }

        // Large or non-exact records: issue bounded parts.
        if (!f.reserved) {
            f.reserved = true;
            sc.bufferedEdges += r.edgeCnt;
        }
        Addr part_begin = begin;
        Addr part_end = begin + r_bytes;
        if (!cfg.exactPrefetch) {
            // Over-fetch to 64 B cacheline granularity.
            part_begin = alignDown(part_begin, 64);
            part_end = alignUp(part_end, 64);
        }
        const std::uint64_t total = part_end - part_begin;
        const unsigned chunk = static_cast<unsigned>(
            std::min<std::uint64_t>(total - f.bytesIssued,
                                    maxRequestBytes));
        if (!hbm->access(part_begin + f.bytesIssued, chunk, false,
                         makeTag(Tag::EdgeFetch, rec), &eportRead)) {
            break; // memory backpressure: stop issuing entirely
        }
        f.bytesIssued += chunk;
        ++f.parts;
        ++issued;
        if (f.bytesIssued == total) {
            f.allIssued = true;
            sc.eprefPending.erase(sc.eprefPending.begin() +
                                  static_cast<std::ptrdiff_t>(w));
        } else {
            ++w;
        }
    }
}

// ---------------------------------------------------------------------
// Dispatcher: workload-balanced threshold dispatch (Sec. 5.1.1).
// ---------------------------------------------------------------------

void
GdsAccel::dispatchChunk(De &de, unsigned de_index)
{
    const std::uint64_t rec = de.vpb.front();
    const ActiveRecord &r = activeCur[curSlice][rec];
    RecordFetch &f = sc.fetch[rec];

    if (r.edgeCnt == 0) {
        de.vpb.pop();
        de.chunkCursor = 0;
        ++sc.recordsDispatched;
        return;
    }

    if (!f.ready && perfectMem)
        materializeRecord(rec);
    if (!f.ready) {
        ++statDeWaitReady;
        return;
    }

    // Edge i of the record, read from the slice's CSR view.
    const graph::Csr &sg = sliceGraph(curSlice);
    const auto edge = [&](std::uint32_t i) {
        const EdgeId e = r.offset + i;
        return EdgeTask{sg.edgeDest(e),
                        weighted ? sg.edgeWeight(e) : Weight{1}, r.prop};
    };

    if (!cfg.workloadBalance) {
        // Ablation: Graphicionado-style hash placement -- the whole edge
        // list stays on this DE's own PE, scheduled one edge at a time.
        Pe &pe = pes[de_index];
        std::uint32_t &cursor = de.chunkCursor;
        unsigned moved = 0;
        while (cursor < r.edgeCnt && moved < cfg.nSimt &&
               pe.edgeQueue.canPush()) {
            pe.edgeQueue.push(edge(cursor));
            ++scEdgesQueued;
            ++cursor;
            ++moved;
            ++statSchedulingOps;
        }
        if (cursor == r.edgeCnt) {
            de.vpb.pop();
            de.chunkCursor = 0;
            ++sc.recordsDispatched;
            if (f.reserved) {
                sc.bufferedEdges -= r.edgeCnt;
                f.reserved = false;
            }
        }
        return;
    }

    // Workload-balanced dispatch: lists below eThreshold go wholesale to
    // the paired PE; larger lists are split into eListSize chunks spread
    // round-robin over all PEs. One scheduling operation per cycle per DE.
    const bool split = r.edgeCnt >= cfg.eThreshold;
    const std::uint32_t chunk_len =
        split ? cfg.eListSize : r.edgeCnt;
    const std::uint32_t begin = de.chunkCursor * chunk_len;
    gds_assert(begin < r.edgeCnt, "dispatch cursor overran the edge list");
    const std::uint32_t len =
        std::min<std::uint32_t>(chunk_len, r.edgeCnt - begin);
    const unsigned target =
        split ? (de_index + de.chunkCursor) % cfg.numPes : de_index;

    Pe &pe = pes[target];
    if (pe.edgeQueue.size() + len > pe.edgeQueue.capacity()) {
        ++statDeBlockedPe;
        return; // backpressure: retry next cycle
    }

    for (std::uint32_t i = 0; i < len; ++i)
        pe.edgeQueue.push(edge(begin + i));
    scEdgesQueued += len;
    ++statSchedulingOps;
    ++de.chunkCursor;

    if (begin + len == r.edgeCnt) {
        DPRINTF(Dispatch, "DE%u dispatched v%u (%u edges, %s)", de_index,
                r.vid, r.edgeCnt, split ? "split" : "whole");
        de.vpb.pop();
        de.chunkCursor = 0;
        ++sc.recordsDispatched;
        if (f.reserved) {
            sc.bufferedEdges -= r.edgeCnt;
            f.reserved = false;
        }
    }
}

void
GdsAccel::tickDispatchers()
{
    for (unsigned i = 0; i < cfg.numDispatchers; ++i) {
        if (!des[i].vpb.empty())
            dispatchChunk(des[i], i);
        else
            ++statDeIdle;
    }
}

// ---------------------------------------------------------------------
// Processor: S2V vectorization + SIMT Process_Edge, results routed
// through the crossbar to the UEs.
// ---------------------------------------------------------------------

void
GdsAccel::tickPesScatter()
{
    // Each PE drives nSimt crossbar input lanes; refused flits wait in a
    // small per-PE output FIFO (one register per lane plus elasticity), so
    // a single hot UE does not freeze the whole SIMT vector -- only
    // sustained contention backpressures edge processing.
    const std::size_t flit_buffer_cap = 4u * cfg.nSimt;
    // Nothing buffered and nothing queued: no lane can do anything, and
    // with no tryRoute() calls this cycle the crossbar's per-cycle grant
    // state is never read, so skipping beginCycle() is state-identical.
    if (scFlitsBuffered == 0 && scEdgesQueued == 0)
        return;
    xbar->beginCycle();
    for (unsigned p = 0; p < cfg.numPes; ++p) {
        Pe &pe = pes[p];

        // Route up to nSimt buffered flits; blocked ones retry next cycle
        // (lanes are independent, so later flits may overtake a blocked
        // one -- Reduce is commutative, Sec. 5.2.3). One stable
        // compaction pass: routed flits leave, the rest keep their order.
        // numUes is a power of two, so the UE is the dst's low bits.
        std::vector<ResultFlit> &flits = pe.pendingFlits;
        unsigned routed = 0;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < flits.size(); ++i) {
            const ResultFlit flit = flits[i];
            const unsigned ue = flit.dst & (cfg.numUes - 1);
            if (routed < cfg.nSimt && ues[ue].inbox.canPush() &&
                xbar->tryRoute(ue)) {
                ues[ue].inbox.push(flit);
                ++routed;
            } else {
                flits[kept++] = flit;
            }
        }
        flits.resize(kept);
        ueFlitsQueued += routed;
        scFlitsBuffered -= routed;

        // S2V: assemble up to nSimt edges (merging small lists happens
        // naturally because the workload queue is edge-granular). Stall
        // only when the output FIFO cannot absorb a full vector.
        if (pe.pendingFlits.size() + cfg.nSimt > flit_buffer_cap)
            continue;
        const unsigned n = static_cast<unsigned>(
            std::min<std::size_t>(cfg.nSimt, pe.edgeQueue.size()));
        if (n == 0)
            continue;
        for (unsigned lane = 0; lane < n; ++lane) {
            const EdgeTask task = pe.edgeQueue.pop();
            const PropValue value =
                algo.processEdge(task.uProp, task.weight);
            pe.pendingFlits.push_back(ResultFlit{task.dst, value});
        }
        scEdgesQueued -= n;
        scFlitsBuffered += n;
        statEdgesProcessed += n;
        statPeEdges[p] += n;
        if (collectPeLoads)
            peLoadThisIteration[p] += n;
    }
}

// ---------------------------------------------------------------------
// Updater: store-reduce through the Reduce Pipeline (Sec. 5.2.3).
// ---------------------------------------------------------------------

void
GdsAccel::reduceFlit(const ResultFlit &flit)
{
    const PropValue old_value = tProp[flit.dst];
    const PropValue new_value = algo.reduce(old_value, flit.value);
    if (new_value != old_value) {
        tProp[flit.dst] = new_value;
        ++statTPropMods;
        if (cfg.updateScheduling)
            readyGroup[groupIndexOf(flit.dst)] = 1;
    }
    ++statReduceOps;
    statVbAccesses += 2; // read + write
    ++sc.edgesReduced;
    progressed(now);
}

void
GdsAccel::tickUes()
{
    if (ueFlitsQueued == 0)
        return;
    for (Ue &ue : ues) {
        if (ue.inbox.empty())
            continue;
        const ResultFlit &flit = ue.inbox.front();

        if (!cfg.zeroStallAtomics) {
            // Graphicionado-style: stall while a conflicting update is
            // still inside the 3-stage read/execute/write pipeline.
            bool conflict = false;
            for (unsigned k = 0; k < 2; ++k) {
                if (ue.pipeAddr[k] == flit.dst &&
                    now - ue.pipeCycle[k] < 3)
                    conflict = true;
            }
            if (conflict) {
                ++statAtomicStalls;
                continue;
            }
            ue.pipeAddr[1] = ue.pipeAddr[0];
            ue.pipeCycle[1] = ue.pipeCycle[0];
            ue.pipeAddr[0] = flit.dst;
            ue.pipeCycle[0] = now;
        }

        reduceFlit(flit);
        ue.inbox.pop();
        --ueFlitsQueued;
    }
}

} // namespace gds::core
