/**
 * @file
 * GraphDynS Scatter phase (Fig. 3c): active-record streaming (Vpref),
 * exact edge prefetching (Epref), workload-balanced dispatch (DEs),
 * SIMT edge processing (PEs), crossbar routing, and the zero-stall
 * store-reduce pipeline (UEs).
 */

#include "core/detail.hh"
#include "core/gds_accel.hh"

#include <array>

#include "common/debug.hh"

namespace gds::core
{

using detail::makeTag;
using detail::maxRequestBytes;

namespace
{

constexpr std::size_t kEprefWindow = 8;     ///< pending records scanned
constexpr unsigned kEprefIssuesPerCycle = 4; ///< edge requests per cycle

} // namespace

void
GdsAccel::startScatter()
{
    startRecordStream(cfg.vprefBatch);
    sc.reset(recordStream.records);

    // Sliced, non-resetting algorithms restore this slice's temporary
    // properties into the Vertex Buffer from the property array (see
    // DESIGN.md: min/max algorithms satisfy tProp==f(prop) after Apply,
    // so the fill is timing/traffic only -- the functional tProp array
    // is already correct). Every other run has no fill to fetch.
    if (sliceCount == 1 || algo.tPropResetsEachIteration())
        sc.fill.allIssued = sc.fill.ready = true;
}

bool
GdsAccel::scatterDone() const
{
    return recordStreamDone() && sc.fill.ready;
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

    // PEs and UEs: pending flits would route, queued edges would process,
    // queued updates would reduce. The aggregate occupancy counters stand
    // in for scanning every engine.
    if (scFlitsBuffered != 0 || scEdgesQueued != 0 || ueFlitsQueued != 0)
        return false;
    // DEs: a head record with edges but no data waits (statDeWaitReady);
    // anything else makes progress. With every PE queue empty a ready head
    // always dispatches, so "blocked on a full PE queue" cannot occur here.
    const graph::Csr &sg = sliceGraph(curSlice);
    for (const De &de : des) {
        if (de.vpb.empty())
            continue;
        if (perfectMem)
            return false; // dispatch would materialize the record
        const std::uint64_t rec = de.vpb.front();
        if (sg.outDegree(active[rec].vid) == 0 ||
            edgeParts.table[rec].ready)
            return false;
    }
    // Epref: walk the same window tickEpref() scans. Skipping a record
    // for buffer budget is pure; reaching any other case pops a zero-edge
    // record or attempts an access.
    const std::uint64_t pending = eprefPendingCount();
    if (pending != 0 && edgePort.inflight() < cfg.eprefMaxInflight) {
        bool budget_blocked = false;
        const std::uint64_t window =
            std::min<std::uint64_t>(pending, kEprefWindow);
        for (std::uint64_t w = 0; w < window; ++w) {
            const std::uint64_t rec = eprefPending(w);
            const std::uint64_t edge_cnt = sg.outDegree(active[rec].vid);
            if (edge_cnt == 0)
                return false;
            if (sc.reserved[rec] == 0 &&
                (budget_blocked || eprefOverBudget(edge_cnt))) {
                budget_blocked = true;
                continue;
            }
            return false;
        }
    }
    // Vpref: the tProp fill and the record stream would issue; a commit
    // goes through unless blocked on batch data or a full VPB RAM.
    if (!sc.fill.allIssued && recordPort.inflight() < cfg.vprefMaxInflight)
        return false;
    if (recordBatchIssuable(cfg.vprefMaxInflight))
        return false;
    return !(nextCommitArrived() &&
             des[recordStream.commitCursor % cfg.numPes].vpb.canPush());
}

// ---------------------------------------------------------------------
// Vpref: stream active-vertex records (and the sliced-run tProp fill).
// ---------------------------------------------------------------------

void
GdsAccel::tickVpref()
{
    // tProp fill traffic (sequential stream of this slice's properties).
    const VertexId lo = sliceBegin(curSlice);
    const std::uint64_t fill_bytes =
        std::uint64_t{sliceEnd(curSlice) - lo} * bytesPerWord;
    while (!sc.fill.allIssued &&
           recordPort.inflight() < cfg.vprefMaxInflight) {
        if (!issuePart(sc.fill, layout->propAddr(lo), fill_bytes,
                       makeTag(Tag::TPropFill, 0), recordPort))
            break;
    }

    // Issue active-record stream requests (batches of vprefBatch records).
    issueRecordBatches(cfg.vprefMaxInflight, makeTag(Tag::RecordBatch, 0));

    // Commit records in arrival order into the per-DE VPB RAMs
    // (RAM id = arrival order % number of DEs, Sec. 5.2.2); a committed
    // record is pending for Epref.
    unsigned committed = 0;
    while (recordStream.commitCursor < recordStream.records &&
           committed < cfg.numPes) {
        const std::uint64_t k = recordStream.commitCursor;
        if (!recordArrived(k)) {
            ++statCommitBlockedBatch;
            break;
        }
        De &de = des[k % cfg.numPes];
        if (!de.vpb.canPush()) {
            ++statCommitBlockedVpb;
            break;
        }
        if (de.vpb.empty())
            ++desWithRecords;
        de.vpb.push(k);
        ++recordStream.commitCursor;
        ++committed;
    }
}

// ---------------------------------------------------------------------
// Epref: fetch edge data. Exact mode knows (offset, edgeCnt) from the
// active record (the host reads them from the slice CSR), streams
// precisely those bytes, and coalesces adjacent lists into large
// requests. Non-exact mode (EP ablation off) models the prior-design
// alternative the paper describes: the offset comes from a large on-chip
// cache (Graphicionado's solution, so no dependent memory read), but
// fetches are per-record, cacheline-granular (64 B) and never coalesced
// -- wasting bandwidth and in-flight request slots. Arrival only flips a
// record's readiness; dispatch reads its edges from the slice's CSR view.
// ---------------------------------------------------------------------

std::uint64_t
GdsAccel::eprefPendingCount() const
{
    return sc.eprefKept.size() + (recordStream.commitCursor - sc.eprefNext);
}

std::uint64_t
GdsAccel::eprefPending(std::uint64_t i) const
{
    return i < sc.eprefKept.size() ? sc.eprefKept[i]
                                   : sc.eprefNext + (i - sc.eprefKept.size());
}

bool
GdsAccel::eprefOverBudget(std::uint64_t extra) const
{
    return sc.bufferedEdges > 0 &&
           sc.bufferedEdges + extra > cfg.eprefBufferEdges;
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
    const graph::Csr &sg = sliceGraph(curSlice);
    const std::uint64_t pending = eprefPendingCount();
    std::array<std::uint64_t, kEprefWindow> kept{};
    std::size_t w = 0;      // records this scan keeps pending
    std::uint64_t seen = 0; // pending records this scan has passed
    unsigned issued = 0;
    bool budget_blocked = false;
    while (w < kEprefWindow && seen < pending &&
           issued < kEprefIssuesPerCycle &&
           edgePort.inflight() < cfg.eprefMaxInflight) {
        const std::uint64_t rec = eprefPending(seen);
        const VertexId vid = active[rec].vid;
        const std::uint64_t edge_cnt = sg.outDegree(vid);
        RecordFetch &f = edgeParts.table[rec];

        if (edge_cnt == 0) {
            f.ready = true;
            ++seen;
            continue;
        }

        // Budget is granted FIFO; one oversize record may run alone.
        if (sc.reserved[rec] == 0 &&
            (budget_blocked || eprefOverBudget(edge_cnt))) {
            budget_blocked = true;
            kept[w++] = rec;
            ++seen;
            continue;
        }

        const unsigned edge_bytes = layout->fmt.edgeBytes;
        const Addr begin =
            layout->edgeAddr(sliceEdgeStart[curSlice] + sg.offsetOf(vid));
        const std::uint64_t r_bytes = edge_cnt * edge_bytes;

        if (cfg.exactPrefetch && r_bytes <= maxRequestBytes &&
            f.bytesIssued == 0) {
            // Coalescing path: greedily absorb following pending records
            // whose edge ranges continue this one. Mutations happen only
            // after the request is accepted.
            std::uint64_t batch_bytes = r_bytes;
            std::uint64_t batch_edges = edge_cnt;
            EdgeId batch_end = sg.offsetOf(vid) + edge_cnt;
            std::uint64_t members = 1;
            while (seen + members < pending) {
                const VertexId nvid = active[eprefPending(seen + members)].vid;
                const std::uint64_t n_cnt = sg.outDegree(nvid);
                if (n_cnt == 0)
                    break;
                if (sg.offsetOf(nvid) != batch_end)
                    break; // not contiguous in the edge array
                const std::uint64_t n_bytes = n_cnt * edge_bytes;
                if (batch_bytes + n_bytes > maxRequestBytes)
                    break;
                if (eprefOverBudget(batch_edges + n_cnt))
                    break;
                batch_bytes += n_bytes;
                batch_edges += n_cnt;
                batch_end += n_cnt;
                ++members;
            }
            const std::uint64_t batch_id = sc.fetchBatches.size();
            if (!hbm->access(begin,
                             static_cast<unsigned>(batch_bytes), false,
                             makeTag(Tag::EdgeBatch, batch_id),
                             &edgePort))
                break; // memory backpressure
            std::vector<std::uint64_t> group;
            group.reserve(members);
            for (std::uint64_t m = 0; m < members; ++m) {
                const std::uint64_t mrec = eprefPending(seen + m);
                sc.reserved[mrec] = 1;
                edgeParts.table[mrec].allIssued = true;
                group.push_back(mrec);
            }
            sc.bufferedEdges += batch_edges;
            sc.fetchBatches.push_back(std::move(group));
            seen += members;
            ++issued;
            continue;
        }

        // Large or non-exact records: issue bounded parts.
        if (sc.reserved[rec] == 0) {
            sc.reserved[rec] = 1;
            sc.bufferedEdges += edge_cnt;
        }
        Addr part_begin = begin;
        Addr part_end = begin + r_bytes;
        if (!cfg.exactPrefetch) {
            // Over-fetch to 64 B cacheline granularity.
            part_begin = alignDown(part_begin, 64);
            part_end = alignUp(part_end, 64);
        }
        if (!issuePart(f, part_begin, part_end - part_begin,
                       makeTag(Tag::EdgeFetch, rec), edgePort))
            break; // memory backpressure: stop issuing entirely
        ++issued;
        if (!f.allIssued)
            kept[w++] = rec;
        ++seen;
    }

    // The records this scan passed leave the pending sequence; the ones
    // it kept go back to its front, in order.
    const std::uint64_t from_kept =
        std::min<std::uint64_t>(seen, sc.eprefKept.size());
    sc.eprefNext += seen - from_kept;
    sc.eprefKept.erase(sc.eprefKept.begin(),
                       sc.eprefKept.begin() +
                           static_cast<std::ptrdiff_t>(from_kept));
    sc.eprefKept.insert(sc.eprefKept.begin(), kept.begin(),
                        kept.begin() + static_cast<std::ptrdiff_t>(w));
}

// ---------------------------------------------------------------------
// Dispatcher: workload-balanced threshold dispatch (Sec. 5.1.1).
// ---------------------------------------------------------------------

void
GdsAccel::retireRecord(De &de, std::uint64_t rec, std::uint64_t edge_cnt)
{
    de.vpb.pop();
    if (de.vpb.empty())
        --desWithRecords;
    de.chunkCursor = 0;
    ++recordStream.recordsDone;
    if (sc.reserved[rec] != 0) {
        sc.bufferedEdges -= edge_cnt;
        sc.reserved[rec] = 0;
    }
}

void
GdsAccel::dispatchChunk(De &de, unsigned de_index)
{
    const std::uint64_t rec = de.vpb.front();
    const ActiveRecord &r = active[rec];
    RecordFetch &f = edgeParts.table[rec];
    const graph::Csr &sg = sliceGraph(curSlice);
    const auto edge_cnt = static_cast<std::uint32_t>(sg.outDegree(r.vid));

    if (edge_cnt == 0) {
        retireRecord(de, rec, 0);
        return;
    }

    if (perfectMem)
        f.ready = true; // the edges materialize on demand
    if (!f.ready) {
        ++statDeWaitReady;
        return;
    }

    // Edge i of the record, read from the slice's CSR view.
    const EdgeId first = sg.offsetOf(r.vid);
    const auto edge = [&](std::uint32_t i) {
        const EdgeId e = first + i;
        return EdgeTask{sg.edgeDest(e),
                        weighted ? sg.edgeWeight(e) : Weight{1}, r.prop};
    };

    if (!cfg.workloadBalance) {
        // Ablation: Graphicionado-style hash placement -- the whole edge
        // list stays on this DE's own PE, scheduled one edge at a time.
        Pe &pe = pes[de_index];
        std::uint32_t &cursor = de.chunkCursor;
        unsigned moved = 0;
        while (cursor < edge_cnt && moved < cfg.nSimt &&
               pe.edgeQueue.canPush()) {
            pe.edgeQueue.push(edge(cursor));
            ++scEdgesQueued;
            ++cursor;
            ++moved;
            ++statSchedulingOps;
        }
        if (cursor == edge_cnt)
            retireRecord(de, rec, edge_cnt);
        return;
    }

    // Workload-balanced dispatch: lists below eThreshold go wholesale to
    // the paired PE; larger lists are split into eListSize chunks spread
    // round-robin over all PEs. One scheduling operation per cycle per DE.
    const bool split = edge_cnt >= cfg.eThreshold;
    const std::uint32_t chunk_len =
        split ? cfg.eListSize : edge_cnt;
    const std::uint32_t begin = de.chunkCursor * chunk_len;
    gds_assert(begin < edge_cnt, "dispatch cursor overran the edge list");
    const std::uint32_t len =
        std::min<std::uint32_t>(chunk_len, edge_cnt - begin);
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

    if (begin + len == edge_cnt) {
        DPRINTF(Dispatch, "DE%u dispatched v%u (%u edges, %s)", de_index,
                r.vid, edge_cnt, split ? "split" : "whole");
        retireRecord(de, rec, edge_cnt);
    }
}

void
GdsAccel::tickDispatchers()
{
    // A DE's VPB RAM empties only through its own dispatch.
    statDeIdle += static_cast<double>(cfg.numPes - desWithRecords);
    for (unsigned i = 0; i < cfg.numPes; ++i) {
        if (!des[i].vpb.empty())
            dispatchChunk(des[i], i);
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
                assignBit(uesNonEmpty, ue, true);
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
        if (collectLoads)
            loadThisIteration[p] += n;
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
        if (cfg.updateScheduling) {
            const std::uint64_t g = groupIndexOf(flit.dst);
            if (readyGroup[g] == 0) {
                readyGroup[g] = 1;
                readyList.push_back(g);
            }
        }
    }
    ++statReduceOps;
    statVbAccesses += 2; // read + write
    ++recordStream.edgesReduced;
    progressed(now);
}

void
GdsAccel::tickUes()
{
    if (ueFlitsQueued == 0)
        return;
    // Only UEs with a queued flit, in ascending order. Reducing never
    // pushes into an inbox, so each mask word can be read once up front.
    for (std::size_t w = 0; w < uesNonEmpty.size(); ++w) {
        for (std::uint64_t bits = uesNonEmpty[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned u = static_cast<unsigned>(w * kMaskWordBits) +
                               static_cast<unsigned>(std::countr_zero(bits));
            Ue &ue = ues[u];
            const ResultFlit &flit = ue.inbox.front();

            if (!cfg.zeroStallAtomics) {
                // Graphicionado-style: stall while a conflicting update
                // is still inside the 3-stage read/execute/write pipeline.
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
            if (ue.inbox.empty())
                assignBit(uesNonEmpty, u, false);
        }
    }
}

} // namespace gds::core
