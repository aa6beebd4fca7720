/**
 * @file
 * GraphDynS Apply phase (Fig. 3d): Ready-to-Update-Bitmap-driven selective
 * vertex prefetch, strided vertex-list dispatch, SIMT Apply on the PEs
 * reading the Vertex Buffer, and the Activating Unit's coalesced
 * double-buffered stores of properties and next-iteration active records.
 */

#include "core/detail.hh"
#include "core/gds_accel.hh"

#include <algorithm>

#include "common/debug.hh"

namespace gds::core
{

using detail::makeTag;

VertexId
GdsAccel::groupPartEnd(VertexId v) const
{
    const std::uint64_t group_end =
        (groupIndexOf(v) + 1) * std::uint64_t{cfg.rbGroupSize};
    return static_cast<VertexId>(
        std::min<std::uint64_t>(group_end, sliceEnd(curSlice)));
}

void
GdsAccel::startApply()
{
    ap.reset();

    // Groups are global (v / rbGroupSize), so a slice boundary may cut
    // one: Apply takes each ready group's part inside the slice,
    // [max(lo, g * G), min(hi, (g + 1) * G)).
    const VertexId lo = sliceBegin(curSlice);
    const VertexId hi = sliceEnd(curSlice);
    std::uint64_t selected_verts = 0;
    const auto take = [&](std::uint64_t g) {
        const VertexId b = static_cast<VertexId>(
            std::max<std::uint64_t>(lo, g * cfg.rbGroupSize));
        gds_assert(groupIndexOf(b) == g && b < hi,
                   "ready group %llu outside the slice",
                   static_cast<unsigned long long>(g));
        const VertexId len = groupPartEnd(b) - b;
        ap.groups.push_back(b);
        ap.fetch.push_back(GroupFetch{.remainingVerts = len});
        selected_verts += len;
    };
    if (cfg.updateScheduling) {
        // This slice's Scatter listed each group it marked; taking them
        // consumes their Ready-to-Update bits, which only the next
        // Scatter of the slice can set again.
        std::sort(readyList.begin(), readyList.end());
        for (const std::uint64_t g : readyList) {
            readyGroup[g] = 0;
            take(g);
        }
        readyList.clear();
    } else {
        for (std::uint64_t g = groupIndexOf(lo); g <= groupIndexOf(hi - 1);
             ++g)
            take(g);
    }
    statUpdatesSkipped += static_cast<double>((hi - lo) - selected_verts);
    DPRINTF(Apply, "%zu ready groups selected, %llu vertices skipped",
            ap.groups.size(),
            static_cast<unsigned long long>((hi - lo) - selected_verts));
}

bool
GdsAccel::applyDone() const
{
    return ap.commitCursor == ap.groups.size() &&
           ap.groupsCompleted == ap.groups.size() && storesDrained();
}

void
GdsAccel::tickApply()
{
    tickPesApply();
    tickApplyCommit();
    tickApplyPrefetch();
    // AU: coalesced off-chip stores -- the property write-backs, then the
    // active records in auBatchRecords batches (double-buffered queues);
    // sub-batch remainders flush once every group has been applied.
    flushPropWrites(makeTag(Tag::PropWrite, 0));
    flushRecordStores(cfg.auBatchRecords,
                      ap.groupsCompleted == ap.groups.size(),
                      makeTag(Tag::AuWrite, 0));
}

bool
GdsAccel::applyQuiescent() const
{
    // Mirrors tickApply() stage by stage: true only when each stage would
    // do nothing and attempt no HBM access.

    // PEs: a matured VB-stage entry applies; an empty stage slot pulls
    // from a non-empty list queue. Idle PEs can do neither.
    for (unsigned p = nextSetBit(pesApplyBusy, 0); p < cfg.numPes;
         p = nextSetBit(pesApplyBusy, p + 1)) {
        const Pe &pe = pes[p];
        if (pe.vbStage.ready(now))
            return false;
        if (!pe.applyQueue.empty() && pe.vbStage.canPush())
            return false;
    }
    // Commit: the head group pushes lists (or retires) once fully fetched,
    // unless its next list's PE queue is full.
    if (ap.commitCursor < ap.groups.size()) {
        const GroupFetch &gf = ap.fetch[ap.commitCursor];
        const unsigned total_reqs = 1 + sliceCount + (hasConstProp ? 1 : 0);
        if (gf.requestsIssued >= total_reqs && gf.outstanding == 0) {
            const std::uint32_t lists =
                ceilDiv(gf.remainingVerts, cfg.vListSize);
            if (gf.listsPushed >= lists)
                return false; // would retire the group
            if (pes[gf.listsPushed % cfg.numPes].applyQueue.canPush())
                return false; // would push a list
        }
    }
    // Prefetch: an open request window always attempts an access (the
    // group at the window head is never fully issued between ticks).
    if (ap.groupsRequested < ap.groups.size() &&
        ap.groupsRequested - ap.commitCursor < cfg.applyMaxInflightGroups)
        return false;
    // AU: pending property write-backs or a flushable record batch.
    return !storesPending(cfg.auBatchRecords,
                          ap.groupsCompleted == ap.groups.size());
}

// ---------------------------------------------------------------------
// Vpref (Apply): prefetch exactly the ready groups' vertex data --
// properties, offset-array runs for edgeCnt computation (one per slice,
// because activation needs every slice's edge counts), and the constant
// property for PR.
// ---------------------------------------------------------------------

void
GdsAccel::tickApplyPrefetch()
{
    while (ap.groupsRequested < ap.groups.size() &&
           ap.groupsRequested - ap.commitCursor <
               cfg.applyMaxInflightGroups) {
        const std::uint64_t g = ap.groupsRequested;
        const VertexId b = ap.groups[g];
        const std::uint32_t len = ap.fetch[g].remainingVerts;

        // All requests of a group are issued in one go: its property run,
        // an offset run of len + 1 entries per slice and, when the
        // algorithm has one, its constant-property run. If the memory
        // refuses one, the group resumes there next cycle.
        GroupFetch &gf = ap.fetch[g];
        unsigned &done = gf.requestsIssued;
        const unsigned total_reqs = 1 + sliceCount + (hasConstProp ? 1 : 0);
        while (done < total_reqs) {
            const bool offsets = done != 0 && done <= sliceCount;
            const Addr addr = done == 0 ? layout->propAddr(b)
                              : offsets ? layout->offsetAddr(b)
                                        : layout->cPropAddr(b);
            if (!hbm->access(addr, (offsets ? len + 1 : len) * bytesPerWord,
                             false, makeTag(Tag::GroupData, g), &recordPort))
                break;
            ++done;
            ++gf.outstanding;
        }
        if (done < total_reqs)
            break;
        ++ap.groupsRequested;
    }
}

// ---------------------------------------------------------------------
// DE (Apply): once a group's data has arrived, generate vListSize vertex
// lists and dispatch them with the fixed stride mapping (list j -> PE
// j % numPes), which by construction avoids Vertex Buffer conflicts.
// ---------------------------------------------------------------------

void
GdsAccel::tickApplyCommit()
{
    const unsigned total_reqs = 1 + sliceCount + (hasConstProp ? 1 : 0);
    while (ap.commitCursor < ap.groups.size()) {
        const std::uint64_t g = ap.commitCursor;
        GroupFetch &gf = ap.fetch[g];
        if (gf.requestsIssued < total_reqs || gf.outstanding > 0)
            break; // data not yet (fully requested and) on chip
        const VertexId b = ap.groups[g];
        const std::uint32_t len = gf.remainingVerts;
        const std::uint32_t lists = ceilDiv(len, cfg.vListSize);
        while (gf.listsPushed < lists) {
            const std::uint32_t j = gf.listsPushed;
            Pe &pe = pes[j % cfg.numPes];
            if (!pe.applyQueue.canPush())
                return; // backpressure: resume here next cycle
            const VertexId start = b + j * cfg.vListSize;
            const std::uint16_t count = static_cast<std::uint16_t>(
                std::min<std::uint32_t>(cfg.vListSize,
                                        len - j * cfg.vListSize));
            pe.applyQueue.push(ApplyList{
                start, count, static_cast<std::uint32_t>(g)});
            assignBit(pesApplyBusy, j % cfg.numPes, true);
            ++gf.listsPushed;
        }
        ++ap.commitCursor;
    }
}

// ---------------------------------------------------------------------
// PE (Apply): two-stage pipeline -- VB read (vbLatency cycles), then the
// SIMT Apply kernel over the whole list, results handed to the AUs.
// ---------------------------------------------------------------------

void
GdsAccel::tickPesApply()
{
    // Only PEs holding a list, in ascending order (activation order).
    for (unsigned p = nextSetBit(pesApplyBusy, 0); p < cfg.numPes;
         p = nextSetBit(pesApplyBusy, p + 1)) {
        Pe &pe = pes[p];
        if (pe.vbStage.ready(now)) {
            const ApplyList list = pe.vbStage.pop(now);
            appliedChanged.clear();
            algo.applyRange(prop, tProp, cProp, list.startVid, list.count,
                            appliedChanged);
            for (const VertexId v : appliedChanged)
                activate(v, prop[v]);
            const std::size_t changed = appliedChanged.size();
            stores.bufferedRecords += changed * sliceCount; // per slice
            statVertexUpdates += static_cast<double>(changed);
            statApplyOps += list.count;
            statVbAccesses += list.count;
            progressed(now, list.count);

            GroupFetch &gf = ap.fetch[list.group];
            gds_assert(gf.remainingVerts >= list.count,
                       "group vertex accounting underflow");
            gf.remainingVerts -= list.count;
            if (gf.remainingVerts == 0) {
                // Whole group applied: write the property run back
                // (stored regardless of the per-vertex condition flag to
                // keep the store sequential, Sec. 5.3.2).
                const VertexId b = ap.groups[list.group];
                const std::uint32_t len = groupPartEnd(b) - b;
                stores.propWrites.push_back(
                    {layout->propAddr(b), len * bytesPerWord});
                ++ap.groupsCompleted;
            }
        } else if (!pe.applyQueue.empty() && pe.vbStage.canPush()) {
            pe.vbStage.push(pe.applyQueue.pop(), now);
        }
        if (pe.applyQueue.empty() && pe.vbStage.empty())
            assignBit(pesApplyBusy, p, false);
    }
}

} // namespace gds::core
