/**
 * @file
 * Cycle-level HBM 1.0 model (the role Ramulator plays in the paper's
 * methodology).
 *
 * Geometry: N independent channels (32 by default; 32 x 16 B/cycle at the
 * 1 GHz accelerator clock = 512 GB/s peak, Table 3), each with its own
 * command issue slot, data bus, and banks. Requests are split into 32 B
 * transactions, queued per channel, and scheduled FR-FCFS (row hits first
 * within a lookahead window). Row misses pay precharge + activate + CAS;
 * hits pay CAS only; periodic refresh blocks a channel for tRFC every
 * tREFI. These are exactly the behaviours the paper's results lean on:
 * streaming accesses ride open rows at near-peak bandwidth while random
 * accesses suffer row misses and queueing.
 *
 * Requesters own a Port; responses (request tags) appear in the port's
 * response queue once every transaction of the request has completed.
 *
 * Host cost is O(1) per transaction and nothing per idle channel: a tick
 * visits only channels with queued transactions whose issue gate has
 * passed, fires refreshes from a cursor, and retires one timing-wheel
 * bucket of completions.
 */

#pragma once

#include <deque>
#include <vector>

#include "sim/component.hh"
#include "sim/fault.hh"
#include "sim/queues.hh"

namespace gds::mem
{

/** HBM 1.0 timing/geometry, in accelerator cycles (1 cycle = 1 ns). */
struct HbmConfig
{
    unsigned numChannels = 32;
    unsigned banksPerChannel = 16;
    unsigned rowBytes = 1024;
    unsigned txBytes = 32;  ///< transaction (burst) granularity
    Cycle tBurst = 2;       ///< data-bus occupancy per transaction
    Cycle tCl = 14;         ///< CAS latency
    Cycle tRcd = 14;        ///< activate-to-column
    Cycle tRp = 14;         ///< precharge
    Cycle tCcd = 2;         ///< column-to-column, same bank
    Cycle tRrd = 4;         ///< activate-to-activate, same channel
    Cycle tRefi = 3900;     ///< all-bank refresh interval per channel
    Cycle tRfcPerBank = 60; ///< per-bank refresh duration (staggered)
    unsigned queueDepth = 64;   ///< per-channel transaction queue
    unsigned frfcfsWindow = 8;  ///< FR-FCFS lookahead

    /** Peak bandwidth in bytes per cycle. */
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(numChannels) * txBytes / tBurst;
    }
};

/** Asynchronous memory interface handed to each requester. */
class HbmPort
{
  public:
    /** True when a completed request tag is waiting. */
    bool hasResponse() const { return !responses.empty(); }

    /** Pop the oldest completed request tag. */
    std::uint64_t
    popResponse()
    {
        gds_assert(!responses.empty(), "no response pending");
        const std::uint64_t tag = responses.front();
        responses.pop_front();
        return tag;
    }

    /** Requests issued but not yet fully completed. */
    std::uint64_t inflight() const { return _inflight; }

    /**
     * Checkpoint fields: pending response tags plus the in-flight count.
     * The owning requester lists its ports among its own fields (the
     * Hbm serializes port *references* through the pointer registry, not
     * port contents).
     */
    template <typename Self, typename Ar>
    static void
    fields(Self &port, Ar &ar)
    {
        ar(port.responses, port._inflight);
    }

  private:
    friend class Hbm;
    std::deque<std::uint64_t> responses;
    std::uint64_t _inflight = 0;
};

/** The memory device. Tick once per accelerator cycle. */
class Hbm : public sim::Component
{
  public:
    Hbm(const HbmConfig &config, sim::Component *parent);

    /**
     * Try to enqueue a request. Returns false (and changes nothing) when
     * any target channel queue lacks space; the caller retries next cycle.
     *
     * @param addr byte address
     * @param bytes request length (split into 32 B transactions)
     * @param is_write write request (timed like a read, counted separately)
     * @param tag requester-chosen id returned on completion
     * @param port response destination
     */
    bool access(Addr addr, unsigned bytes, bool is_write, std::uint64_t tag,
                HbmPort *port);

    void tick() override;
    bool busy() const override { return inflightTx > 0; }

    /**
     * Earliest tick with an externally visible event: the min over the
     * earliest *request*-finishing completion (the cycle a port response
     * appears) and, per queued transaction in each channel's FR-FCFS
     * window, its bank-ready / activate gate. Intermediate transaction
     * completions of a multi-burst request are internal bookkeeping and
     * do not bound the horizon (skipCycles() retires them in bulk);
     * refreshes likewise only delay issue and are replayed exactly.
     */
    Cycle nextEventCycle() const override;

    /**
     * Replay @p cycles pure-wait ticks: retire every intermediate
     * transaction completion maturing in the window at its exact cycle
     * (piecewise-integrating occupancy around each), fire every scheduled
     * refresh, advance the local clock. Asserts no request finishes
     * inside the window; issue gates never fall inside it because they
     * bound the horizon the window was derived from.
     */
    void skipCycles(Cycle cycles) override;

    bool supportsFastForward() const override { return true; }

    std::string debugState() const override;

    /**
     * Checkpoint every live timing structure: per-channel queues, bank
     * rows, bus/activate/refresh clocks, the request slab (ports travel
     * as pointer-registry references — register every HbmPort on the
     * Serializer/Deserializer before calling), the free list, the
     * pending transaction completions as a (cycle, push order) list, and
     * the request-finish heap. Restore rebuilds the completion wheel from
     * that list, so same-cycle completions retire in the pre-checkpoint
     * order; the busy-channel mask, issue gates and refresh cursor are
     * re-derived. Geometry and timing come from the constructor's config
     * and are not serialized.
     */
    void saveState(sim::Serializer &s) const override;
    void restoreState(sim::Deserializer &d) override;

    /** The one checkpoint field list behind saveState()/restoreState(). */
    template <typename Self, typename Ar>
    static void fields(Self &self, Ar &ar);

    /** Activity = transactions issued (counter-track unit: 32 B bursts). */
    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(statTransactions.value());
    }

    /**
     * Attach (or detach, with nullptr) a fault injector. When attached,
     * responses may be delayed or dropped and requests refused admission
     * according to the injector's plan.
     */
    void setFaultInjector(sim::FaultInjector *injector) { fault = injector; }

    const HbmConfig &config() const { return cfg; }

    /** Total bytes moved (reads + writes, transaction-granular). */
    double totalBytes() const
    {
        return statReadBytes.value() + statWriteBytes.value();
    }

    /** Cumulative bytes read (sampler probe; transaction-granular). */
    double readBytes() const { return statReadBytes.value(); }

    /** Cumulative bytes written (sampler probe; transaction-granular). */
    double writeBytes() const { return statWriteBytes.value(); }

    /** Achieved / peak bandwidth over the elapsed simulated time. */
    double bandwidthUtilization() const;

    /** Row-hit fraction of all issued transactions. */
    double rowHitRate() const;

    /** Cycles this model has been ticked. */
    Cycle elapsed() const { return now; }

    /** Mean number of in-flight transactions per cycle. */
    double
    meanOccupancy() const
    {
        return now == 0 ? 0.0 : statOccupancySum.value() / now;
    }

    /** Mean request latency (accept to last-transaction completion). */
    double
    meanLatency() const
    {
        return statRequests.value() == 0.0
                   ? 0.0
                   : statLatencySum.value() / statRequests.value();
    }

  private:
    struct Request
    {
        std::uint64_t tag;
        HbmPort *port;
        unsigned pendingTx;
        bool isWrite;
        Cycle issuedAt;
        bool faultChecked = false; ///< injector consulted for this request
        unsigned queuedTx = 0;     ///< transactions not yet issued
        Cycle finishAt = 0;        ///< max completion time issued so far

        /** The port travels as a pointer-registry reference. */
        template <typename Self, typename Ar>
        static void
        fields(Self &r, Ar &ar)
        {
            ar(r.tag, r.port, r.pendingTx, r.isWrite, r.issuedAt,
               r.faultChecked, r.queuedTx, r.finishAt);
        }
    };

    struct Transaction
    {
        std::uint32_t requestIndex;
        std::uint32_t bank;
        std::uint64_t row;
    };

    struct Bank
    {
        std::uint64_t openRow = noRow;
        Cycle nextReady = 0;
    };

    struct Channel
    {
        Channel(unsigned queue_depth, unsigned banks_per_channel)
            : queue(queue_depth), banks(banks_per_channel)
        {}

        sim::BoundedQueue<Transaction> queue;
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        Cycle nextActivateAt = 0; ///< tRRD gate
        Cycle nextRefreshAt = 0;
        unsigned refreshBank = 0; ///< round-robin per-bank refresh index
        /**
         * Earliest cycle anything in the FR-FCFS window could issue, set
         * when a scan finds nothing issuable; tick() skips the channel
         * until then. Refreshes only delay issue, so it stays a lower
         * bound; a transaction entering the window resets it. Derived
         * state, not serialized: restore leaves it 0 (scan next tick).
         */
        Cycle issueGate = 0;

        template <typename Self, typename Ar>
        static void
        fields(Self &c, Ar &ar)
        {
            ar(c.queue, c.banks, c.busFreeAt, c.nextActivateAt,
               c.nextRefreshAt, c.refreshBank);
        }
    };

    struct Completion
    {
        Cycle at;
        std::uint32_t requestIndex;
        /** Min-heap order of requestFinishes (by time only). */
        bool operator>(const Completion &o) const { return at > o.at; }

        template <typename Self, typename Ar>
        static void
        fields(Self &c, Ar &ar)
        {
            ar(c.at, c.requestIndex);
        }
    };

    static constexpr std::uint64_t noRow = ~0ULL;

    /** Map a transaction-aligned address to (channel, bank, row). */
    void mapAddress(Addr tx_addr, unsigned &channel, std::uint32_t &bank,
                    std::uint64_t &row) const;

    /** Channel of a transaction-aligned address (hot-path helper). */
    unsigned
    txChannel(Addr tx_addr) const
    {
        return static_cast<unsigned>(
            pow2Geometry ? tx_addr & (cfg.numChannels - 1)
                         : tx_addr % cfg.numChannels);
    }

    void serviceChannel(unsigned ch);
    void finishCompletions();

    /**
     * Fire every channel refresh scheduled at or before @p last, in
     * schedule order, each starting at its scheduled cycle. A tick
     * passes its own cycle: refreshes never fall behind the clock, so
     * each one due then is scheduled exactly then.
     */
    void fireRefreshes(Cycle last);

    /** Push a request-finish event onto the requestFinishes heap. */
    void pushFinish(Cycle at, std::uint32_t request_index);

    /** Queue a transaction completion at cycle @p at (>= now). */
    void scheduleCompletion(Cycle at, std::uint32_t request_index);

    /** Double the wheel until it spans @p ahead cycles past now. */
    void growWheel(Cycle ahead);

    /** Pending completions in (cycle, push order): the checkpoint image
     *  of the wheel. */
    std::vector<Completion> pendingCompletions() const;

    /** Rebuild the wheel and re-derive busy mask, issue gates and the
     *  refresh cursor after fields() restored everything else. */
    void rebuildAfterRestore(const std::vector<Completion> &pending);

    void
    markBusy(unsigned ch)
    {
        busyChannels[ch / 64] |= std::uint64_t{1} << (ch % 64);
    }

    // gds-ckpt: skip(cfg) construction-time geometry/timing config; the
    // restore path verifies the config hash instead of serializing it
    HbmConfig cfg;
    /**
     * Address mapping runs once per 32 B transaction, so with the default
     * all-power-of-two geometry the channel/bank/row splits use shifts and
     * masks instead of 64-bit divisions by runtime values.
     */
    // gds-ckpt: skip(pow2Geometry) derived from cfg in the constructor
    bool pow2Geometry = false;
    // gds-ckpt: skip(channelShift) derived from cfg in the constructor
    unsigned channelShift = 0;
    // gds-ckpt: skip(rowShift) derived from cfg in the constructor
    unsigned rowShift = 0;  ///< log2(rowBytes / txBytes)
    // gds-ckpt: skip(bankShift) derived from cfg in the constructor
    unsigned bankShift = 0; ///< log2(banksPerChannel)
    std::vector<Channel> channels;
    std::vector<Request> requests;       ///< slab of live requests
    std::vector<std::uint32_t> freeList; ///< recycled request slots
    /**
     * Transaction completions, one bucket per cycle: bucket
     * `at & (size - 1)` holds the request index of every transaction
     * completing at cycle `at`, in push (issue) order. Every pending
     * completion lies in [now, now + size), so a bucket holds one cycle;
     * a push that many cycles ahead or more doubles the wheel first. The
     * pending count is inflightTx - queuedTxTotal.
     */
    // gds-ckpt: skip(wheel) travels as the (cycle, push order) list that
    // fields() builds with pendingCompletions() and restore rebuilds from
    std::vector<std::vector<std::uint32_t>> wheel;
    // gds-ckpt: skip(retiring) per-tick scratch: the bucket being retired,
    // swapped out of the wheel and empty between ticks
    std::vector<std::uint32_t> retiring;
    /**
     * Externally visible completion events, a min-heap by time: one entry
     * per fully-issued request, stamped with its last transaction's
     * completion time (the cycle its port response appears). Intermediate
     * transaction completions are internal bookkeeping the fast-forward
     * path replays in bulk, so only these bound the idle horizon. Entries
     * are pruned by time once they mature (a delayed-fault redelivery
     * pushes a fresh entry at the deferred time).
     */
    std::vector<Completion> requestFinishes;
    /** One bit per channel with queued transactions; tick() and
     *  nextEventCycle() walk the set bits in ascending channel order. */
    // gds-ckpt: skip(busyChannels) derived from the channel queues on
    // restore
    std::vector<std::uint64_t> busyChannels;
    /**
     * Channel whose refresh is due next. Every channel refreshes every
     * tREFI / banksPerChannel cycles from a start staggered in channel
     * order, so refreshes come due in cyclic channel order forever.
     */
    // gds-ckpt: skip(refreshCursor) derived from the channels' refresh
    // clocks on restore
    unsigned refreshCursor = 0;
    // gds-ckpt: skip(demandScratch) per-call scratch, overwritten before
    // every use in access()
    std::vector<unsigned> demandScratch; ///< per-channel admission counts
    std::uint64_t inflightTx = 0;
    std::uint64_t queuedTxTotal = 0; ///< not-yet-issued tx across channels
    Cycle now = 0;
    // gds-ckpt: skip(fault) non-owning injector hook, re-attached by the
    // harness after restore (fault campaigns are not checkpointable)
    sim::FaultInjector *fault = nullptr;

    stats::Scalar statReadBytes;
    stats::Scalar statWriteBytes;
    stats::Scalar statRowHits;
    stats::Scalar statRowMisses;
    stats::Scalar statRefreshes;
    stats::Scalar statDataBusBusy;
    stats::Scalar statTransactions;
    stats::Scalar statOccupancySum; ///< sum over cycles of in-flight tx
    stats::Scalar statLatencySum;   ///< total request latency (cycles)
    stats::Scalar statRequests;     ///< completed requests
    stats::Scalar statFaultDropped; ///< responses dropped by fault injection
    stats::Scalar statFaultDelayed; ///< responses delayed by fault injection
    stats::Scalar statFaultRejected;///< requests refused by fault injection
};

} // namespace gds::mem
