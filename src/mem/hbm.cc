#include "mem/hbm.hh"

#include "common/bitutil.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"

namespace gds::mem
{

namespace
{

/**
 * Expose the protected heap container of a std::priority_queue so
 * checkpoints copy its layout verbatim. Rebuilding the heap on restore
 * (make_heap, or draining and re-pushing) may reorder elements that
 * compare equal — Completion ordering is by time only — and the pop
 * order among equal-time completions is heap-layout-dependent, which
 * would break bit-exact resume.
 */
template <typename T, typename C, typename Cmp>
struct PqOpener : std::priority_queue<T, C, Cmp>
{
    static const C &
    container(const std::priority_queue<T, C, Cmp> &q)
    {
        return q.*&PqOpener::c;
    }

    static C &
    container(std::priority_queue<T, C, Cmp> &q)
    {
        return q.*&PqOpener::c;
    }
};

constexpr std::uint32_t kHbmMarker = 0x48424d31; // "HBM1"

} // namespace

Hbm::Hbm(const HbmConfig &config, sim::Component *parent)
    : sim::Component("hbm", parent),
      cfg(config),
      statReadBytes(&statsGroup(), "readBytes", "bytes read from HBM"),
      statWriteBytes(&statsGroup(), "writeBytes", "bytes written to HBM"),
      statRowHits(&statsGroup(), "rowHits", "row-buffer hits"),
      statRowMisses(&statsGroup(), "rowMisses", "row-buffer misses"),
      statRefreshes(&statsGroup(), "refreshes", "refresh commands issued"),
      statDataBusBusy(&statsGroup(), "dataBusBusy",
                      "channel-cycles of data bus occupancy"),
      statTransactions(&statsGroup(), "transactions",
                       "32 B transactions serviced"),
      statOccupancySum(&statsGroup(), "occupancySum",
                       "sum over cycles of in-flight transactions"),
      statLatencySum(&statsGroup(), "latencySum",
                     "total request latency in cycles"),
      statRequests(&statsGroup(), "requests", "completed requests"),
      statFaultDropped(&statsGroup(), "faultDropped",
                       "responses dropped by fault injection"),
      statFaultDelayed(&statsGroup(), "faultDelayed",
                       "responses delayed by fault injection"),
      statFaultRejected(&statsGroup(), "faultRejected",
                        "requests refused by fault injection")
{
    gds_assert(isPow2(cfg.txBytes), "txBytes must be a power of two");
    gds_assert(cfg.rowBytes % cfg.txBytes == 0,
               "rowBytes must be a multiple of txBytes");
    const std::uint64_t tx_per_row = cfg.rowBytes / cfg.txBytes;
    pow2Geometry = isPow2(cfg.numChannels) && isPow2(tx_per_row) &&
                   isPow2(cfg.banksPerChannel);
    if (pow2Geometry) {
        channelShift = log2Floor(cfg.numChannels);
        rowShift = log2Floor(tx_per_row);
        bankShift = log2Floor(cfg.banksPerChannel);
    }
    channels.resize(cfg.numChannels);
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        channels[ch].banks.resize(cfg.banksPerChannel);
        // Stagger refresh across channels to avoid artificial beats.
        channels[ch].nextRefreshAt =
            cfg.tRefi / cfg.banksPerChannel / cfg.numChannels * (ch + 1);
    }
}

void
Hbm::mapAddress(Addr tx_addr, unsigned &channel, std::uint32_t &bank,
                std::uint64_t &row) const
{
    // Fine-grained channel interleave at transaction granularity: a
    // sequential stream spreads across all channels, and within a channel
    // walks consecutive columns of one row before moving on (near-perfect
    // row locality for streams, row misses for random access).
    if (pow2Geometry) {
        channel = static_cast<unsigned>(tx_addr & (cfg.numChannels - 1));
        const std::uint64_t rowGlobal = (tx_addr >> channelShift) >> rowShift;
        bank = static_cast<std::uint32_t>(rowGlobal &
                                          (cfg.banksPerChannel - 1));
        row = rowGlobal >> bankShift;
        return;
    }
    channel = static_cast<unsigned>(tx_addr % cfg.numChannels);
    const std::uint64_t local = tx_addr / cfg.numChannels;
    const std::uint64_t txPerRow = cfg.rowBytes / cfg.txBytes;
    const std::uint64_t rowGlobal = local / txPerRow;
    bank = static_cast<std::uint32_t>(rowGlobal % cfg.banksPerChannel);
    row = rowGlobal / cfg.banksPerChannel;
}

bool
Hbm::access(Addr addr, unsigned bytes, bool is_write, std::uint64_t tag,
            HbmPort *port)
{
    gds_assert(bytes > 0, "zero-length memory request");
    gds_assert(port != nullptr, "request needs a response port");

    // Injected admission backpressure: refuse like a full queue would.
    if (fault && fault->rejectRequest()) {
        ++statFaultRejected;
        if (obs::Tracer *t = obs::activeTracer())
            t->instant(t->track(tracePath()), "fault:reject", now);
        return false;
    }

    const Addr first_tx = addr / cfg.txBytes;
    const Addr last_tx = (addr + bytes - 1) / cfg.txBytes;
    const unsigned tx_count = static_cast<unsigned>(last_tx - first_tx + 1);

    // Admission: every target channel must have room. Transactions of one
    // request round-robin over channels, so a request no wider than the
    // channel count puts exactly one transaction on each target channel
    // and admission needs no demand histogram at all.
    if (tx_count <= cfg.numChannels) {
        for (Addr tx = first_tx; tx <= last_tx; ++tx) {
            if (channels[txChannel(tx)].queue.size() >= cfg.queueDepth)
                return false;
        }
    } else {
        demandScratch.assign(cfg.numChannels, 0);
        for (Addr tx = first_tx; tx <= last_tx; ++tx)
            ++demandScratch[txChannel(tx)];
        for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
            if (channels[ch].queue.size() + demandScratch[ch] >
                cfg.queueDepth)
                return false;
        }
    }

    // Allocate a request slot.
    std::uint32_t index;
    if (!freeList.empty()) {
        index = freeList.back();
        freeList.pop_back();
        requests[index] = Request{tag, port, tx_count, is_write, now};
    } else {
        index = static_cast<std::uint32_t>(requests.size());
        requests.push_back(Request{tag, port, tx_count, is_write, now});
    }
    requests[index].queuedTx = tx_count;
    port->_inflight += 1;

    for (Addr tx = first_tx; tx <= last_tx; ++tx) {
        unsigned channel;
        std::uint32_t bank;
        std::uint64_t row;
        mapAddress(tx, channel, bank, row);
        channels[channel].queue.push_back(Transaction{index, bank, row});
    }
    inflightTx += tx_count;
    queuedTxTotal += tx_count;

    // Traffic is accounted at transaction granularity: the device always
    // moves whole 32 B bursts, so a 40 B request costs 64 B of bandwidth.
    const double moved = static_cast<double>(tx_count) * cfg.txBytes;
    if (is_write)
        statWriteBytes += moved;
    else
        statReadBytes += moved;
    return true;
}

void
Hbm::serviceChannel(unsigned ch)
{
    Channel &channel = channels[ch];

    // Staggered per-bank refresh (HBM REFpb): one bank at a time goes
    // unavailable for tRfcPerBank while the rest of the channel keeps
    // serving, every tREFI / banksPerChannel cycles.
    if (now >= channel.nextRefreshAt) {
        Bank &bank = channel.banks[channel.refreshBank];
        bank.openRow = noRow;
        bank.nextReady = std::max(bank.nextReady, now + cfg.tRfcPerBank);
        channel.refreshBank =
            (channel.refreshBank + 1) % cfg.banksPerChannel;
        channel.nextRefreshAt += cfg.tRefi / cfg.banksPerChannel;
        ++statRefreshes;
    }
    if (channel.queue.empty())
        return;

    // FR-FCFS: prefer the oldest row hit within the lookahead window,
    // otherwise the oldest transaction whose bank is ready and whose
    // activate is allowed by tRRD.
    const bool can_activate = now >= channel.nextActivateAt;
    const std::size_t window =
        std::min<std::size_t>(channel.queue.size(), cfg.frfcfsWindow);
    std::size_t pick = window; // sentinel: nothing issuable
    std::size_t oldest_miss = window;
    for (std::size_t i = 0; i < window; ++i) {
        const Transaction &tx = channel.queue[i];
        const Bank &bank = channel.banks[tx.bank];
        if (bank.nextReady > now)
            continue;
        if (bank.openRow == tx.row) {
            pick = i;
            break;
        }
        if (can_activate && oldest_miss == window)
            oldest_miss = i;
    }
    if (pick == window)
        pick = oldest_miss;
    if (pick == window)
        return; // no bank ready this cycle

    const Transaction tx = channel.queue[pick];
    channel.queue.erase(channel.queue.begin() +
                        static_cast<std::ptrdiff_t>(pick));

    Bank &bank = channel.banks[tx.bank];
    Cycle column_at;
    if (bank.openRow == tx.row) {
        ++statRowHits;
        column_at = now;
    } else {
        ++statRowMisses;
        const Cycle precharge = bank.openRow == noRow ? 0 : cfg.tRp;
        column_at = now + precharge + cfg.tRcd;
        bank.openRow = tx.row;
        channel.nextActivateAt = now + cfg.tRrd;
    }
    const Cycle data_start =
        std::max(column_at + cfg.tCl, channel.busFreeAt);
    const Cycle done = data_start + cfg.tBurst;
    channel.busFreeAt = done;
    bank.nextReady = column_at + cfg.tCcd;
    statDataBusBusy += static_cast<double>(cfg.tBurst);
    ++statTransactions;
    completions.push(Completion{done, tx.requestIndex});

    // Once the last transaction issues, the request's delivery cycle is
    // fixed: from here on only that cycle (not every burst landing) is a
    // visible event for the fast-forward horizon.
    Request &req = requests[tx.requestIndex];
    if (done > req.finishAt)
        req.finishAt = done;
    gds_assert(req.queuedTx > 0, "issued more transactions than queued");
    --queuedTxTotal;
    if (--req.queuedTx == 0)
        requestFinishes.push(Completion{req.finishAt, tx.requestIndex});
}

void
Hbm::finishCompletions()
{
    while (!completions.empty() && completions.top().at <= now) {
        const std::uint32_t index = completions.top().requestIndex;
        completions.pop();
        Request &req = requests[index];
        gds_assert(req.pendingTx > 0, "double completion");
        --inflightTx;
        if (--req.pendingTx != 0)
            continue;
        if (fault && !req.faultChecked) {
            req.faultChecked = true;
            if (fault->dropResponse()) {
                // The response is lost on the wire: the requester keeps
                // waiting (its port still reports the request in flight),
                // which the run watchdog must catch.
                ++statFaultDropped;
                if (obs::Tracer *t = obs::activeTracer())
                    t->instant(t->track(tracePath()), "fault:drop", now);
                freeList.push_back(index);
                continue;
            }
            if (const Cycle delay = fault->responseDelay()) {
                ++statFaultDelayed;
                if (obs::Tracer *t = obs::activeTracer())
                    t->instant(t->track(tracePath()), "fault:delay", now);
                req.pendingTx = 1;
                ++inflightTx;
                completions.push(Completion{now + delay, index});
                requestFinishes.push(Completion{now + delay, index});
                continue;
            }
        }
        req.port->responses.push_back(req.tag);
        req.port->_inflight -= 1;
        statLatencySum += static_cast<double>(now - req.issuedAt);
        ++statRequests;
        progressed(now);
        freeList.push_back(index);
    }
}

void
Hbm::tick()
{
    finishCompletions();
    // Matured finish events were acted on just now (response delivered,
    // or superseded by a delayed-fault redelivery pushed at the deferred
    // cycle); drop them so the horizon never reports a stale event.
    while (!requestFinishes.empty() && requestFinishes.top().at <= now)
        requestFinishes.pop();
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        // Nothing queued and no refresh due: the channel provably does
        // nothing this cycle, so skip the call entirely.
        if (channels[ch].queue.empty() && now < channels[ch].nextRefreshAt)
            continue;
        serviceChannel(ch);
    }
    statOccupancySum += static_cast<double>(inflightTx);
    ++now;
}

Cycle
Hbm::nextEventCycle() const
{
    // The tick i cycles from now runs with the local clock at now + i - 1,
    // so an event gated at absolute cycle G is reached by tick G - now + 1.
    // Only request-finishing completions are visible events: the bursts a
    // multi-transaction request lands along the way merely decrement its
    // pending count, which skipCycles() replays in bulk.
    Cycle horizon = kNeverEvent;
    if (!requestFinishes.empty()) {
        const Cycle at = requestFinishes.top().at;
        horizon = at > now ? at - now + 1 : 1;
    }
    if (queuedTxTotal == 0)
        return horizon; // nothing waiting to issue: O(1) in a pure wait
    for (const Channel &channel : channels) {
        if (channel.queue.empty())
            continue;
        const std::size_t window =
            std::min<std::size_t>(channel.queue.size(), cfg.frfcfsWindow);
        for (std::size_t i = 0; i < window; ++i) {
            const Transaction &tx = channel.queue[i];
            const Bank &bank = channel.banks[tx.bank];
            Cycle gate = bank.nextReady;
            if (bank.openRow != tx.row)
                gate = std::max(gate, channel.nextActivateAt);
            // A refresh inside the window can only delay this further
            // (close the row, raise nextReady), so the pre-refresh gate
            // is a safe lower bound.
            horizon =
                std::min(horizon, gate > now ? gate - now + 1 : Cycle{1});
            if (horizon == 1)
                return 1;
        }
    }
    return horizon;
}

void
Hbm::skipCycles(Cycle cycles)
{
    if (cycles == 0)
        return;
    const Cycle last = now + cycles - 1;
    gds_assert(requestFinishes.empty() || requestFinishes.top().at > last,
               "fast-forward across a matured HBM request completion");

    // Retire the intermediate transaction completions maturing inside the
    // window exactly as the skipped ticks would have, integrating the
    // occupancy stat piecewise around each retirement. None of them can
    // finish a request (the assert above), so no port response, fault
    // draw, latency stat or progress mark is due.
    Cycle cursor = now; // next cycle whose occupancy is unaccounted
    while (!completions.empty() && completions.top().at <= last) {
        const Cycle at = completions.top().at;
        statOccupancySum += static_cast<double>(at - cursor) *
                            static_cast<double>(inflightTx);
        cursor = at;
        while (!completions.empty() && completions.top().at == at) {
            Request &req = requests[completions.top().requestIndex];
            completions.pop();
            gds_assert(req.pendingTx > 1,
                       "request-finishing completion inside a skipped "
                       "window");
            --req.pendingTx;
            --inflightTx;
        }
    }
    statOccupancySum += static_cast<double>(now + cycles - cursor) *
                        static_cast<double>(inflightTx);

    // Replay the refreshes naive ticking would have issued inside the
    // window, at their exact scheduled cycles; nothing else can happen in
    // a window nextEventCycle() declared pure. nextRefreshAt >= now here
    // because the preceding tick fired every refresh due by then.
    for (Channel &channel : channels) {
        while (channel.nextRefreshAt <= last) {
            Bank &bank = channel.banks[channel.refreshBank];
            bank.openRow = noRow;
            bank.nextReady = std::max(
                bank.nextReady, channel.nextRefreshAt + cfg.tRfcPerBank);
            channel.refreshBank =
                (channel.refreshBank + 1) % cfg.banksPerChannel;
            channel.nextRefreshAt += cfg.tRefi / cfg.banksPerChannel;
            ++statRefreshes;
        }
    }
    now += cycles;
}

std::string
Hbm::debugState() const
{
    std::size_t queued = 0;
    for (const Channel &ch : channels)
        queued += ch.queue.size();
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "inflightTx=%llu queuedTx=%zu completions=%zu",
                  static_cast<unsigned long long>(inflightTx), queued,
                  completions.size());
    return buf;
}

double
Hbm::bandwidthUtilization() const
{
    if (now == 0)
        return 0.0;
    const double peak = cfg.peakBytesPerCycle() * static_cast<double>(now);
    return totalBytes() / peak;
}

double
Hbm::rowHitRate() const
{
    const double issued = statRowHits.value() + statRowMisses.value();
    return issued == 0.0 ? 0.0 : statRowHits.value() / issued;
}

template <typename Self, typename Ar>
void
Hbm::fields(Self &self, Ar &ar)
{
    using Pq = PqOpener<Completion, std::vector<Completion>,
                        std::greater<Completion>>;
    sim::Component::fields(self, ar);
    // Free request slots keep their stale-but-registered port pointer,
    // preserving the slab entry for entry; both completion heaps travel
    // verbatim so equal-time pops replay in the pre-checkpoint order.
    ar(sim::Marker{kHbmMarker}, sim::fixedCount(self.channels),
       self.requests, self.freeList, Pq::container(self.completions),
       Pq::container(self.requestFinishes));
    ar(self.inflightTx, self.queuedTxTotal, self.now);
}

void
Hbm::saveState(sim::Serializer &s) const
{
    fields(*this, s);
}

void
Hbm::restoreState(sim::Deserializer &d)
{
    fields(*this, d);
}

} // namespace gds::mem
