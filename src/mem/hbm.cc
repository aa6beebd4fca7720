#include "mem/hbm.hh"

#include <algorithm>
#include <bit>
#include <functional>

#include "common/bitutil.hh"
#include "common/error.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"

namespace gds::mem
{

namespace
{

constexpr std::uint32_t kHbmMarker = 0x48424d31; // "HBM1"

/**
 * Initial completion-wheel span in cycles: it covers a default-timing
 * row miss behind a full queue's worth of bus backlog. Longer backlogs,
 * far-memory timing and fault delays double it on demand.
 */
constexpr std::size_t kInitialWheelSpan = 256;

/**
 * Farthest a restored completion may lie ahead of the clock. Far beyond
 * any modelled latency, bus backlog or fault delay, it keeps a corrupt
 * checkpoint from sizing an enormous wheel.
 */
constexpr Cycle kMaxRestoredSpan = Cycle{1} << 24;

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
    if (const char *violation = hbmContractViolation(cfg))
        throw ConfigError(violation);
    const std::uint64_t tx_per_row = cfg.rowBytes / cfg.txBytes;
    pow2Geometry = isPow2(cfg.numChannels) && isPow2(tx_per_row) &&
                   isPow2(cfg.banksPerChannel);
    if (pow2Geometry) {
        channelShift = log2Floor(cfg.numChannels);
        rowShift = log2Floor(tx_per_row);
        bankShift = log2Floor(cfg.banksPerChannel);
    }
    channels.reserve(cfg.numChannels);
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        channels.emplace_back(cfg.queueDepth, cfg.banksPerChannel);
        // Stagger refresh across channels to avoid artificial beats. The
        // start cycles rise with the channel index and all lie within
        // one refresh interval, which is what keeps refreshes due in
        // cyclic channel order (refreshCursor).
        channels[ch].nextRefreshAt =
            cfg.tRefi / cfg.banksPerChannel / cfg.numChannels * (ch + 1);
    }
    busyChannels.assign((cfg.numChannels + 63) / 64, 0);
    wheel.resize(kInitialWheelSpan);
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
        unsigned ch;
        std::uint32_t bank;
        std::uint64_t row;
        mapAddress(tx, ch, bank, row);
        Channel &channel = channels[ch];
        // A transaction entering the FR-FCFS window may be issuable
        // before the gate the last scan derived from the old window.
        if (channel.queue.size() < cfg.frfcfsWindow)
            channel.issueGate = 0;
        channel.queue.push(Transaction{index, bank, row});
        markBusy(ch);
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
Hbm::fireRefreshes(Cycle last)
{
    // Staggered per-bank refresh (HBM REFpb): one bank at a time goes
    // unavailable for tRfcPerBank while the rest of the channel keeps
    // serving, every tREFI / banksPerChannel cycles. Channels are
    // independent, so firing every due refresh before any channel is
    // serviced is what per-channel refresh-then-service would do.
    const Cycle interval = cfg.tRefi / cfg.banksPerChannel;
    for (;;) {
        Channel &channel = channels[refreshCursor];
        const Cycle at = channel.nextRefreshAt;
        if (at > last)
            return;
        Bank &bank = channel.banks[channel.refreshBank];
        bank.openRow = noRow;
        bank.nextReady = std::max(bank.nextReady, at + cfg.tRfcPerBank);
        channel.refreshBank =
            (channel.refreshBank + 1) % cfg.banksPerChannel;
        channel.nextRefreshAt = at + interval;
        ++statRefreshes;
        if (++refreshCursor == cfg.numChannels)
            refreshCursor = 0;
    }
}

void
Hbm::serviceChannel(unsigned ch)
{
    Channel &channel = channels[ch];

    // FR-FCFS: prefer the oldest row hit within the lookahead window,
    // otherwise the oldest transaction whose bank is ready and whose
    // activate is allowed by tRRD. When nothing is issuable, remember the
    // earliest cycle something could be (the gate nextEventCycle() would
    // derive) so the channel is not rescanned before then.
    const bool can_activate = now >= channel.nextActivateAt;
    const std::size_t window =
        std::min<std::size_t>(channel.queue.size(), cfg.frfcfsWindow);
    std::size_t pick = window; // sentinel: nothing issuable
    std::size_t oldest_miss = window;
    Cycle gate = kNeverEvent;
    for (std::size_t i = 0; i < window; ++i) {
        const Transaction &tx = channel.queue[i];
        const Bank &bank = channel.banks[tx.bank];
        const bool hit = bank.openRow == tx.row;
        if (bank.nextReady <= now) {
            if (hit) {
                pick = i;
                break;
            }
            if (can_activate) {
                if (oldest_miss == window)
                    oldest_miss = i;
                continue;
            }
        }
        gate = std::min(gate, hit ? bank.nextReady
                                  : std::max(bank.nextReady,
                                             channel.nextActivateAt));
    }
    if (pick == window)
        pick = oldest_miss;
    if (pick == window) {
        channel.issueGate = gate; // no bank ready this cycle
        return;
    }

    const Transaction tx = channel.queue[pick];
    channel.queue.eraseAt(pick);
    if (channel.queue.empty())
        busyChannels[ch / 64] &= ~(std::uint64_t{1} << (ch % 64));

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
    scheduleCompletion(done, tx.requestIndex);

    // Once the last transaction issues, the request's delivery cycle is
    // fixed: from here on only that cycle (not every burst landing) is a
    // visible event for the fast-forward horizon.
    Request &req = requests[tx.requestIndex];
    if (done > req.finishAt)
        req.finishAt = done;
    gds_assert(req.queuedTx > 0, "issued more transactions than queued");
    --queuedTxTotal;
    if (--req.queuedTx == 0)
        pushFinish(req.finishAt, tx.requestIndex);
}

void
Hbm::pushFinish(Cycle at, std::uint32_t request_index)
{
    requestFinishes.push_back(Completion{at, request_index});
    std::push_heap(requestFinishes.begin(), requestFinishes.end(),
                   std::greater<>{});
}

void
Hbm::scheduleCompletion(Cycle at, std::uint32_t request_index)
{
    const Cycle ahead = at - now;
    if (ahead >= wheel.size())
        growWheel(ahead);
    wheel[at & (wheel.size() - 1)].push_back(request_index);
}

void
Hbm::growWheel(Cycle ahead)
{
    // Pending completions span [now, now + size), so each bucket holds
    // exactly one cycle and moves whole to that cycle's bucket in the
    // larger wheel.
    std::size_t size = wheel.size();
    while (ahead >= size)
        size *= 2;
    std::vector<std::vector<std::uint32_t>> grown(size);
    const std::size_t old_mask = wheel.size() - 1;
    for (std::size_t b = 0; b < wheel.size(); ++b) {
        const Cycle at = now + ((b - now) & old_mask);
        grown[at & (size - 1)] = std::move(wheel[b]);
    }
    wheel = std::move(grown);
}

void
Hbm::finishCompletions()
{
    // Retire this cycle's bucket in push order. It is swapped out first:
    // a delayed-fault redelivery pushes into the wheel, which may grow.
    retiring.swap(wheel[now & (wheel.size() - 1)]);
    for (const std::uint32_t index : retiring) {
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
                scheduleCompletion(now + delay, index);
                pushFinish(now + delay, index);
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
    retiring.clear();
}

void
Hbm::tick()
{
    if (inflightTx != queuedTxTotal)
        finishCompletions();
    // Matured finish events were acted on just now (response delivered,
    // or superseded by a delayed-fault redelivery pushed at the deferred
    // cycle); drop them so the horizon never reports a stale event.
    while (!requestFinishes.empty() && requestFinishes.front().at <= now) {
        std::pop_heap(requestFinishes.begin(), requestFinishes.end(),
                      std::greater<>{});
        requestFinishes.pop_back();
    }
    fireRefreshes(now);
    // Only channels with queued transactions and a passed issue gate can
    // act; visit them in ascending order.
    for (std::size_t w = 0; w < busyChannels.size(); ++w) {
        for (std::uint64_t bits = busyChannels[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned ch =
                static_cast<unsigned>(w * 64 + std::countr_zero(bits));
            if (now >= channels[ch].issueGate)
                serviceChannel(ch);
        }
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
        const Cycle at = requestFinishes.front().at;
        horizon = at > now ? at - now + 1 : 1;
    }
    if (queuedTxTotal == 0)
        return horizon; // nothing waiting to issue: O(1) in a pure wait
    for (std::size_t w = 0; w < busyChannels.size(); ++w) {
        for (std::uint64_t bits = busyChannels[w]; bits != 0;
             bits &= bits - 1) {
            const Channel &channel =
                channels[w * 64 + std::countr_zero(bits)];
            // The issue gate bounds this channel's window gates from
            // below, so a gate at or past the horizon cannot lower it.
            if (channel.issueGate > now &&
                channel.issueGate - now + 1 >= horizon)
                continue;
            const std::size_t window = std::min<std::size_t>(
                channel.queue.size(), cfg.frfcfsWindow);
            for (std::size_t i = 0; i < window; ++i) {
                const Transaction &tx = channel.queue[i];
                const Bank &bank = channel.banks[tx.bank];
                Cycle gate = bank.nextReady;
                if (bank.openRow != tx.row)
                    gate = std::max(gate, channel.nextActivateAt);
                // A refresh inside the window can only delay this further
                // (close the row, raise nextReady), so the pre-refresh
                // gate is a safe lower bound.
                horizon = std::min(horizon,
                                   gate > now ? gate - now + 1 : Cycle{1});
                if (horizon == 1)
                    return 1;
            }
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
    gds_assert(requestFinishes.empty() || requestFinishes.front().at > last,
               "fast-forward across a matured HBM request completion");

    // Retire the intermediate transaction completions maturing inside the
    // window exactly as the skipped ticks would have, integrating the
    // occupancy stat piecewise around each retirement. None of them can
    // finish a request (the assert above), so no port response, fault
    // draw, latency stat or progress mark is due. Pending completions lie
    // within one wheel span of now, so at most that many buckets are
    // visited, and none once all have retired.
    Cycle cursor = now; // next cycle whose occupancy is unaccounted
    const Cycle scan_last = std::min<Cycle>(last, now + wheel.size() - 1);
    for (Cycle at = now; at <= scan_last && inflightTx != queuedTxTotal;
         ++at) {
        std::vector<std::uint32_t> &bucket = wheel[at & (wheel.size() - 1)];
        if (bucket.empty())
            continue;
        statOccupancySum += static_cast<double>(at - cursor) *
                            static_cast<double>(inflightTx);
        cursor = at;
        for (const std::uint32_t index : bucket) {
            Request &req = requests[index];
            gds_assert(req.pendingTx > 1,
                       "request-finishing completion inside a skipped "
                       "window");
            --req.pendingTx;
            --inflightTx;
        }
        bucket.clear();
    }
    statOccupancySum += static_cast<double>(now + cycles - cursor) *
                        static_cast<double>(inflightTx);

    // Replay the refreshes naive ticking would have issued inside the
    // window, at their exact scheduled cycles; nothing else can happen in
    // a window nextEventCycle() declared pure. nextRefreshAt >= now here
    // because the preceding tick fired every refresh due by then.
    fireRefreshes(last);
    now += cycles;
}

std::string
Hbm::debugState() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "inflightTx=%llu queuedTx=%llu completions=%llu",
                  static_cast<unsigned long long>(inflightTx),
                  static_cast<unsigned long long>(queuedTxTotal),
                  static_cast<unsigned long long>(inflightTx -
                                                  queuedTxTotal));
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

std::vector<Hbm::Completion>
Hbm::pendingCompletions() const
{
    std::vector<Completion> pending;
    pending.reserve(inflightTx - queuedTxTotal);
    for (Cycle at = now; at < now + wheel.size(); ++at) {
        for (const std::uint32_t index : wheel[at & (wheel.size() - 1)])
            pending.push_back(Completion{at, index});
    }
    return pending;
}

void
Hbm::rebuildAfterRestore(const std::vector<Completion> &pending)
{
    gds_require(pending.size() == inflightTx - queuedTxTotal,
                CheckpointError,
                "HBM checkpoint lists %zu pending completions for %llu "
                "issued transactions",
                pending.size(),
                static_cast<unsigned long long>(inflightTx - queuedTxTotal));
    for (std::vector<std::uint32_t> &bucket : wheel)
        bucket.clear();
    for (const Completion &c : pending) {
        gds_require(c.at >= now && c.at - now < kMaxRestoredSpan &&
                        c.requestIndex < requests.size(),
                    CheckpointError,
                    "HBM checkpoint completion (cycle %llu, request %u) "
                    "is out of range at cycle %llu",
                    static_cast<unsigned long long>(c.at), c.requestIndex,
                    static_cast<unsigned long long>(now));
        scheduleCompletion(c.at, c.requestIndex);
    }
    std::fill(busyChannels.begin(), busyChannels.end(), 0);
    refreshCursor = 0;
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        channels[ch].issueGate = 0;
        if (!channels[ch].queue.empty())
            markBusy(ch);
        // The next refresh due is the earliest; among equal cycles, the
        // lowest channel (a tie only arises when all start together).
        if (channels[ch].nextRefreshAt <
            channels[refreshCursor].nextRefreshAt)
            refreshCursor = ch;
    }
}

template <typename Self, typename Ar>
void
Hbm::fields(Self &self, Ar &ar)
{
    sim::Component::fields(self, ar);
    // Free request slots keep their stale-but-registered port pointer,
    // preserving the slab entry for entry. Pending completions travel in
    // (cycle, push order), so a restored wheel retires same-cycle
    // completions in the pre-checkpoint order.
    std::vector<Completion> pending;
    if constexpr (!Ar::kRestoring)
        pending = self.pendingCompletions();
    ar(sim::Marker{kHbmMarker}, sim::fixedCount(self.channels),
       self.requests, self.freeList, pending, self.requestFinishes);
    ar(self.inflightTx, self.queuedTxTotal, self.now);
    if constexpr (Ar::kRestoring)
        self.rebuildAfterRestore(pending);
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
