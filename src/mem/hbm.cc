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
 * Initial counter-ring span in cycles: it covers a default-timing row
 * miss behind a full queue's worth of bus backlog. Longer backlogs,
 * far-memory timing and fault delays double it on demand.
 */
constexpr std::size_t kInitialRingSpan = 256;

/**
 * Farthest a restored landing or finish may lie ahead of the clock. Far
 * beyond any modelled latency, bus backlog or fault delay, it keeps a
 * corrupt checkpoint from sizing an enormous ring.
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
    landings.resize(kInitialRingSpan);
}

void
Hbm::mapAddress(Addr tx_addr, unsigned &channel, std::uint32_t &bank,
                std::uint64_t &row) const
{
    // Fine-grained channel interleave at transaction granularity: a
    // sequential stream spreads across all channels, and within a channel
    // walks consecutive columns of one row before moving on (near-perfect
    // row locality for streams, row misses for random access).
    channel = txChannel(tx_addr);
    if (pow2Geometry) {
        const std::uint64_t rowGlobal = (tx_addr >> channelShift) >> rowShift;
        bank = static_cast<std::uint32_t>(rowGlobal &
                                          (cfg.banksPerChannel - 1));
        row = rowGlobal >> bankShift;
        return;
    }
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
    if (freeList.empty()) {
        freeList.push_back(static_cast<std::uint32_t>(requests.size()));
        requests.emplace_back();
    }
    const std::uint32_t index = freeList.back();
    freeList.pop_back();
    requests[index] = Request{tag, port, now, tx_count};
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
    // otherwise the oldest row miss whose gate has passed. When nothing
    // is issuable, remember the earliest gate (the one nextEventCycle()
    // would derive) so the channel is not rescanned before then.
    const std::size_t window =
        std::min<std::size_t>(channel.queue.size(), cfg.frfcfsWindow);
    std::size_t pick = window; // sentinel: nothing issuable
    std::size_t oldest_miss = window;
    Cycle gate = kNeverEvent;
    for (std::size_t i = 0; i < window; ++i) {
        const Transaction &tx = channel.queue[i];
        const Cycle ready = txGate(channel, tx);
        if (ready > now) {
            gate = std::min(gate, ready);
        } else if (channel.banks[tx.bank].openRow == tx.row) {
            pick = i;
            break;
        } else if (oldest_miss == window) {
            oldest_miss = i;
        }
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
    const std::uint64_t seq = addLanding(done);

    // The request finishes with the last of its landings pushed at its
    // latest landing cycle. Once its last transaction issues, that
    // (cycle, sequence) key is fixed and joins the finish heap.
    Request &req = requests[tx.requestIndex];
    if (done >= req.finishAt) {
        req.finishAt = done;
        req.finishSeq = seq;
    }
    gds_assert(req.queuedTx > 0, "issued more transactions than queued");
    --queuedTxTotal;
    if (--req.queuedTx == 0)
        pushFinish(req.finishAt, req.finishSeq, tx.requestIndex);
}

void
Hbm::pushFinish(Cycle at, std::uint64_t seq, std::uint32_t request_index)
{
    requestFinishes.push_back(Finish{at, seq, request_index});
    std::push_heap(requestFinishes.begin(), requestFinishes.end(),
                   std::greater<>{});
}

std::uint64_t
Hbm::addLanding(Cycle at)
{
    const Cycle ahead = at - now;
    if (ahead >= landings.size())
        growRing(ahead);
    ++landings[at & (landings.size() - 1)];
    return landingSeq++;
}

void
Hbm::growRing(Cycle ahead)
{
    // Pending landings span [now, now + size), so each slot holds exactly
    // one cycle and moves to that cycle's slot in the larger ring.
    std::size_t size = landings.size();
    while (ahead >= size)
        size *= 2;
    std::vector<std::uint32_t> grown(size);
    const std::size_t old_mask = landings.size() - 1;
    for (std::size_t b = 0; b < landings.size(); ++b) {
        const Cycle at = now + ((b - now) & old_mask);
        grown[at & (size - 1)] = landings[b];
    }
    landings = std::move(grown);
}

void
Hbm::finishRequest()
{
    std::pop_heap(requestFinishes.begin(), requestFinishes.end(),
                  std::greater<>{});
    const std::uint32_t index = requestFinishes.back().requestIndex;
    requestFinishes.pop_back();
    Request &req = requests[index];
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
            return;
        }
        if (const Cycle delay = fault->responseDelay()) {
            // The redelivery is one more landing, keyed by its own push.
            ++statFaultDelayed;
            if (obs::Tracer *t = obs::activeTracer())
                t->instant(t->track(tracePath()), "fault:delay", now);
            ++inflightTx;
            pushFinish(now + delay, addLanding(now + delay), index);
            return;
        }
    }
    req.port->responses.push_back(req.tag);
    req.port->_inflight -= 1;
    statLatencySum += static_cast<double>(now - req.issuedAt);
    ++statRequests;
    progressed(now);
    freeList.push_back(index);
}

void
Hbm::tick()
{
    // This cycle's landings leave flight, and the requests they finish
    // are delivered in landing push order.
    inflightTx -= std::exchange(landings[now & (landings.size() - 1)], 0);
    while (!requestFinishes.empty() && requestFinishes.front().at <= now)
        finishRequest();
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
    // Only request finishes are visible events: the other landings merely
    // lower the in-flight count, which skipCycles() replays in bulk.
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
                // A refresh inside the window can only delay this further
                // (close the row, raise nextReady), so the pre-refresh
                // gate is a safe lower bound.
                const Cycle gate = txGate(channel, channel.queue[i]);
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

    // Retire the landings inside the window exactly as the skipped ticks
    // would have, integrating the occupancy stat piecewise around each
    // landing cycle. None of them finishes a request (the assert above),
    // so no port response, fault draw, latency stat or progress mark is
    // due. Pending landings lie within one ring span of now, so at most
    // that many slots are visited, and none once all have retired.
    Cycle cursor = now; // next cycle whose occupancy is unaccounted
    const Cycle scan_last = std::min<Cycle>(last, now + landings.size() - 1);
    for (Cycle at = now; at <= scan_last && inflightTx != queuedTxTotal;
         ++at) {
        std::uint32_t &count = landings[at & (landings.size() - 1)];
        if (count == 0)
            continue;
        statOccupancySum += static_cast<double>(at - cursor) *
                            static_cast<double>(inflightTx);
        cursor = at;
        inflightTx -= std::exchange(count, 0);
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
                  "inflightTx=%llu queuedTx=%llu finishes=%zu",
                  static_cast<unsigned long long>(inflightTx),
                  static_cast<unsigned long long>(queuedTxTotal),
                  requestFinishes.size());
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

std::vector<Hbm::LandingRun>
Hbm::landingRuns() const
{
    std::vector<LandingRun> runs;
    for (Cycle at = now; at < now + landings.size(); ++at) {
        if (const std::uint32_t count = landings[at & (landings.size() - 1)])
            runs.emplace_back(at, count);
    }
    return runs;
}

void
Hbm::rebuildAfterRestore(const std::vector<LandingRun> &runs)
{
    const auto in_span = [this](Cycle at) {
        return at >= now && at - now < kMaxRestoredSpan;
    };
    for (const Finish &f : requestFinishes) {
        gds_require(in_span(f.at) && f.requestIndex < requests.size(),
                    CheckpointError,
                    "HBM checkpoint finish (cycle %llu, request %u) is out "
                    "of range at cycle %llu",
                    static_cast<unsigned long long>(f.at), f.requestIndex,
                    static_cast<unsigned long long>(now));
    }
    gds_require(std::is_heap(requestFinishes.begin(), requestFinishes.end(),
                             std::greater<>{}),
                CheckpointError, "HBM checkpoint finish list is not a heap");
    std::fill(landings.begin(), landings.end(), 0);
    std::uint64_t pending = 0;
    for (const auto &[at, count] : runs) {
        gds_require(in_span(at), CheckpointError,
                    "HBM checkpoint landing cycle %llu is out of range at "
                    "cycle %llu",
                    static_cast<unsigned long long>(at),
                    static_cast<unsigned long long>(now));
        if (at - now >= landings.size())
            growRing(at - now);
        landings[at & (landings.size() - 1)] += count;
        pending += count;
    }
    gds_require(pending == inflightTx - queuedTxTotal, CheckpointError,
                "HBM checkpoint lists %llu pending landings for %llu "
                "issued transactions",
                static_cast<unsigned long long>(pending),
                static_cast<unsigned long long>(inflightTx - queuedTxTotal));
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
    // preserving the slab entry for entry. The ring travels as its
    // nonzero (cycle, count) slots; the finish heap keeps its layout and
    // its keys, and the sequence counter keeps later landings after them.
    std::vector<LandingRun> runs;
    if constexpr (!Ar::kRestoring)
        runs = self.landingRuns();
    ar(sim::Marker{kHbmMarker}, sim::fixedCount(self.channels),
       self.requests, self.freeList, runs, self.requestFinishes);
    ar(self.landingSeq);
    ar(self.inflightTx, self.queuedTxTotal, self.now);
    if constexpr (Ar::kRestoring)
        self.rebuildAfterRestore(runs);
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
