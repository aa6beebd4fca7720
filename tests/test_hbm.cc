/**
 * @file
 * Tests for the cycle-level HBM model: protocol invariants (latency floors,
 * completion ordering), row-buffer behaviour (streams hit, random misses),
 * bandwidth ceilings, refresh, backpressure and statistics.
 */

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "mem/hbm.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"

namespace gds::mem
{
namespace
{

struct Fixture
{
    explicit Fixture(HbmConfig config = {})
        : hbm(config, nullptr)
    {}

    /** Tick until the port has a response; returns cycles waited. */
    Cycle
    waitResponse(HbmPort &port, Cycle limit = 100000)
    {
        Cycle waited = 0;
        while (!port.hasResponse()) {
            hbm.tick();
            gds_assert(++waited < limit, "no response within %llu cycles",
                       static_cast<unsigned long long>(limit));
        }
        return waited;
    }

    /** Drain the device completely. */
    void
    drain()
    {
        while (hbm.busy())
            hbm.tick();
    }

    Hbm hbm;
};

TEST(Hbm, SingleReadCompletesWithRealisticLatency)
{
    Fixture f;
    HbmPort port;
    ASSERT_TRUE(f.hbm.access(0, 32, false, 7, &port));
    EXPECT_EQ(port.inflight(), 1u);
    const Cycle latency = f.waitResponse(port);
    EXPECT_EQ(port.popResponse(), 7u);
    EXPECT_EQ(port.inflight(), 0u);
    // Cold access: at least tRCD + tCL + tBurst.
    const auto &cfg = f.hbm.config();
    EXPECT_GE(latency, cfg.tRcd + cfg.tCl + cfg.tBurst);
    EXPECT_LE(latency, cfg.tRp + cfg.tRcd + cfg.tCl + cfg.tBurst + 5);
}

TEST(Hbm, MultiTransactionRequestCompletesOnce)
{
    Fixture f;
    HbmPort port;
    // 256 bytes = 8 transactions across 8 channels.
    ASSERT_TRUE(f.hbm.access(0, 256, false, 42, &port));
    f.waitResponse(port);
    EXPECT_EQ(port.popResponse(), 42u);
    EXPECT_FALSE(port.hasResponse());
    EXPECT_EQ(f.hbm.statsGroup().scalar("transactions").value(), 8.0);
}

TEST(Hbm, UnalignedRequestCoversBothTransactions)
{
    Fixture f;
    HbmPort port;
    // 8 bytes straddling a 32 B boundary -> 2 transactions.
    ASSERT_TRUE(f.hbm.access(28, 8, false, 1, &port));
    f.waitResponse(port);
    port.popResponse();
    EXPECT_EQ(f.hbm.statsGroup().scalar("transactions").value(), 2.0);
}

TEST(Hbm, ReadWriteBytesAccounted)
{
    Fixture f;
    HbmPort port;
    ASSERT_TRUE(f.hbm.access(0, 64, false, 1, &port));
    ASSERT_TRUE(f.hbm.access(4096, 128, true, 2, &port));
    f.drain();
    EXPECT_EQ(f.hbm.statsGroup().scalar("readBytes").value(), 64.0);
    EXPECT_EQ(f.hbm.statsGroup().scalar("writeBytes").value(), 128.0);
    EXPECT_EQ(f.hbm.totalBytes(), 192.0);
}

TEST(Hbm, StreamingAccessRidesOpenRows)
{
    HbmConfig cfg;
    Fixture f(cfg);
    HbmPort port;
    // Stream 64 KB sequentially in 256 B requests.
    Addr addr = 0;
    unsigned outstanding = 0;
    while (addr < 65536 || outstanding > 0) {
        if (addr < 65536 && f.hbm.access(addr, 256, false, addr, &port)) {
            addr += 256;
            ++outstanding;
        }
        f.hbm.tick();
        while (port.hasResponse()) {
            port.popResponse();
            --outstanding;
        }
    }
    EXPECT_GT(f.hbm.rowHitRate(), 0.9);
}

TEST(Hbm, RandomAccessMissesRows)
{
    Fixture f;
    HbmPort port;
    Rng rng(3);
    unsigned issued = 0;
    unsigned completed = 0;
    while (completed < 2000) {
        if (issued < 2000) {
            // Random 32 B accesses over 64 MB.
            const Addr addr = alignDown(rng.below(64 * 1024 * 1024), 32);
            if (f.hbm.access(addr, 32, false, issued, &port))
                ++issued;
        }
        f.hbm.tick();
        while (port.hasResponse()) {
            port.popResponse();
            ++completed;
        }
    }
    EXPECT_LT(f.hbm.rowHitRate(), 0.3);
}

TEST(Hbm, StreamingBandwidthApproachesPeak)
{
    Fixture f;
    HbmPort port;
    // Saturate with sequential traffic for a fixed window.
    Addr addr = 0;
    for (Cycle c = 0; c < 20000; ++c) {
        while (f.hbm.access(addr, 512, false, addr, &port))
            addr += 512;
        f.hbm.tick();
        while (port.hasResponse())
            port.popResponse();
    }
    // Achieved bandwidth should exceed 70% of peak under pure streaming
    // (refresh and turnaround keep it below 100%).
    EXPECT_GT(f.hbm.bandwidthUtilization(), 0.7);
    EXPECT_LE(f.hbm.bandwidthUtilization(), 1.0);
}

TEST(Hbm, RandomBandwidthWellBelowStreaming)
{
    Fixture f;
    HbmPort port;
    Rng rng(5);
    for (Cycle c = 0; c < 20000; ++c) {
        for (int k = 0; k < 32; ++k) {
            const Addr addr = alignDown(rng.below(256 * 1024 * 1024), 32);
            if (!f.hbm.access(addr, 32, false, c * 32 + k, &port))
                break;
        }
        f.hbm.tick();
        while (port.hasResponse())
            port.popResponse();
    }
    EXPECT_LT(f.hbm.bandwidthUtilization(), 0.5);
}

TEST(Hbm, BackpressureWhenQueuesFull)
{
    HbmConfig cfg;
    cfg.queueDepth = 4;
    Fixture f(cfg);
    HbmPort port;
    // Hammer one channel (stride = numChannels * txBytes keeps the same
    // channel) without ticking; admission must eventually refuse.
    bool refused = false;
    for (int i = 0; i < 100; ++i) {
        const Addr addr = static_cast<Addr>(i) * cfg.numChannels *
                          cfg.txBytes;
        if (!f.hbm.access(addr, 32, false, i, &port)) {
            refused = true;
            break;
        }
    }
    EXPECT_TRUE(refused);
    f.drain();
}

TEST(Hbm, RefusedAccessChangesNothing)
{
    HbmConfig cfg;
    cfg.queueDepth = 2;
    Fixture f(cfg);
    HbmPort port;
    int accepted = 0;
    for (int i = 0; i < 50; ++i) {
        const Addr addr = static_cast<Addr>(i) * cfg.numChannels *
                          cfg.txBytes;
        if (f.hbm.access(addr, 32, false, i, &port))
            ++accepted;
    }
    const double bytes = f.hbm.totalBytes();
    EXPECT_EQ(bytes, 32.0 * accepted);
    f.drain();
    // Exactly the accepted requests complete.
    int responses = 0;
    while (port.hasResponse()) {
        port.popResponse();
        ++responses;
    }
    EXPECT_EQ(responses, accepted);
}

TEST(Hbm, RefreshesHappen)
{
    Fixture f;
    HbmPort port;
    for (Cycle c = 0; c < 10000; ++c)
        f.hbm.tick();
    // 32 channels, tREFI 3900: ~2.5 refreshes per channel in 10k cycles.
    EXPECT_GT(f.hbm.statsGroup().scalar("refreshes").value(), 32.0);
}

TEST(Hbm, PeakBandwidthConfig)
{
    HbmConfig cfg;
    // Table 3: 512 GB/s at 1 GHz = 512 B/cycle.
    EXPECT_EQ(cfg.peakBytesPerCycle(), 512.0);
}

TEST(Hbm, ResponsesPreserveWorkConservation)
{
    Fixture f;
    HbmPort a;
    HbmPort b;
    int issued_a = 0;
    int issued_b = 0;
    Rng rng(9);
    for (Cycle c = 0; c < 5000; ++c) {
        if (c % 2 == 0 &&
            f.hbm.access(alignDown(rng.below(1 << 20), 32), 32, false,
                         issued_a, &a))
            ++issued_a;
        if (c % 3 == 0 &&
            f.hbm.access(alignDown(rng.below(1 << 20), 32), 64, true,
                         issued_b, &b))
            ++issued_b;
        f.hbm.tick();
    }
    f.drain();
    int got_a = 0;
    int got_b = 0;
    while (a.hasResponse()) {
        a.popResponse();
        ++got_a;
    }
    while (b.hasResponse()) {
        b.popResponse();
        ++got_b;
    }
    EXPECT_EQ(got_a, issued_a);
    EXPECT_EQ(got_b, issued_b);
    EXPECT_FALSE(f.hbm.busy());
}

TEST(HbmDeath, ZeroLengthRequestPanics)
{
    Fixture f;
    HbmPort port;
    EXPECT_DEATH((void)f.hbm.access(0, 0, false, 0, &port), "zero-length");
}

} // namespace
} // namespace gds::mem

namespace gds::mem
{
namespace
{

TEST(Hbm, TrrdLimitsActivateRate)
{
    // All-miss traffic to distinct banks: without tRRD the channel could
    // activate every cycle; with tRRD=4 misses are spaced apart.
    HbmConfig fast_cfg;
    fast_cfg.numChannels = 1;
    fast_cfg.tRrd = 1;
    HbmConfig slow_cfg = fast_cfg;
    slow_cfg.tRrd = 16;

    auto run = [](const HbmConfig &cfg) {
        Hbm hbm(cfg, nullptr);
        HbmPort port;
        Rng rng(3);
        for (Cycle c = 0; c < 20000; ++c) {
            for (int k = 0; k < 4; ++k) {
                const Addr addr = alignDown(rng.below(1ULL << 28), 32);
                if (!hbm.access(addr, 32, false, c, &port))
                    break;
            }
            hbm.tick();
            while (port.hasResponse())
                port.popResponse();
        }
        return hbm.totalBytes();
    };
    EXPECT_GT(run(fast_cfg), 1.5 * run(slow_cfg));
}

TEST(Hbm, PerBankRefreshDoesNotBlockOtherBanks)
{
    // A stream confined to one bank keeps flowing while other banks
    // refresh; only its own refresh slot interferes. Compare against a
    // config with refresh effectively disabled.
    HbmConfig no_refresh;
    no_refresh.numChannels = 1;
    no_refresh.tRefi = 1u << 30;
    HbmConfig with_refresh = no_refresh;
    with_refresh.tRefi = 3900;

    auto run = [](const HbmConfig &cfg) {
        Hbm hbm(cfg, nullptr);
        HbmPort port;
        Addr addr = 0;
        for (Cycle c = 0; c < 30000; ++c) {
            while (hbm.access(addr, 32, false, addr, &port))
                addr += 32;
            hbm.tick();
            while (port.hasResponse())
                port.popResponse();
        }
        return hbm.totalBytes();
    };
    const double clean = run(no_refresh);
    const double refreshed = run(with_refresh);
    // Staggered per-bank refresh perturbs throughput by a few percent,
    // not a stall storm. (It can even help slightly: refresh leaves the
    // bank precharged, making the next row activation cheaper.)
    EXPECT_GT(refreshed, 0.90 * clean);
    EXPECT_LT(refreshed, 1.10 * clean);
}

TEST(Hbm, LatencyAndOccupancyAccessorsConsistent)
{
    Fixture f;
    HbmPort port;
    for (int i = 0; i < 100; ++i)
        (void)f.hbm.access(static_cast<Addr>(i) * 4096, 64, false, i,
                           &port);
    f.drain();
    while (port.hasResponse())
        port.popResponse();
    // Little's law sanity: meanOccupancy ~= throughput x meanLatency.
    EXPECT_GT(f.hbm.meanLatency(),
              static_cast<double>(f.hbm.config().tCl));
    EXPECT_GT(f.hbm.meanOccupancy(), 0.0);
    const double tx = f.hbm.statsGroup().scalar("transactions").value();
    const double cycles = static_cast<double>(f.hbm.elapsed());
    const double expected_occ =
        tx / cycles * f.hbm.meanLatency();
    EXPECT_NEAR(f.hbm.meanOccupancy(), expected_occ,
                expected_occ * 0.75 + 1.0);
}

TEST(Hbm, WritesAndReadsShareBandwidthFairly)
{
    Fixture f;
    HbmPort rport;
    HbmPort wport;
    Addr raddr = 0;
    Addr waddr = 1ULL << 28;
    for (Cycle c = 0; c < 10000; ++c) {
        // Alternate issue order so admission does not favour one port.
        if (c % 2 == 0) {
            if (f.hbm.access(raddr, 256, false, c, &rport))
                raddr += 256;
            if (f.hbm.access(waddr, 256, true, c, &wport))
                waddr += 256;
        } else {
            if (f.hbm.access(waddr, 256, true, c, &wport))
                waddr += 256;
            if (f.hbm.access(raddr, 256, false, c, &rport))
                raddr += 256;
        }
        f.hbm.tick();
        while (rport.hasResponse())
            rport.popResponse();
        while (wport.hasResponse())
            wport.popResponse();
    }
    f.drain();
    const double reads = f.hbm.statsGroup().scalar("readBytes").value();
    const double writes = f.hbm.statsGroup().scalar("writeBytes").value();
    EXPECT_GT(reads, 0.0);
    EXPECT_NEAR(reads, writes, reads * 0.05);
}

} // namespace
} // namespace gds::mem

namespace gds::mem
{
namespace
{

/**
 * Transaction-level golden run: three ports drive a standalone Hbm with
 * a seeded mix of streaming and random reads and writes of 1-40
 * transactions (some wider than the channel count), retrying refused
 * accesses, with idle phases crossed by skipCycles(nextEventCycle() - 1)
 * the way the Simulator fast-forwards. Returns an FNV-1a hash over each
 * port's (completion cycle, tag) pairs, sorted within a cycle, and the
 * device's timing statistics.
 */
std::uint64_t
goldenRun(const HbmConfig &cfg, std::uint64_t seed)
{
    constexpr unsigned kPorts = 3;
    constexpr Cycle kCycles = 60000;
    struct Pending
    {
        Addr addr = 0;
        unsigned bytes = 0;
        bool isWrite = false;
        std::uint64_t tag = 0;
    };

    Hbm hbm(cfg, nullptr);
    HbmPort ports[kPorts];
    std::vector<std::pair<Cycle, std::uint64_t>> seen[kPorts];
    Pending pending[kPorts];
    Addr stream[kPorts] = {0, 1ULL << 26, 1ULL << 27};
    std::uint64_t nextTag = 1;
    Rng rng(seed);

    const auto collect = [&] {
        for (unsigned p = 0; p < kPorts; ++p) {
            while (ports[p].hasResponse())
                seen[p].emplace_back(hbm.elapsed(), ports[p].popResponse());
        }
    };

    Cycle phaseEnd = 0;
    bool idle = true;
    while (hbm.elapsed() < kCycles) {
        if (hbm.elapsed() >= phaseEnd) {
            idle = !idle;
            phaseEnd = hbm.elapsed() + 200 + rng.below(idle ? 3000 : 2000);
        }
        if (idle) {
            const Cycle horizon = hbm.nextEventCycle();
            if (horizon > 1) {
                const Cycle left = phaseEnd - hbm.elapsed();
                hbm.skipCycles(std::min(horizon - 1, left));
            }
        } else {
            for (unsigned p = 0; p < kPorts; ++p) {
                Pending &req = pending[p];
                if (req.bytes == 0 && rng.below(4) != 0) {
                    const unsigned tx = 1 + static_cast<unsigned>(
                                                rng.below(40));
                    const unsigned skew =
                        static_cast<unsigned>(rng.below(8)) * 4;
                    req.bytes = tx * cfg.txBytes - skew;
                    if (rng.below(2) == 0) {
                        req.addr = stream[p];
                        stream[p] += tx * cfg.txBytes;
                    } else {
                        req.addr = alignDown(rng.below(1ULL << 28), 4);
                    }
                    req.isWrite = rng.below(10) < 3;
                    req.tag = nextTag++;
                }
                if (req.bytes != 0 &&
                    hbm.access(req.addr, req.bytes, req.isWrite, req.tag,
                               &ports[p]))
                    req.bytes = 0;
            }
        }
        hbm.tick();
        collect();
    }
    while (hbm.busy()) {
        hbm.tick();
        collect();
    }

    std::uint64_t hash = fnv1a64(nullptr, 0);
    for (auto &pairs : seen) {
        std::sort(pairs.begin(), pairs.end());
        hash = fnv1a64(pairs.data(), pairs.size() * sizeof(pairs[0]), hash);
    }
    for (const char *name : {"rowHits", "rowMisses", "refreshes",
                             "occupancySum", "latencySum", "transactions"}) {
        const double v = hbm.statsGroup().scalar(name).value();
        hash = fnv1a64(&v, sizeof v, hash);
    }
    return hash;
}

TEST(HbmGolden, DefaultGeometry)
{
    EXPECT_EQ(goldenRun(HbmConfig{}, 11), 0xa6e90d9b699f02bbULL);
}

TEST(HbmGolden, NonPowerOfTwoGeometry)
{
    HbmConfig cfg;
    cfg.numChannels = 24;
    cfg.banksPerChannel = 12;
    EXPECT_EQ(goldenRun(cfg, 12), 0xd53e4ddbf57955a1ULL);
}

TEST(HbmGolden, FarMemoryTiming)
{
    HbmConfig cfg;
    cfg.tCl *= 64;
    cfg.tRcd *= 64;
    cfg.tRp *= 64;
    EXPECT_EQ(goldenRun(cfg, 13), 0x5b3e8772accda20eULL);
}

TEST(HbmCheckpoint, RestoreResumesCompletionsPastTheWheelSpan)
{
    // Far-memory timing plus 5000-cycle fault delays leave completions
    // thousands of cycles ahead at the checkpoint, so the wheel has
    // grown. Several requests issue per cycle, so many finish in the
    // same cycle, where retire order decides the fault draws and the
    // port's response order. A fresh Hbm restored from the payload (its
    // wheel starts at the initial span) must deliver the remaining
    // responses at the same cycles, in the same order, with the same
    // statistics.
    HbmConfig cfg;
    cfg.tCl *= 64;
    cfg.tRcd *= 64;
    cfg.tRp *= 64;
    sim::FaultPlan plan;
    plan.seed = 21;
    plan.delayResponseProb = 0.3;
    plan.delayCycles = 5000;

    Hbm a(cfg, nullptr);
    sim::FaultInjector faultA(plan);
    a.setFaultInjector(&faultA);
    HbmPort portA;
    Rng rng(17);
    std::uint64_t tag = 0;
    while (a.elapsed() < 4000) {
        for (int k = 0; k < 3; ++k) {
            const Addr addr = alignDown(rng.below(1ULL << 26), 32);
            const unsigned tx = 1 + static_cast<unsigned>(
                                        rng.below(rng.below(8) == 0 ? 48 : 4));
            if (!a.access(addr, 32 * tx, tag % 4 == 0, tag, &portA))
                break;
            ++tag;
        }
        a.tick();
    }
    ASSERT_TRUE(a.busy());

    sim::Serializer s;
    s.registerPointer(&portA);
    a.saveState(s);
    s(faultA, portA);

    Hbm b(cfg, nullptr);
    sim::FaultInjector faultB(plan);
    b.setFaultInjector(&faultB);
    HbmPort portB;
    sim::Deserializer d(s.bytes());
    d.registerPointer(&portB);
    b.restoreState(d);
    d(faultB, portB);
    d.expectEnd();

    const Cycle saved_at = a.elapsed();
    const auto finish = [](Hbm &hbm, HbmPort &port) {
        std::vector<std::pair<Cycle, std::uint64_t>> seen;
        while (hbm.busy() || port.hasResponse()) {
            while (port.hasResponse())
                seen.emplace_back(hbm.elapsed(), port.popResponse());
            hbm.tick();
        }
        return seen;
    };
    const auto restA = finish(a, portA);
    const auto restB = finish(b, portB);
    ASSERT_FALSE(restA.empty());
    EXPECT_GT(restA.back().first - saved_at, Cycle{4096});
    EXPECT_EQ(restA, restB);
    EXPECT_EQ(a.elapsed(), b.elapsed());
    for (const char *name :
         {"readBytes", "writeBytes", "rowHits", "rowMisses", "refreshes",
          "dataBusBusy", "transactions", "occupancySum", "latencySum",
          "requests", "faultDelayed"}) {
        SCOPED_TRACE(name);
        EXPECT_EQ(a.statsGroup().scalar(name).value(),
                  b.statsGroup().scalar(name).value());
    }
    EXPECT_GT(a.statsGroup().scalar("faultDelayed").value(), 0.0);
}

TEST(HbmCheckpoint, RestoreRejectsOutOfRangeCompletion)
{
    // One cold 32 B read issued at cycle 0 completes at tRCD + tCL +
    // tBurst, so the pending-completion list is the 20 bytes (count 1,
    // that cycle, request 0). Moving the cycle far past the clock must
    // fail the restore with a typed error instead of sizing the wheel.
    Hbm a(HbmConfig{}, nullptr);
    HbmPort port;
    ASSERT_TRUE(a.access(0, 32, false, 99, &port));
    a.tick();
    sim::Serializer s;
    s.registerPointer(&port);
    a.saveState(s);

    const auto &cfg = a.config();
    const std::uint64_t entry[2] = {1, cfg.tRcd + cfg.tCl + cfg.tBurst};
    const std::uint32_t index = 0;
    std::vector<std::uint8_t> needle(20);
    std::memcpy(needle.data(), entry, 16);
    std::memcpy(needle.data() + 16, &index, 4);
    std::vector<std::uint8_t> payload = s.bytes();
    const auto at = std::search(payload.begin(), payload.end(),
                                needle.begin(), needle.end());
    ASSERT_NE(at, payload.end());
    const std::uint64_t far = a.elapsed() + (std::uint64_t{1} << 40);
    std::memcpy(&*at + 8, &far, 8);

    Hbm b(HbmConfig{}, nullptr);
    sim::Deserializer d(payload);
    d.registerPointer(&port);
    EXPECT_THROW(b.restoreState(d), CheckpointError);
}

} // namespace
} // namespace gds::mem
