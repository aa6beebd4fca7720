/**
 * @file
 * Unit tests for the simulation kernel: component hierarchy, tick ordering,
 * run loop termination, and the bounded/delay queues.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <utility>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/component.hh"
#include "sim/queues.hh"
#include "sim/simulator.hh"

namespace gds::sim
{
namespace
{

// gds-lint: allow(checkpoint-hooks) test double lives only inside one
// run loop; the checkpoint tests use the real accelerator models
class CountingComponent : public Component
{
  public:
    CountingComponent(std::string n, Component *parent,
                      std::vector<std::string> *order)
        : Component(std::move(n), parent), tickOrder(order)
    {}

    void
    tick() override
    {
        ++ticks;
        if (tickOrder)
            tickOrder->push_back(name());
    }

    bool busy() const override { return pendingWork > 0; }

    // Test predicates mutate state the horizon cannot see, so every cycle
    // is an event. supportsFastForward() stays false: these runs must tick
    // naively even under fast-forwarding limits.
    Cycle nextEventCycle() const override { return 1; }

    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(ticks);
    }

    std::string
    debugState() const override
    {
        return "ticks " + std::to_string(ticks) + ", pending " +
               std::to_string(pendingWork);
    }

    int ticks = 0;
    int pendingWork = 0;

  private:
    std::vector<std::string> *tickOrder;
};

TEST(Component, StatsGroupMirrorsHierarchy)
{
    CountingComponent top("accel", nullptr, nullptr);
    CountingComponent child("pe", &top, nullptr);
    EXPECT_EQ(top.statsGroup().path(), "accel");
    EXPECT_EQ(child.statsGroup().path(), "accel.pe");
}

TEST(Simulator, TicksInRegistrationOrder)
{
    std::vector<std::string> order;
    CountingComponent a("a", nullptr, &order);
    CountingComponent b("b", nullptr, &order);
    Simulator sim;
    sim.add(&b);
    sim.add(&a);
    sim.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "b");
    EXPECT_EQ(order[1], "a");
    EXPECT_EQ(sim.cycle(), 1u);
}

TEST(Simulator, RunUntilPredicate)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    const RunReport report = sim.run([&] { return c.ticks >= 10; });
    EXPECT_EQ(report.outcome, RunOutcome::Completed);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.cycles, 10u);
    EXPECT_EQ(c.ticks, 10);
    EXPECT_NO_THROW(report.throwIfFailed());
}

TEST(Simulator, RunawayGuardReportsCycleLimit)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 100;
    // Keep "progressing" so the stall detector stays quiet; only the
    // budget can end this run.
    const RunReport report = sim.run(
        [&] {
            c.progressed();
            return false;
        },
        limits);
    EXPECT_EQ(report.outcome, RunOutcome::CycleLimit);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.cycles, 100u);
    EXPECT_FALSE(report.components.empty());
    EXPECT_THROW(report.throwIfFailed(), CycleLimitError);
}

TEST(Simulator, StallWithIdleComponentsIsDeadlock)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 1'000'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::Deadlock);
    EXPECT_LT(report.cycles, limits.maxCycles);
    ASSERT_FALSE(report.components.empty());
    EXPECT_EQ(report.components[0].path, "c");
    EXPECT_FALSE(report.components[0].busy);
    EXPECT_THROW(report.throwIfFailed(), DeadlockError);
}

TEST(Simulator, StallWithBusyComponentsIsLivelock)
{
    CountingComponent c("c", nullptr, nullptr);
    c.pendingWork = 1; // forever busy, never progressing
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 1'000'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::Livelock);
    ASSERT_FALSE(report.components.empty());
    EXPECT_TRUE(report.components[0].busy);
    EXPECT_THROW(report.throwIfFailed(), LivelockError);
}

TEST(Simulator, ProgressDefersStallDetection)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 100'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    // Progress happens until cycle 5000; the run must last well past the
    // first stall window before the watchdog finally fires.
    const RunReport report = sim.run(
        [&] {
            if (c.ticks < 5000)
                c.progressed();
            return false;
        },
        limits);
    EXPECT_EQ(report.outcome, RunOutcome::Deadlock);
    EXPECT_GT(report.cycles, 5000u);
    EXPECT_GE(report.lastProgressCycle, 4990u);
}

TEST(Simulator, AnyBusyReflectsComponents)
{
    CountingComponent a("a", nullptr, nullptr);
    CountingComponent b("b", nullptr, nullptr);
    Simulator sim;
    sim.add(&a);
    sim.add(&b);
    EXPECT_FALSE(sim.anyBusy());
    b.pendingWork = 1;
    EXPECT_TRUE(sim.anyBusy());
}

// --- Fast-forward engine -------------------------------------------------

/** Component whose waits are provable: events fire every `period` cycles
 *  of its local clock, everything in between is a pure wait. */
// gds-lint: allow(checkpoint-hooks) test double lives only inside one
// run loop; the checkpoint tests use the real accelerator models
class PeriodicComponent : public Component
{
  public:
    PeriodicComponent(std::string n, Cycle event_period)
        : Component(std::move(n), nullptr), period(event_period)
    {}

    void
    tick() override
    {
        ++realTicks;
        ++localCycle;
        if (localCycle % period == 0) {
            ++events;
            progressed(localCycle);
        }
    }

    bool busy() const override { return true; }

    Cycle
    nextEventCycle() const override
    {
        // Local clock is at `localCycle`; tick d runs with clock
        // localCycle + d, so the next multiple of `period` is event tick
        // period - localCycle % period.
        return period - localCycle % period;
    }

    void skipCycles(Cycle cycles) override { localCycle += cycles; }
    bool supportsFastForward() const override { return true; }
    std::string debugState() const override { return "periodic"; }
    std::uint64_t activityCounter() const override { return events; }

    Cycle period;
    Cycle localCycle = 0;
    std::uint64_t events = 0;
    std::uint64_t realTicks = 0;
};

TEST(FastForward, EligibilityRequiresUnanimousOptIn)
{
    PeriodicComponent fast("fast", 10);
    CountingComponent naive("naive", nullptr, nullptr);
    Simulator sim;
    sim.add(&fast);
    EXPECT_TRUE(sim.fastForwardEligible());
    sim.add(&naive);
    EXPECT_FALSE(sim.fastForwardEligible());
}

TEST(FastForward, EmptySimulatorIsNotEligible)
{
    Simulator sim;
    EXPECT_FALSE(sim.fastForwardEligible());
}

TEST(FastForward, SkipsToEventsWithExactCycleCount)
{
    PeriodicComponent c("c", 1000);
    Simulator sim;
    sim.add(&c);
    const RunReport report = sim.run([&] { return c.events >= 7; });
    EXPECT_EQ(report.outcome, RunOutcome::Completed);
    EXPECT_EQ(report.cycles, 7000u);
    EXPECT_EQ(sim.cycle(), 7000u);
    EXPECT_EQ(c.localCycle, 7000u);
    // The bulk of every window was skipped, not ticked.
    EXPECT_LT(c.realTicks, 100u);
}

TEST(FastForward, DisabledLimitsTickNaively)
{
    PeriodicComponent c("c", 1000);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.fastForward = false;
    const RunReport report = sim.run([&] { return c.events >= 2; }, limits);
    EXPECT_EQ(report.cycles, 2000u);
    EXPECT_EQ(c.localCycle, 2000u);
}

TEST(FastForward, MixedFleetTicksEveryComponentEveryCycle)
{
    PeriodicComponent fast("fast", 100);
    CountingComponent naive("naive", nullptr, nullptr);
    Simulator sim;
    sim.add(&fast);
    sim.add(&naive);
    const RunReport report = sim.run([&] {
        naive.progressed();
        return fast.events >= 3;
    });
    EXPECT_EQ(report.cycles, 300u);
    EXPECT_EQ(naive.ticks, 300); // no tick was skipped
}

TEST(FastForward, WatchdogStillFiresAcrossSkippedWindows)
{
    // The first event is far beyond the stall window, so the detector
    // must trip inside a skippable stretch -- at the same cycle as a
    // naive run, with the same busy-based classification.
    RunLimits limits;
    limits.maxCycles = 1'000'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    const RunReport naive_report = [&] {
        PeriodicComponent n("n", 10'000);
        Simulator ns;
        ns.add(&n);
        RunLimits nl = limits;
        nl.fastForward = false;
        return ns.run([] { return false; }, nl);
    }();
    PeriodicComponent c("c", 10'000);
    Simulator sim;
    sim.add(&c);
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::Livelock);
    EXPECT_EQ(report.outcome, naive_report.outcome);
    EXPECT_EQ(report.cycles, naive_report.cycles);
}

TEST(FastForward, CycleLimitHonoredExactly)
{
    PeriodicComponent c("c", 1'000'000); // next event far past the budget
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 1234;
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::CycleLimit);
    EXPECT_EQ(report.cycles, 1234u);
    EXPECT_EQ(c.localCycle, 1234u);
}

TEST(BoundedQueue, FifoOrderAndBackpressure)
{
    BoundedQueue<int> q(3);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.canPush());
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_FALSE(q.canPush());
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_TRUE(q.canPush());
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueueDeath, OverflowPanics)
{
    BoundedQueue<int> q(1);
    q.push(1);
    EXPECT_DEATH(q.push(2), "full queue");
}

TEST(BoundedQueueDeath, UnderflowPanics)
{
    BoundedQueue<int> q(1);
    EXPECT_DEATH(q.pop(), "empty queue");
}

TEST(BoundedQueue, RingWrapsAroundWithNonPowerOfTwoCapacity)
{
    // Capacity 5 rounds up to 8 ring slots; varying fill levels over many
    // rounds walk the head through every slot and across the wrap point.
    BoundedQueue<int> q(5);
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 12; ++round) {
        const int fill = 1 + round % 5;
        for (int i = 0; i < fill; ++i)
            q.push(next_in++);
        EXPECT_EQ(q.size(), static_cast<std::size_t>(fill));
        EXPECT_EQ(q.front(), next_out);
        while (!q.empty())
            EXPECT_EQ(q.pop(), next_out++);
    }
    EXPECT_EQ(next_out, next_in);
}

TEST(BoundedQueue, ClearEmptiesAWrappedRing)
{
    BoundedQueue<int> q(3);
    for (int i = 0; i < 3; ++i)
        q.push(i);
    q.pop(); // the head leaves slot 0, so the ring wraps below
    q.push(3);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    for (int i = 10; i < 13; ++i)
        q.push(i);
    EXPECT_FALSE(q.canPush());
    EXPECT_EQ(q.pop(), 10);
    EXPECT_EQ(q.front(), 11);
}

TEST(BoundedQueue, BackpressureAtCapacityNotSlotCount)
{
    BoundedQueue<int> q(5);
    EXPECT_EQ(q.capacity(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(q.canPush());
        q.push(i);
    }
    EXPECT_FALSE(q.canPush()); // 3 ring slots still free, but full
    q.pop();
    EXPECT_TRUE(q.canPush());
    q.push(5);
    EXPECT_FALSE(q.canPush());
}

TEST(BoundedQueue, EraseAtKeepsFifoOrderAcrossTheWrap)
{
    // Capacity 6 rounds up to 8 ring slots. Each round refills, erases
    // one element at a rotating index and pops a varying number, so the
    // head walks every slot and erases land on both sides of the wrap
    // point. A std::deque holds the expected contents.
    BoundedQueue<int> q(6);
    std::deque<int> expected;
    int next = 0;
    for (int round = 0; round < 48; ++round) {
        while (q.canPush()) {
            q.push(next);
            expected.push_back(next++);
        }
        const std::size_t i = static_cast<std::size_t>(round) % q.size();
        q.eraseAt(i);
        expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(i));
        for (int k = 0; k < round % 4; ++k) {
            EXPECT_EQ(q.pop(), expected.front());
            expected.pop_front();
        }
        ASSERT_EQ(q.size(), expected.size());
        for (std::size_t j = 0; j < expected.size(); ++j)
            EXPECT_EQ(q[j], expected[j]);
    }
}

TEST(BoundedQueue, CheckpointMatchesDequeImageAndRoundTrips)
{
    // Rotate the head off slot 0 first so the saved image must be
    // reassembled across the wrap point.
    BoundedQueue<std::uint64_t> q(5);
    for (std::uint64_t i = 0; i < 4; ++i)
        q.push(i);
    q.pop();
    q.pop();
    for (std::uint64_t i = 4; i < 7; ++i)
        q.push(i);
    const std::deque<std::uint64_t> contents{2, 3, 4, 5, 6};

    Serializer ring_bytes;
    ring_bytes(q);
    Serializer deque_bytes;
    deque_bytes(contents);
    EXPECT_EQ(ring_bytes.bytes(), deque_bytes.bytes());

    BoundedQueue<std::uint64_t> restored(5);
    restored.push(99); // stale contents are replaced, not appended to
    Deserializer d(ring_bytes.bytes());
    d(restored);
    d.expectEnd();
    EXPECT_EQ(restored.size(), 5u);
    EXPECT_FALSE(restored.canPush());
    for (const std::uint64_t v : contents)
        EXPECT_EQ(restored.pop(), v);

    // An image larger than the configured capacity is a typed error.
    BoundedQueue<std::uint64_t> small(4);
    Deserializer too_big(ring_bytes.bytes());
    EXPECT_THROW(too_big(small), CheckpointError);
}

TEST(DelayQueue, ElementsMatureAfterLatency)
{
    DelayQueue<int> q(4, 3);
    q.push(42, 10);
    EXPECT_FALSE(q.ready(10));
    EXPECT_EQ(q.cyclesUntilReady(10), 3u);
    EXPECT_FALSE(q.ready(11));
    EXPECT_FALSE(q.ready(12));
    EXPECT_EQ(q.cyclesUntilReady(12), 1u);
    EXPECT_TRUE(q.ready(13));
    EXPECT_EQ(q.cyclesUntilReady(13), 0u);
    EXPECT_EQ(q.pop(13), 42);
    EXPECT_EQ(q.cyclesUntilReady(13), DelayQueue<int>::kNever);
}

TEST(DelayQueue, ZeroLatencyIsImmediatelyReady)
{
    DelayQueue<int> q(4, 0);
    q.push(7, 5);
    EXPECT_TRUE(q.ready(5));
    EXPECT_EQ(q.pop(5), 7);
}

TEST(DelayQueue, PreservesOrderWithMixedMaturity)
{
    DelayQueue<int> q(8, 2);
    q.push(1, 0);
    q.push(2, 1);
    EXPECT_TRUE(q.ready(2));
    EXPECT_EQ(q.pop(2), 1);
    EXPECT_FALSE(q.ready(2)); // 2 needs one more cycle
    EXPECT_TRUE(q.ready(3));
    EXPECT_EQ(q.pop(3), 2);
}

TEST(DelayQueueDeath, PopBeforeMaturityPanics)
{
    DelayQueue<int> q(4, 5);
    q.push(1, 0);
    EXPECT_DEATH(q.pop(4), "non-ready");
}


// --- Checkpoint field visitor ----------------------------------------------

enum class Mode : std::uint8_t
{
    Idle,
    Busy = 7,
};

/** Padded and float-carrying: declares its own field list. */
struct Sample
{
    std::uint8_t tag = 0;
    double weight = 0.0;
    std::uint32_t id = 0;

    template <typename Self, typename Ar>
    static void
    fields(Self &s, Ar &ar)
    {
        ar(s.tag, s.weight, s.id);
    }

    bool operator==(const Sample &) const = default;
};

/** One field of every kind the shared overload set covers. */
struct EveryKind
{
    std::uint64_t word = 0;
    float ratio = 0.0f;
    bool flag = false;
    Mode mode = Mode::Idle;
    std::vector<std::uint32_t> vec;
    std::deque<std::uint64_t> deq;
    std::vector<std::vector<std::uint16_t>> nested;
    std::vector<bool> bits;
    std::deque<std::pair<Addr, unsigned>> pairs;
    std::vector<Sample> samples;
    std::vector<int> fixed = std::vector<int>(3);
    int *ptr = nullptr;
    int *none = nullptr;

    template <typename Self, typename Ar>
    static void
    fields(Self &e, Ar &ar)
    {
        ar(e.word, e.ratio, e.flag, e.mode, Marker{0x54455354}, e.vec,
           e.deq, e.nested, e.bits, e.pairs, e.samples, fixedCount(e.fixed),
           e.ptr, e.none);
    }

    bool operator==(const EveryKind &) const = default;
};

TEST(FieldVisitor, EveryKindRoundTrips)
{
    int targets[2] = {0, 0};
    EveryKind in;
    in.word = 0x0123456789abcdefULL;
    in.ratio = 1.5f;
    in.flag = true;
    in.mode = Mode::Busy;
    in.vec = {1, 2, 3};
    in.deq = {4, 5};
    in.nested = {{1}, {}, {2, 3}};
    in.bits = {true, false, true};
    in.pairs = {{10, 1}, {20, 2}};
    in.samples = {{1, 0.25, 9}, {2, -3.0, 8}};
    in.fixed = {7, 8, 9};
    in.ptr = &targets[1];

    Serializer s;
    s.registerPointer(&targets[0]);
    s.registerPointer(&targets[1]);
    s(in);

    EveryKind out;
    out.vec = {99}; // stale contents are replaced, not appended to
    out.none = &targets[0];
    Deserializer d(s.bytes());
    d.registerPointer(&targets[0]);
    d.registerPointer(&targets[1]);
    d(out);
    d.expectEnd();
    EXPECT_EQ(out, in);
}

TEST(FieldVisitor, PaddedStructWritesNoPaddingBytes)
{
    // Same values over different padding garbage: identical bytes, and
    // only the 1 + 8 + 4 value bytes.
    Sample a;
    Sample b;
    std::memset(static_cast<void *>(&a), 0x00, sizeof a);
    std::memset(static_cast<void *>(&b), 0xff, sizeof b);
    a.tag = b.tag = 3;
    a.weight = b.weight = 2.5;
    a.id = b.id = 11;
    Serializer sa;
    sa(a);
    Serializer sb;
    sb(b);
    EXPECT_EQ(sa.bytes(), sb.bytes());
    EXPECT_EQ(sa.bytes().size(), 13u);
}

TEST(FieldVisitor, FixedCountMismatchIsTypedError)
{
    const std::vector<int> three{1, 2, 3};
    Serializer s;
    s(fixedCount(three));
    std::vector<int> two(2);
    Deserializer d(s.bytes());
    EXPECT_THROW(d(fixedCount(two)), CheckpointError);
}

TEST(FieldVisitor, MarkerMismatchIsTypedError)
{
    Serializer s;
    s(Marker{1});
    Deserializer d(s.bytes());
    EXPECT_THROW(d(Marker{2}), CheckpointError);
}

TEST(FieldVisitor, UnregisteredPointerIsTypedError)
{
    int target = 0;
    int *p = &target;
    Serializer s;
    s.registerPointer(&target);
    s(p);
    Deserializer d(s.bytes()); // nothing registered on this side
    EXPECT_THROW(d(p), CheckpointError);
}

} // namespace
} // namespace gds::sim
