/**
 * @file
 * Inter-stage communication primitives.
 *
 * BoundedQueue models a hardware FIFO with a fixed capacity; a full queue
 * exerts backpressure (the producer must check canPush()). DelayQueue adds
 * a fixed pipeline latency: an element pushed at cycle T becomes visible to
 * the consumer at cycle T + latency, modelling SRAM/eDRAM access pipelines.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/error.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace gds::sim
{

/**
 * Fixed-capacity FIFO with backpressure, stored in a power-of-two ring
 * (capacity() rounded up) so push/pop are a masked index update. The
 * configured capacity, not the slot count, bounds occupancy.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t queue_capacity)
        : _capacity(queue_capacity),
          slots(std::bit_ceil(queue_capacity)),
          mask(slots.size() - 1)
    {
        gds_assert(_capacity > 0, "queue capacity must be positive");
    }

    bool canPush() const { return count < _capacity; }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return _capacity; }

    void
    push(T value)
    {
        gds_assert(canPush(), "push into full queue (capacity %zu)",
                   _capacity);
        slots[(head + count) & mask] = std::move(value);
        ++count;
    }

    const T &
    front() const
    {
        gds_assert(count != 0, "front of empty queue");
        return slots[head];
    }

    T &
    front()
    {
        gds_assert(count != 0, "front of empty queue");
        return slots[head];
    }

    T
    pop()
    {
        gds_assert(count != 0, "pop from empty queue");
        T value = std::move(slots[head]);
        head = (head + 1) & mask;
        --count;
        return value;
    }

    /** Element @p i places behind the head (0 is the front). */
    const T &
    operator[](std::size_t i) const
    {
        gds_assert(i < count, "index %zu of a %zu-element queue", i, count);
        return slots[(head + i) & mask];
    }

    /**
     * Remove element @p i, keeping FIFO order. The i elements ahead of it
     * each move one slot back and the head advances, so removing from
     * near the front (a scheduler's pick inside a lookahead window) costs
     * O(i), not O(size).
     */
    void
    eraseAt(std::size_t i)
    {
        gds_assert(i < count, "erase of index %zu in a %zu-element queue",
                   i, count);
        for (std::size_t j = i; j > 0; --j)
            slots[(head + j) & mask] = std::move(slots[(head + j - 1) & mask]);
        head = (head + 1) & mask;
        --count;
    }

    /**
     * Checkpoint fields; capacity is configuration, only contents move.
     * The bytes are the element count then the elements in FIFO order,
     * the same image a std::deque of the same contents writes.
     */
    template <typename Self, typename Ar>
    static void
    fields(Self &q, Ar &ar)
    {
        std::uint64_t n = q.count;
        ar(n);
        if constexpr (Ar::kRestoring) {
            gds_require(n <= q._capacity, CheckpointError,
                        "checkpoint queue holds %llu elements, capacity %zu",
                        static_cast<unsigned long long>(n), q._capacity);
            q.head = 0;
            q.count = static_cast<std::size_t>(n);
        }
        for (std::size_t i = 0; i < n; ++i)
            ar(q.slots[(q.head + i) & q.mask]);
    }

  private:
    std::size_t _capacity;
    std::vector<T> slots;
    std::size_t mask;
    std::size_t head = 0;  ///< slot of the oldest element
    std::size_t count = 0; ///< elements queued
};

/**
 * FIFO whose elements become visible only after a fixed latency.
 * The owner must call tick() once per cycle.
 */
template <typename T>
class DelayQueue
{
  public:
    DelayQueue(std::size_t queue_capacity, Cycle delay_cycles)
        : _capacity(queue_capacity), delay(delay_cycles)
    {
        gds_assert(_capacity > 0, "queue capacity must be positive");
    }

    void tick() { ++now; }

    /**
     * Advance the local clock by @p cycles at once, in place of that many
     * tick() calls. The caller must have established (via cyclesUntilReady)
     * that no element matures strictly inside the skipped window.
     */
    void
    advance(Cycle cycles)
    {
        gds_assert(entries.empty() ||
                       entries.front().readyAt >= now + cycles,
                   "advance() across a matured delay-queue element");
        now += cycles;
    }

    /**
     * Ticks until the head element matures: 0 when ready() already holds,
     * the distance in tick() calls otherwise, or kNever when empty.
     */
    static constexpr Cycle kNever = ~Cycle{0};
    Cycle
    cyclesUntilReady() const
    {
        if (entries.empty())
            return kNever;
        return entries.front().readyAt <= now ? 0
                                              : entries.front().readyAt - now;
    }

    bool canPush() const { return entries.size() < _capacity; }
    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    /** True when the head element has matured and can be popped. */
    bool
    ready() const
    {
        return !entries.empty() && entries.front().readyAt <= now;
    }

    void
    push(T value)
    {
        gds_assert(canPush(), "push into full delay queue (capacity %zu)",
                   _capacity);
        entries.push_back(Entry{now + delay, std::move(value)});
    }

    const T &
    front() const
    {
        gds_assert(ready(), "front of non-ready delay queue");
        return entries.front().value;
    }

    T
    pop()
    {
        gds_assert(ready(), "pop from non-ready delay queue");
        T value = std::move(entries.front().value);
        entries.pop_front();
        return value;
    }

    /** Checkpoint fields: local clock plus in-flight entries (their
     *  readyAt stamps are relative to that clock, so both travel). */
    template <typename Self, typename Ar>
    static void
    fields(Self &q, Ar &ar)
    {
        ar(q.now, q.entries);
    }

  private:
    struct Entry
    {
        Cycle readyAt;
        T value;

        template <typename Self, typename Ar>
        static void
        fields(Self &e, Ar &ar)
        {
            ar(e.readyAt, e.value);
        }
    };

    std::size_t _capacity;
    Cycle delay;
    Cycle now = 0;
    std::deque<Entry> entries;
};

} // namespace gds::sim
