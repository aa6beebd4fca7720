/**
 * @file
 * Base class for every clocked hardware model in the repository.
 *
 * A Component is a named node in a hierarchy, owns a stats group mirroring
 * that hierarchy, and exposes a tick() advanced once per simulated cycle by
 * the Simulator. Components are ticked in the order they were registered;
 * models register consumers before producers (reverse dataflow order) so a
 * value written into a queue in cycle N is consumed no earlier than cycle
 * N+1, giving well-defined single-cycle stage latencies without a two-phase
 * update protocol.
 *
 * For watchdog supervision every component also carries a monotone progress
 * counter: models call progressed() whenever observable forward progress
 * happens (a request completes, a record commits, a vertex applies). The
 * Simulator samples the counters to distinguish a healthy long run from a
 * deadlocked or livelocked one, and walks the parent/child links to emit a
 * component-level diagnostic snapshot on failure.
 */

#pragma once

#include <string>
#include <vector>

#include "common/types.hh"
#include "stats/stats.hh"

namespace gds::sim
{

class Simulator;
class Serializer;
class Deserializer;

/** A named, clocked model element. */
class Component
{
  public:
    /**
     * Sentinel returned by nextEventCycle() when the component has no
     * self-scheduled future event: left unticked, it would never change
     * state again.
     */
    static constexpr Cycle kNeverEvent = ~Cycle{0};

    /**
     * @param component_name leaf name of this component
     * @param parent enclosing component, or nullptr for a root
     */
    Component(std::string component_name, Component *parent);
    virtual ~Component();

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Advance one clock cycle. */
    virtual void tick() {}

    /** True while the component still has work in flight. */
    virtual bool busy() const { return false; }

    /**
     * Earliest future tick at which this component could make observable
     * progress, as a distance in cycles from "now" (the next tick).
     *
     * Returning d means: the next d-1 tick() calls are guaranteed to be
     * pure waits — no architectural state change and no side effect other
     * than the per-cycle bookkeeping that skipCycles() replays — while the
     * d-th tick may act. 1 means "must tick next cycle"; kNeverEvent means
     * "no self-scheduled event" (only external input can wake it).
     *
     * Underestimates are safe (the component is woken early, ticks, and a
     * new horizon is computed); overestimates are correctness bugs because
     * the Simulator replaces the skipped ticks with one skipCycles() call.
     * The default is maximally conservative for any busy component.
     */
    virtual Cycle
    nextEventCycle() const
    {
        return busy() ? 1 : kNeverEvent;
    }

    /**
     * Replay the effects of @p cycles consecutive pure-wait ticks in one
     * call: advance internal clocks and apply exactly the per-cycle stat
     * updates (idle counters, occupancy integrals, scheduled refreshes)
     * that naive ticking would have produced. Only invoked for windows the
     * component itself declared pure via nextEventCycle(). Components that
     * return true from supportsFastForward() must override this if any of
     * their per-cycle bookkeeping is observable in stats or reports.
     */
    virtual void skipCycles(Cycle cycles) { (void)cycles; }

    /**
     * Opt-in gate for the fast-forward engine. The Simulator bulk-advances
     * time only when every registered component opts in, because the
     * default Component contract ("tick() is called every cycle") allows
     * tick-driven models that are never busy() yet still observable.
     */
    virtual bool supportsFastForward() const { return false; }

    /**
     * One-line free-form state description for failure diagnostics
     * (queue occupancies, cursors, outstanding requests).
     */
    virtual std::string debugState() const { return {}; }

    /**
     * Monotone count of this component's "work units", sampled by the
     * tracer's per-component counter tracks. Defaults to the progress
     * counter; components with a more natural unit (bytes moved, records
     * routed, lanes occupied) override it.
     */
    virtual std::uint64_t activityCounter() const { return _progressCount; }

    const std::string &name() const { return _name; }

    /**
     * Hierarchical path used for trace attribution (same as the stats
     * path). Cached: returned pointer is stable and cheap enough for the
     * per-tick DPRINTF attribution scope.
     */
    const char *tracePath() const;

    Component *parent() const { return _parent; }
    const std::vector<Component *> &children() const { return _children; }

    /**
     * Record @p units of observable forward progress at once. @p at is
     * the component's local cycle when known (0 when the caller has no
     * clock); only its maximum is retained, for diagnostics.
     */
    void
    progressed(Cycle at = 0, std::uint64_t units = 1)
    {
        _progressCount += units;
        if (at > _lastProgressAt)
            _lastProgressAt = at;
    }

    /** Monotone sum of progressed() units on this component alone. */
    std::uint64_t progressCount() const { return _progressCount; }

    /** Largest cycle stamp passed to progressed() (component-local clock). */
    Cycle lastProgressAt() const { return _lastProgressAt; }

    /** Sum of progress counters over this component and all descendants. */
    std::uint64_t subtreeProgress() const;

    /** True if this component or any descendant reports busy(). */
    bool subtreeBusy() const;

    /**
     * Serialize every run-mutable datum of this component into @p s so a
     * later restoreState() resumes bit-exactly: queue contents, cursors,
     * local clocks, RNG streams, plus the base-class progress counters
     * and directly-registered stats. Overrides forward to their class's
     * one static `fields(self, ar)` list (see sim/checkpoint.hh), which
     * starts with Component::fields and names child components after
     * the class's own state. Configuration-derived state (geometry,
     * capacities, wiring) is rebuilt by the constructor and must NOT be
     * serialized.
     */
    virtual void saveState(Serializer &s) const;

    /**
     * Walk the same field list as saveState(), restoring each field.
     * @throws CheckpointError (via Deserializer) on any layout mismatch.
     */
    virtual void restoreState(Deserializer &d);

    /** The base-class checkpoint fields: progress counters and the
     *  stats registered directly on this component's group. */
    template <typename Self, typename Ar>
    static void
    fields(Self &self, Ar &ar)
    {
        ar(self._progressCount, self._lastProgressAt, self._stats);
    }

    /** Stats group for this component (child of the parent's group). */
    stats::Group &statsGroup() { return _stats; }
    const stats::Group &statsGroup() const { return _stats; }

  private:
    // gds-ckpt: skip(_name) construction-time name
    std::string _name;
    // gds-ckpt: skip(_parent) construction-time wiring
    Component *_parent;
    // gds-ckpt: skip(_children) construction-time wiring; each child
    // checkpoints its own state
    std::vector<Component *> _children;
    std::uint64_t _progressCount = 0;
    Cycle _lastProgressAt = 0;
    stats::Group _stats;
    // gds-ckpt: skip(_tracePath) lazily built from the names above
    mutable std::string _tracePath;
};

} // namespace gds::sim
