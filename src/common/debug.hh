/**
 * @file
 * gem5-style debug tracing. Categories ("flags") are enabled at runtime
 * through the GDS_DEBUG environment variable, e.g.
 *
 *   GDS_DEBUG=Dispatch,Prefetch ./examples/gds_sim --algo bfs --rmat 12
 *
 * and emitted with DPRINTF(Flag, "format", args...). Disabled categories
 * cost one predictable branch, so tracing can stay in hot code.
 */

#pragma once

#include <string>

#include "common/types.hh"

namespace gds::debug
{

/** Trace categories, one bit each. */
enum class Flag : unsigned
{
    Dispatch = 0, ///< DE workload dispatch decisions
    Prefetch,     ///< Vpref/Epref request issue and commit
    Reduce,       ///< UE reduce pipeline activity
    Apply,        ///< Apply-phase group/list flow
    Memory,       ///< HBM request/response traffic
    Phase,        ///< phase/iteration transitions
    Watchdog,     ///< stall detection and failure-diagnostic snapshots
    Fault,        ///< fault-injection decisions
    NumFlags,
};

/** True if @p flag was named in GDS_DEBUG (or GDS_DEBUG=All). */
bool enabled(Flag flag);

/**
 * True if any flag at all is active. One relaxed atomic load after the
 * first call; hot loops use it to hoist per-component attribution scopes
 * (and any other trace-only work) behind a single predictable branch.
 */
bool anyEnabled();

/** Name of a flag as accepted in GDS_DEBUG. */
const char *flagName(Flag flag);

/** Parse a GDS_DEBUG-style comma list into the active set (testing and
 *  programmatic use; the environment is parsed on first query). */
void setActiveFlags(const std::string &comma_list);

// ---------------------------------------------------------------------
// Trace attribution context (thread-local).
//
// Every emitted line is prefixed with the current simulated cycle and
// the emitting component's path, so interleaved multi-component traces
// stay attributable. The Simulator stamps the cycle each step() and
// scopes the component around each tick; components that tick children
// directly (e.g. GdsAccel ticking its Hbm) re-scope themselves so their
// lines carry their own name.
// ---------------------------------------------------------------------

/** Stamp the simulated cycle attributed to subsequent lines. */
void setTraceCycle(Cycle cycle);

/** The cycle attributed to lines emitted now (0 outside a run). */
Cycle traceCycle();

/** The component path attributed to lines now, or nullptr for none.
 *  The pointed-to string must outlive the scope (components own theirs). */
const char *traceComponent();

/** RAII component-attribution scope; restores the previous one. */
class ScopedTraceComponent
{
  public:
    explicit ScopedTraceComponent(const char *path);
    ~ScopedTraceComponent();

    ScopedTraceComponent(const ScopedTraceComponent &) = delete;
    ScopedTraceComponent &operator=(const ScopedTraceComponent &) = delete;

  private:
    const char *previous;
};

/**
 * Secondary consumer of emitted lines (thread-local). The obs tracer
 * installs one so DPRINTF output also lands in the event trace with
 * cycle + component attribution; nullptr detaches.
 */
using LineSink = void (*)(void *obj, Flag flag, Cycle cycle,
                          const char *component, const char *text);
void setLineSink(LineSink sink, void *obj);

namespace detail
{
void vprint(Flag flag, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));
} // namespace detail

/** Emit a trace line when the category is active. */
#define DPRINTF(flag, ...)                                                 \
    do {                                                                   \
        if (::gds::debug::enabled(::gds::debug::Flag::flag))               \
            ::gds::debug::detail::vprint(::gds::debug::Flag::flag,         \
                                         __VA_ARGS__);                     \
    } while (0)

} // namespace gds::debug
