/**
 * @file
 * Cycle-resolved event tracing in the Chrome trace-event format, loadable
 * directly into Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * The Tracer records three event kinds:
 *  - duration events (phase B/E pairs) for phases, slices and iterations;
 *  - instant events for incidents (watchdog verdicts, injected faults,
 *    DPRINTF lines routed through the tracer);
 *  - counter events for per-component activity and sampled stats.
 *
 * One trace "thread" (track) is created per registered sim::Component;
 * timestamps are simulated cycles (rendered as microseconds, so 1 cycle
 * reads as 1 us in the UI — the accelerator clock is 1 GHz, so the
 * displayed "1 ms" is really 1 M cycles = 1 ms of simulated time x1000).
 *
 * Discipline: tracing follows the DPRINTF rule — when no tracer is
 * active, instrumentation costs exactly one predictable branch
 * (`if (Tracer *t = activeTracer())`), so hooks can stay in hot model
 * code. The active tracer is thread-local: concurrent harness workers
 * each trace (or not) their own cell.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace gds::obs
{

/** Index of one trace track (a named "thread" in the trace UI). */
using TrackId = std::uint32_t;

class Tracer
{
  public:
    explicit Tracer(std::string process_name = "gds");

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Get-or-create the track named @p name (e.g. a component path). */
    TrackId track(const std::string &name);

    const std::string &trackName(TrackId id) const;
    std::size_t trackCount() const { return trackNames.size(); }

    /** Open a duration event (Chrome phase "B"). */
    void begin(TrackId track_id, std::string name, Cycle cycle);

    /** Close the innermost open duration event on @p track_id ("E"). */
    void end(TrackId track_id, Cycle cycle);

    /** A zero-duration incident ("i"), with an optional free-text note. */
    void instant(TrackId track_id, std::string name, Cycle cycle,
                 std::string detail = {});

    /** One point of the counter series @p series on @p track_id ("C"). */
    void counter(TrackId track_id, const std::string &series, double value,
                 Cycle cycle);

    /**
     * Close every still-open duration event at @p cycle, innermost first.
     * Called after a watchdog-aborted run so the emitted JSON stays
     * well nested and loadable.
     */
    void endAllOpen(Cycle cycle);

    std::size_t eventCount() const { return events.size(); }
    std::size_t openEventCount() const;

    /**
     * True when every recorded E closes the innermost open B on its
     * track and no B is left open. @p error names the first violation.
     */
    bool wellNested(std::string *error = nullptr) const;

    /**
     * Serialize as {"traceEvents": [...], ...}. Emits per-track
     * thread_name metadata first so the UI labels component tracks.
     */
    void write(std::ostream &os) const;

    /** write() to @p path; returns false (and warns) on I/O failure. */
    bool writeFile(const std::string &path) const;

    /**
     * Checkpoint hook: the full event log and track table travel with
     * the simulator state, so a resumed run appends to a trace identical
     * to the uninterrupted one. Restoring track names in recorded order
     * preserves TrackId assignment for every later track() call.
     */
    template <typename SER>
    void
    saveState(SER &s) const
    {
        s.writeU64(trackNames.size());
        for (const std::string &name : trackNames)
            s.writeString(name);
        for (const unsigned depth : openDepth)
            s.writeU64(depth);
        s.writeU64(events.size());
        for (const Event &e : events) {
            s.writeU8(static_cast<std::uint8_t>(e.phase));
            s.writeU32(e.tid);
            s.writeU64(e.ts);
            s.writeString(e.name);
            s.writeString(e.detail);
            s.writeDouble(e.value);
        }
    }

    template <typename DES>
    void
    restoreState(DES &d)
    {
        // A track is a name length plus a depth; an event at least its
        // phase, tid, ts, two string lengths and value.
        const std::size_t tracks = d.readCount(16);
        trackNames.clear();
        trackNames.reserve(tracks);
        for (std::size_t t = 0; t < tracks; ++t)
            trackNames.push_back(d.readString());
        openDepth.assign(tracks, 0);
        for (unsigned &depth : openDepth)
            depth = static_cast<unsigned>(d.readU64());
        const std::size_t n = d.readCount(37);
        events.clear();
        events.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            Event e;
            e.phase = static_cast<char>(d.readU8());
            e.tid = d.readU32();
            e.ts = d.readU64();
            e.name = d.readString();
            e.detail = d.readString();
            e.value = d.readDouble();
            events.push_back(std::move(e));
        }
    }

  private:
    struct Event
    {
        char phase;         ///< 'B', 'E', 'i' or 'C'
        TrackId tid;
        Cycle ts;
        std::string name;   ///< empty for 'E'
        std::string detail; ///< instant note, unused otherwise
        double value = 0.0; ///< counter value
    };

    std::string processName;
    std::vector<std::string> trackNames;
    std::vector<unsigned> openDepth; ///< open B events per track
    std::vector<Event> events;
};

/** The thread's active tracer, or nullptr when tracing is off. */
Tracer *activeTracer();

/**
 * Install @p tracer as the thread's active tracer for the lifetime of the
 * scope; also routes DPRINTF lines into it as instant events. Restores
 * the previous tracer (usually none) on destruction.
 */
class ScopedActiveTracer
{
  public:
    explicit ScopedActiveTracer(Tracer *tracer);
    ~ScopedActiveTracer();

    ScopedActiveTracer(const ScopedActiveTracer &) = delete;
    ScopedActiveTracer &operator=(const ScopedActiveTracer &) = delete;

  private:
    Tracer *previous;
};

} // namespace gds::obs
