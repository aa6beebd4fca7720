/**
 * @file
 * Interval statistics sampler: snapshots a registered set of probes every
 * N simulated cycles into a columnar stats::TimeSeries, so dynamic
 * behaviour (bandwidth ramps, frontier drain, queue pressure) is visible
 * instead of being averaged away by the end-of-run stats dump.
 *
 * Probes are free-form `double()` callables; convenience registrars
 * cover the common cases (a stats::Scalar, or every scalar under a
 * stats::Group with dotted column names). The Simulator drives tick()
 * once per cycle; with no interval configured that is one predictable
 * branch, same discipline as DPRINTF.
 *
 * Counter-style probes (bytes moved, conflicts) sample cumulatively —
 * plot the per-interval derivative for a rate; occupancy-style probes
 * (queue sizes, frontier) sample instantaneously.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"
#include "stats/stats.hh"
#include "stats/timeseries.hh"

namespace gds::obs
{

class Sampler
{
  public:
    Sampler() = default;

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Sample every @p cycles cycles; 0 disables sampling entirely. */
    void
    setInterval(Cycle cycles)
    {
        _interval = cycles;
        _nextBoundary = 0; // re-derive the boundary on the next tick
    }
    Cycle interval() const { return _interval; }

    /**
     * Register a probe column. @throws ConfigError after the first
     * snapshot (the column set is sealed) or on duplicate names.
     */
    void add(std::string name, std::function<double()> probe);

    /** Register a cumulative stats::Scalar (samples .value()). */
    void addScalar(std::string name, const stats::Scalar &s);

    /**
     * Register every Scalar reachable under @p group as
     * "<prefix><dotted.path>" columns (vectors and distributions are
     * skipped: one column per sampled quantity keeps the CSV plottable).
     */
    void addGroup(const stats::Group &group, const std::string &prefix);

    std::size_t probeCount() const { return probes.size(); }

    /**
     * Observer called after every recorded snapshot with the sample
     * cycle and the freshly sampled row (ordered like series().columns()
     * once sealed). The simulation service uses this to forward live
     * progress to subscribed clients; the callback runs on the
     * simulating thread, so it must be cheap and must not call back into
     * this sampler.
     */
    void
    setOnSample(
        std::function<void(Cycle, const std::vector<double> &)> callback)
    {
        onSample = std::move(callback);
    }

    /**
     * Per-cycle hook; samples when the interval divides @p cycle. The
     * cached next-boundary cycle turns the consecutive-cycle hot path
     * into one compare; the divide only runs when a boundary is reached
     * or the caller's clock jumped (first tick, interval change, rewind).
     */
    void
    tick(Cycle cycle)
    {
        if (_interval == 0)
            return;
        if (cycle < _nextBoundary && cycle + _interval > _nextBoundary)
            return; // strictly between boundaries: nothing to do
        if (cycle % _interval == 0)
            sample(cycle);
        _nextBoundary = cycle - cycle % _interval + _interval;
    }

    /**
     * Cycles from @p cycle to the next sampling boundary at or after it
     * (0 when @p cycle itself is a boundary), or DelayQueue-style never
     * when sampling is disabled. Pure function of the interval, not of
     * tick() history; the fast-forward engine uses it to clamp skips so
     * every boundary is reached by a real tick.
     */
    Cycle
    cyclesUntilNextSample(Cycle cycle) const
    {
        if (_interval == 0)
            return ~Cycle{0};
        return cycle % _interval == 0 ? 0 : _interval - cycle % _interval;
    }

    /** Snapshot every probe now (also seals the column set). */
    void sample(Cycle cycle);

    std::size_t sampleCount() const { return table.rowCount(); }
    const stats::TimeSeries &series() const { return table; }

    void writeCsv(std::ostream &os) const { table.writeCsv(os); }
    void writeJson(std::ostream &os) const { table.writeJson(os); }

    /** writeCsv() to @p path; false (and a warning) on I/O failure. */
    bool writeCsvFile(const std::string &path) const;

    /**
     * Checkpoint hook: the sealed flag plus every recorded row, so a
     * resumed run appends to an identical series. Probes are live
     * callables and cannot travel — the resume path re-registers the
     * same probes in the same order before calling restoreState(),
     * which verifies the count against the sealed column set.
     */
    template <typename SER>
    void
    saveState(SER &s) const
    {
        s.writeBool(sealed);
        const std::vector<std::string> &cols = table.columns();
        s.writeU64(cols.size());
        for (const std::string &col : cols)
            s.writeString(col);
        s.writeU64(table.rowCount());
        for (std::size_t r = 0; r < table.rowCount(); ++r) {
            s.writeU64(table.cycleAt(r));
            for (std::size_t c = 0; c < cols.size(); ++c)
                s.writeDouble(table.value(r, c));
        }
    }

    template <typename DES>
    void
    restoreState(DES &d)
    {
        sealed = d.readBool();
        const std::size_t cols = d.readCount(sizeof(std::uint64_t));
        std::vector<std::string> names;
        names.reserve(cols);
        for (std::size_t c = 0; c < cols; ++c)
            names.push_back(d.readString());
        table.clear();
        if (!names.empty())
            table.setColumns(std::move(names));
        const std::uint64_t rows = d.readU64();
        std::vector<double> values(cols);
        for (std::uint64_t r = 0; r < rows; ++r) {
            const Cycle cycle = d.readU64();
            for (double &v : values)
                v = d.readDouble();
            table.addRow(cycle, values);
        }
        if (sealed) {
            gds_require(probes.size() == table.columnCount(),
                        CheckpointError,
                        "sampler checkpoint sealed %zu columns but %zu "
                        "probes are registered",
                        table.columnCount(), probes.size());
            row.resize(probes.size());
        }
        _nextBoundary = 0; // re-derived on the next tick
    }

  private:
    struct Probe
    {
        std::string name;
        std::function<double()> fn;
    };

    Cycle _interval = 0;
    Cycle _nextBoundary = 0; ///< first cycle the fast tick() path re-checks
    bool sealed = false;
    std::function<void(Cycle, const std::vector<double> &)> onSample;
    std::vector<Probe> probes;
    std::vector<double> row; ///< scratch, avoids per-sample allocation
    stats::TimeSeries table;
};

} // namespace gds::obs
