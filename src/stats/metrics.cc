#include "stats/metrics.hh"

#include <algorithm>
#include <cstdio>

#include "common/error.hh"
#include "common/log.hh"

namespace gds::stats
{

namespace
{

/** Render a double the way Prometheus clients conventionally do: shortest
 *  round-trippable-ish decimal, no trailing zeros ("0.001", "2.5", "10"). */
std::string
renderNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

} // namespace

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

Histogram::Histogram(double lowest, double growth, int buckets)
{
    gds_require(lowest > 0, ConfigError,
                "histogram lowest bound must be > 0, got %g", lowest);
    gds_require(growth > 1, ConfigError,
                "histogram growth must be > 1, got %g", growth);
    gds_require(buckets >= 1, ConfigError,
                "histogram needs at least one bucket, got %d", buckets);
    bounds.reserve(static_cast<std::size_t>(buckets));
    double bound = lowest;
    for (int i = 0; i < buckets; ++i) {
        bounds.push_back(bound);
        bound *= growth;
    }
    counts.assign(bounds.size() + 1, 0);
}

void
Histogram::observe(double value)
{
    // Buckets grow geometrically, so a linear scan touches few entries
    // for typical latencies and stays branch-predictable; the shared
    // mutex, not the scan, is the relevant cost and it is held for tens
    // of nanoseconds.
    std::size_t idx = 0;
    while (idx < bounds.size() && value > bounds[idx])
        ++idx;
    const std::lock_guard<std::mutex> lock(mu);
    ++counts[idx];
    total += value;
    largest = std::max(largest, value);
    ++n;
}

void
Histogram::merge(const Histogram &other)
{
    gds_require(bounds == other.bounds, ConfigError,
                "cannot merge histograms with different bucket shapes");
    // Copy out under the source lock, fold in under ours: never hold
    // both at once, so concurrent merges in either direction can't
    // deadlock (at the cost of a momentarily fuzzy view, which scrape
    // semantics tolerate).
    std::vector<std::uint64_t> other_counts;
    double other_total, other_largest;
    std::uint64_t other_n;
    {
        const std::lock_guard<std::mutex> lock(other.mu);
        other_counts = other.counts;
        other_total = other.total;
        other_largest = other.largest;
        other_n = other.n;
    }
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other_counts[i];
    total += other_total;
    largest = std::max(largest, other_largest);
    n += other_n;
}

double
Histogram::percentile(double q) const
{
    const std::lock_guard<std::mutex> lock(mu);
    if (n == 0)
        return 0;
    q = std::min(std::max(q, 0.0), 1.0);
    // Rank of the q-th observation, 1-based, matching the nearest-rank
    // definition the service's old sorted-vector percentiles used.
    const std::uint64_t rank =
        std::max<std::uint64_t>(1,
            static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.5));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        seen += counts[i];
        if (seen >= rank) {
            // The +Inf bucket and any bound beyond the exact max report
            // the exact max: never claim a latency nobody observed.
            if (i >= bounds.size())
                return largest;
            return std::min(bounds[i], largest);
        }
    }
    return largest;
}

double
Histogram::max() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return largest;
}

double
Histogram::sum() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return total;
}

std::uint64_t
Histogram::count() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return n;
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return counts;
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

MetricsRegistry::Family &
MetricsRegistry::family(const std::string &name, const std::string &help,
                        Kind kind)
{
    for (auto &fam : families) {
        if (fam->name != name)
            continue;
        gds_require(fam->kind == kind, ConfigError,
                    "metric '%s' re-registered as a different type",
                    name.c_str());
        gds_require(fam->help == help, ConfigError,
                    "metric '%s' re-registered with different help text",
                    name.c_str());
        return *fam;
    }
    auto fam = std::make_unique<Family>();
    fam->name = name;
    fam->help = help;
    fam->kind = kind;
    families.push_back(std::move(fam));
    return *families.back();
}

MetricsRegistry::Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help)
{
    return counter(name, help, "", "");
}

MetricsRegistry::Counter &
MetricsRegistry::counter(const std::string &name, const std::string &help,
                         const std::string &label_key,
                         const std::string &label_value)
{
    const std::lock_guard<std::mutex> lock(mu);
    Family &fam = family(name, help, Kind::CounterKind);
    if (fam.series.empty()) {
        fam.labelKey = label_key;
    } else {
        gds_require(fam.labelKey == label_key, ConfigError,
                    "counter '%s' label key mismatch: '%s' vs '%s'",
                    name.c_str(), fam.labelKey.c_str(), label_key.c_str());
    }
    for (auto &series : fam.series) {
        if (series.labelValue == label_value)
            return *series.counter;
    }
    gds_require(!label_key.empty() || fam.series.empty(), ConfigError,
                "unlabeled counter '%s' cannot have multiple series",
                name.c_str());
    fam.series.push_back({label_value, std::make_unique<Counter>()});
    return *fam.series.back().counter;
}

void
MetricsRegistry::gauge(const std::string &name, const std::string &help,
                       std::function<double()> read)
{
    const std::lock_guard<std::mutex> lock(mu);
    Family &fam = family(name, help, Kind::GaugeKind);
    fam.read = std::move(read);
}

Histogram &
MetricsRegistry::histogram(const std::string &name, const std::string &help,
                           double lowest, double growth, int buckets)
{
    const std::lock_guard<std::mutex> lock(mu);
    Family &fam = family(name, help, Kind::HistogramKind);
    if (!fam.hist)
        fam.hist = std::make_unique<Histogram>(lowest, growth, buckets);
    return *fam.hist;
}

std::string
MetricsRegistry::expose() const
{
    const std::lock_guard<std::mutex> lock(mu);
    // Built with plain appends: GCC 12's -Wrestrict misfires on chained
    // `const char * + std::string` temporaries under -Werror.
    std::string out;
    auto line = [&out](std::initializer_list<std::string> parts) {
        for (const std::string &part : parts)
            out += part;
        out += '\n';
    };
    for (const auto &fam : families) {
        line({"# HELP ", fam->name, " ", fam->help});
        switch (fam->kind) {
          case Kind::CounterKind:
            line({"# TYPE ", fam->name, " counter"});
            for (const auto &series : fam->series) {
                out += fam->name;
                if (!fam->labelKey.empty())
                    line({"{", fam->labelKey, "=\"", series.labelValue,
                          "\"} ", std::to_string(series.counter->value())});
                else
                    line({" ", std::to_string(series.counter->value())});
            }
            break;
          case Kind::GaugeKind:
            line({"# TYPE ", fam->name, " gauge"});
            line({fam->name, " ",
                  renderNumber(fam->read ? fam->read() : 0)});
            break;
          case Kind::HistogramKind: {
            line({"# TYPE ", fam->name, " histogram"});
            const auto counts = fam->hist->bucketCounts();
            const auto &bounds = fam->hist->upperBounds();
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < bounds.size(); ++i) {
                cumulative += counts[i];
                line({fam->name, "_bucket{le=\"", renderNumber(bounds[i]),
                      "\"} ", std::to_string(cumulative)});
            }
            cumulative += counts.back();
            line({fam->name, "_bucket{le=\"+Inf\"} ",
                  std::to_string(cumulative)});
            line({fam->name, "_sum ", renderNumber(fam->hist->sum())});
            line({fam->name, "_count ",
                  std::to_string(fam->hist->count())});
            break;
          }
        }
    }
    return out;
}

} // namespace gds::stats
