#include "stats/timeseries.hh"

#include <set>

#include "stats/json.hh"

namespace gds::stats
{

void
TimeSeries::setColumns(std::vector<std::string> column_names)
{
    gds_require(cycles.empty(), ConfigError,
                "time-series columns cannot change after rows exist");
    std::set<std::string> seen;
    for (const std::string &n : column_names) {
        gds_require(!n.empty(), ConfigError,
                    "time-series column names must be non-empty");
        gds_require(seen.insert(n).second, ConfigError,
                    "duplicate time-series column '%s'", n.c_str());
    }
    names = std::move(column_names);
    series.assign(names.size(), {});
}

void
TimeSeries::addRow(Cycle cycle, const std::vector<double> &values)
{
    gds_require(values.size() == names.size(), ConfigError,
                "time-series row has %zu values, table has %zu columns",
                values.size(), names.size());
    cycles.push_back(cycle);
    for (std::size_t c = 0; c < values.size(); ++c)
        series[c].push_back(values[c]);
}

void
TimeSeries::writeCsv(std::ostream &os) const
{
    os << "cycle";
    for (const std::string &n : names)
        os << ',' << n;
    os << '\n';
    os.precision(17);
    for (std::size_t r = 0; r < cycles.size(); ++r) {
        os << cycles[r];
        for (std::size_t c = 0; c < series.size(); ++c)
            os << ',' << series[c][r];
        os << '\n';
    }
}

void
TimeSeries::writeJson(std::ostream &os) const
{
    os << "{\"columns\":[";
    for (std::size_t c = 0; c < names.size(); ++c) {
        if (c != 0)
            os << ',';
        emitJsonString(os, names[c]);
    }
    os << "],\"cycles\":[";
    for (std::size_t r = 0; r < cycles.size(); ++r) {
        if (r != 0)
            os << ',';
        os << cycles[r];
    }
    os << "],\"series\":{";
    for (std::size_t c = 0; c < names.size(); ++c) {
        if (c != 0)
            os << ',';
        emitJsonString(os, names[c]);
        os << ":[";
        for (std::size_t r = 0; r < series[c].size(); ++r) {
            if (r != 0)
                os << ',';
            emitJsonNumber(os, series[c][r], common::kRoundTripDigits);
        }
        os << ']';
    }
    os << "}}";
}

void
TimeSeries::clear()
{
    cycles.clear();
    for (auto &col : series)
        col.clear();
}

} // namespace gds::stats
