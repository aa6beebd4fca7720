#include "harness/manifest.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/bitutil.hh"
#include "common/jsonio.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "graph/datasets.hh"

namespace gds::harness
{

std::uint64_t
fnv1a(std::string_view data)
{
    return fnv1a64(data.data(), data.size());
}

std::string
hashHex(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

namespace
{

/** FNV-1a over "model=<tag>;name=value;..." in fields() order: every
 *  field is named, so two configs differing in any single knob hash
 *  differently, and reordering the struct cannot silently collide. */
template <class Config>
std::string
hashFields(const char *model, const Config &cfg)
{
    std::ostringstream os;
    os << "model=" << model << ';';
    auto v = [&os](const char *name, const auto &value) {
        os << name << '=';
        // Every digit counts: two knobs that differ only past the stream's
        // default six significant digits must hash apart.
        if constexpr (std::is_floating_point_v<
                          std::remove_cvref_t<decltype(value)>>)
            common::emitJsonNumber(os, value);
        else
            os << value;
        os << ';';
    };
    Config::fields(cfg, v);
    return hashHex(fnv1a(os.str()));
}

} // namespace

std::string
configHash(const core::GdsConfig &cfg)
{
    return hashFields("graphdyns", cfg);
}

std::string
configHash(const baseline::GraphicionadoConfig &cfg)
{
    return hashFields("graphicionado", cfg);
}

std::string
configHash(const baseline::GunrockConfig &cfg)
{
    return hashFields("gunrock", cfg);
}

void
setConfigField(SystemConfigs &configs, const std::string &setting)
{
    const std::size_t dot = setting.find('.');
    const std::size_t eq = setting.find('=');
    if (eq == std::string::npos || dot > eq)
        throw ConfigError("'" + setting +
                          "' is not <gds|gi|gunrock>.<name>=<value>");
    const std::string key = setting.substr(0, eq);
    const std::string system = key.substr(0, dot);
    const std::string name = key.substr(dot + 1);
    const std::string text = setting.substr(eq + 1);
    bool found = false;
    auto v = [&](const char *field, auto &value) {
        using T = std::remove_reference_t<decltype(value)>;
        if (found || name != field)
            return;
        found = true;
        if constexpr (std::is_same_v<T, bool>) {
            if (text != "true" && text != "false")
                throw ConfigError(key + " takes true or false, not '" +
                                  text + "'");
            value = text == "true";
        } else if constexpr (std::is_integral_v<T>)
            value = static_cast<T>(common::requireU64(
                key, text, 0, std::numeric_limits<T>::max()));
        else
            value = common::requireF64(key, text);
    };
    if (system == "gds")
        core::GdsConfig::fields(configs.gds, v);
    else if (system == "gi")
        baseline::GraphicionadoConfig::fields(configs.gi, v);
    else if (system == "gunrock")
        baseline::GunrockConfig::fields(configs.gunrock, v);
    else
        throw ConfigError("unknown system in '" + setting +
                          "' (gds, gi or gunrock)");
    if (!found)
        throw ConfigError("unknown config field '" + key + "'");
}

const char *
buildGitSha()
{
#ifdef GDS_GIT_SHA
    return GDS_GIT_SHA;
#else
    return "unknown";
#endif
}

void
Manifest::add(ManifestCell cell)
{
    const std::lock_guard<std::mutex> lock(mu);
    cells.push_back(std::move(cell));
}

std::size_t
Manifest::size() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return cells.size();
}

void
Manifest::setPoolHighWater(const DatasetPool::Usage &usage)
{
    const std::lock_guard<std::mutex> lock(mu);
    poolHighWater = usage;
}

void
Manifest::write(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(mu);
    common::JsonWriter w(os);
    w.beginObject();
    w.key("gitSha").string(buildGitSha());
    w.key("scaleDivisor").number(graph::datasetScaleDivisor());
    w.key("datasetPoolHighWater").beginObject();
    w.key("resident").number(static_cast<double>(poolHighWater.resident));
    w.key("mappedBytes")
        .number(static_cast<double>(poolHighWater.mappedBytes));
    w.key("heapBytes").number(static_cast<double>(poolHighWater.heapBytes));
    w.endObject();
    w.key("cells").beginArray();
    for (const ManifestCell &c : cells) {
        const RunRecord &r = c.record;
        w.beginObject();
        w.key("key").string(c.key);
        w.key("system").string(r.system);
        w.key("algorithm").string(r.algorithm);
        w.key("dataset").string(r.dataset);
        w.key("seed").number(static_cast<double>(c.seed));
        w.key("configHash").string(r.configHash);
        w.key("outcome").string(r.status);
        w.key("cached").boolean(c.cached);
        w.key("simulatedSeconds").number(r.seconds);
        w.key("wallLoadSeconds").number(r.wallLoadSeconds);
        w.key("wallSimSeconds").number(r.wallSimSeconds);
        w.key("wallValidateSeconds").number(r.wallValidateSeconds);
        w.key("peakRssBytes").number(c.peakRssBytes);
        w.endObject();
    }
    w.endArray().endObject();
    os << '\n';
}

bool
Manifest::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (out)
        write(out);
    if (!out) {
        warn("cannot write manifest '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace gds::harness
