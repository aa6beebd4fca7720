#include "common/log.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/jsonio.hh"
#include "common/parse.hh"

namespace gds
{
namespace detail
{

namespace
{

/** Serializes stderr emission so concurrent workers never interleave
 *  lines (function-local static: safe before/after main). */
std::mutex &
emitMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

std::string
vformatList(const char *fmt, va_list args)
{
    va_list sizing;
    va_copy(sizing, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

std::string
vformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vformatList(fmt, args);
    va_end(args);
    return out;
}

void
emitRawLine(const std::string &line)
{
    const std::lock_guard<std::mutex> lock(emitMutex());
    std::fprintf(stderr, "%s\n", line.c_str());
}

void
terminatePanic(const std::string &msg, const char *file, int line)
{
    emitRawLine(vformat("panic: %s (%s:%d)", msg.c_str(), file, line));
    std::abort();
}

void
terminateFatal(const std::string &msg)
{
    emitRawLine("fatal: " + msg);
    std::exit(1);
}

} // namespace detail
} // namespace gds

namespace gds::log
{

namespace
{

/**
 * Knob parsing runs inside a function-local-static initializer, where
 * calling warn() would recurse back into threshold() and deadlock the
 * static-init guard. Complaints about malformed knob values are instead
 * emitted directly through the raw serialized-stderr path.
 */
void
complainRaw(const char *knob, const std::string &got, const char *fallback)
{
    detail::emitRawLine("warn: " + std::string(knob) + "='" + got +
                        "' is not a recognized value; using " + fallback);
}

Level
parseLevelKnob()
{
    const std::string text = common::parseEnvStr("GDS_LOG_LEVEL", "info");
    if (text == "debug")
        return Level::Debug;
    if (text == "info")
        return Level::Info;
    if (text == "warn")
        return Level::Warn;
    if (text == "error")
        return Level::Error;
    complainRaw("GDS_LOG_LEVEL", text, "info");
    return Level::Info;
}

Format
parseFormatKnob()
{
    const std::string text = common::parseEnvStr("GDS_LOG_FORMAT", "human");
    if (text == "human")
        return Format::Human;
    if (text == "json")
        return Format::Json;
    complainRaw("GDS_LOG_FORMAT", text, "human");
    return Format::Human;
}

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Debug: return "debug";
      case Level::Info: return "info";
      case Level::Warn: return "warn";
      case Level::Error: return "error";
    }
    return "info";
}

Level
threshold()
{
    static const Level level = parseLevelKnob();
    return level;
}

Format
format()
{
    static const Format fmt = parseFormatKnob();
    return fmt;
}

std::string
formatHuman(Level level, const std::string &subsys, const std::string &msg,
            const Fields &fields)
{
    std::string line = levelName(level);
    line += ": ";
    if (!subsys.empty()) {
        line += "[";
        line += subsys;
        line += "] ";
    }
    line += msg;
    if (!fields.empty()) {
        line += " (";
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i)
                line += ", ";
            line += fields[i].key;
            line += "=";
            line += fields[i].value;
        }
        line += ")";
    }
    return line;
}

std::string
formatJson(Level level, const std::string &subsys, const std::string &msg,
            const Fields &fields)
{
    std::string line = "{\"level\":";
    line += common::jsonQuote(levelName(level));
    if (!subsys.empty()) {
        line += ",\"subsys\":";
        line += common::jsonQuote(subsys);
    }
    line += ",\"msg\":";
    line += common::jsonQuote(msg);
    for (const Field &field : fields) {
        line += ",";
        line += common::jsonQuote(field.key);
        line += ":";
        line += common::jsonQuote(field.value);
    }
    line += "}";
    return line;
}

void
write(Level level, const std::string &subsys, const Fields &fields,
      const std::string &msg)
{
    if (static_cast<int>(level) < static_cast<int>(threshold()))
        return;
    const std::string line = format() == Format::Json
        ? formatJson(level, subsys, msg, fields)
        : formatHuman(level, subsys, msg, fields);
    detail::emitRawLine(line);
}

void
writef(Level level, const std::string &subsys, const Fields &fields,
       const char *fmt, ...)
{
    // Cheap early-out before formatting: dropped lines cost one compare.
    if (static_cast<int>(level) < static_cast<int>(threshold()))
        return;
    va_list args;
    va_start(args, fmt);
    const std::string msg = detail::vformatList(fmt, args);
    va_end(args);
    write(level, subsys, fields, msg);
}

} // namespace gds::log
