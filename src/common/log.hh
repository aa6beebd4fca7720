/**
 * @file
 * The project's one logging module: every line it writes to stderr goes
 * through here.
 *
 * Front-ends, all ending in the same mutex-serialized writer
 * (detail::emitRawLine), so concurrent workers never interleave partial
 * lines:
 *
 *  - gem5-flavoured status/error macros: panic() flags an internal
 *    simulator bug and aborts, fatal() flags a user/configuration error
 *    and exits, warn()/inform() report without stopping, and gds_assert()
 *    panics unless an invariant holds;
 *  - leveled, structured lines (write / writef and the per-level
 *    helpers below) that carry a per-subsystem tag ("svc", "harness",
 *    "daemon", ...) and ordered correlation fields — most importantly the
 *    per-job "job" (jobId) and "configHash" fields the simulation service
 *    attaches, so one job's lifecycle can be grepped out of a busy
 *    daemon's log. warn()/inform() are the untagged, field-less case;
 *  - DPRINTF trace lines (common/debug), which own their flag gating and
 *    cycle/component attribution and emit through emitRawLine.
 *
 * Leveled lines pass a process-wide threshold read once from
 * GDS_LOG_LEVEL (debug < info < warn < error, default "info") and render
 * in the format chosen by GDS_LOG_FORMAT: "human" (the traditional
 * `warn: message (key=value)` lines) or "json" (one JSON object per line,
 * machine-ingestable by log shippers). panic/fatal and DPRINTF lines are
 * never filtered and always human.
 *
 * Both knobs are parsed through common/parse (parseEnvStr, honoring the
 * env-knob-discipline lint rule); an unknown value warns once and falls
 * back to the documented default.
 */

#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace gds
{

namespace detail
{

[[noreturn]] void terminatePanic(const std::string &msg,
                                 const char *file, int line);
[[noreturn]] void terminateFatal(const std::string &msg);

/** Emit one already-formatted line on stderr, verbatim, under the one
 *  emission mutex. The only stderr writer in the project. */
void emitRawLine(const std::string &line);

/** printf-style formatter returning a std::string. */
std::string vformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vformat() over a va_list, which it consumes (like vsnprintf). */
std::string vformatList(const char *fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

} // namespace detail

/** Abort with a message: something happened that is a simulator bug. */
#define panic(...)                                                          \
    ::gds::detail::terminatePanic(::gds::detail::vformat(__VA_ARGS__),      \
                                  __FILE__, __LINE__)

/** Exit with a message: the user asked for something unsupported/invalid. */
#define fatal(...)                                                          \
    ::gds::detail::terminateFatal(::gds::detail::vformat(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define warn(...)                                                           \
    ::gds::log::writef(::gds::log::Level::Warn, "", {}, __VA_ARGS__)

/** Report normal operating status. */
#define inform(...)                                                         \
    ::gds::log::writef(::gds::log::Level::Info, "", {}, __VA_ARGS__)

/** panic() unless the invariant holds. Always compiled in. */
#define gds_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond))                                                        \
            panic("assertion '%s' failed: %s", #cond,                       \
                  ::gds::detail::vformat(__VA_ARGS__).c_str());             \
    } while (0)

} // namespace gds

namespace gds::log
{

/** Severity levels, least to most severe. */
enum class Level
{
    Debug = 0,
    Info,
    Warn,
    Error,
};

/** Lowercase level name ("debug", "info", "warn", "error"). */
const char *levelName(Level level);

/** Output formats (GDS_LOG_FORMAT). */
enum class Format
{
    Human, ///< `warn: [svc] message (job=j1)` — the traditional lines
    Json,  ///< `{"level":"warn","subsys":"svc","msg":...,"job":"j1"}`
};

/**
 * The process-wide emission threshold: lines below it are dropped.
 * Read once from GDS_LOG_LEVEL ("debug", "info", "warn" or "error");
 * unset or unknown values fall back to Info (unknown warns once).
 */
Level threshold();

/** The process-wide output format, read once from GDS_LOG_FORMAT
 *  ("human" or "json"; unknown warns once and falls back to human). */
Format format();

/** One structured correlation field (rendered as key=value / JSON). */
struct Field
{
    std::string key;
    std::string value;
};

using Fields = std::vector<Field>;

/**
 * Render one line in the human format:
 * `<level>: [<subsys>] <msg> (k=v, k=v)`. The subsystem bracket and the
 * field list are omitted when empty, which makes plain warn()/inform()
 * output byte-identical to the historical `warn: <msg>` lines.
 */
std::string formatHuman(Level level, const std::string &subsys,
                        const std::string &msg, const Fields &fields);

/**
 * Render one line in the JSON format: a single RFC 8259 object with
 * "level", "subsys" (when non-empty), "msg" and one member per field, in
 * field order. Deterministic: no timestamp or pid members, so log lines
 * are byte-comparable across runs (shippers stamp arrival times).
 */
std::string formatJson(Level level, const std::string &subsys,
                       const std::string &msg, const Fields &fields);

/**
 * Emit one line through the serialized stderr path iff @p level passes
 * threshold(). The format is chosen by format().
 */
void write(Level level, const std::string &subsys, const Fields &fields,
           const std::string &msg);

/** printf-style write(). The fields ride along unformatted. */
void writef(Level level, const std::string &subsys, const Fields &fields,
            const char *fmt, ...) __attribute__((format(printf, 4, 5)));

// Convenience wrappers, one per level.

template <typename... Args>
void
debugf(const std::string &subsys, const Fields &fields, const char *fmt,
       Args... args)
{
    writef(Level::Debug, subsys, fields, fmt, args...);
}

template <typename... Args>
void
infof(const std::string &subsys, const Fields &fields, const char *fmt,
      Args... args)
{
    writef(Level::Info, subsys, fields, fmt, args...);
}

template <typename... Args>
void
warnf(const std::string &subsys, const Fields &fields, const char *fmt,
      Args... args)
{
    writef(Level::Warn, subsys, fields, fmt, args...);
}

template <typename... Args>
void
errorf(const std::string &subsys, const Fields &fields, const char *fmt,
       Args... args)
{
    writef(Level::Error, subsys, fields, fmt, args...);
}

} // namespace gds::log
