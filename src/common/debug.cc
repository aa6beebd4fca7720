#include "common/debug.hh"

#include <atomic>
#include <cstdarg>
#include <mutex>

#include "common/log.hh"
#include "common/parse.hh"

namespace gds::debug
{

namespace
{

// Atomics (not plain globals): enabled() is queried from concurrent
// harness workers, and the first queries race to parse GDS_DEBUG.
std::atomic<unsigned> activeMask{0};
std::atomic<bool> parsed{false};
std::mutex parseMutex;

const char *names[] = {"Dispatch", "Prefetch", "Reduce",    "Apply",
                       "Memory",   "Phase",    "Watchdog",  "Fault"};

void
parse(const std::string &list)
{
    unsigned mask = 0;
    std::size_t begin = 0;
    while (begin <= list.size()) {
        std::size_t end = list.find(',', begin);
        if (end == std::string::npos)
            end = list.size();
        const std::string token = list.substr(begin, end - begin);
        if (token == "All" || token == "all") {
            mask = ~0u;
        } else {
            for (unsigned f = 0;
                 f < static_cast<unsigned>(Flag::NumFlags); ++f) {
                if (token == names[f])
                    mask |= 1u << f;
            }
        }
        begin = end + 1;
    }
    activeMask.store(mask, std::memory_order_relaxed);
    parsed.store(true, std::memory_order_release);
}

void
parseEnvOnce()
{
    if (parsed.load(std::memory_order_acquire))
        return;
    const std::lock_guard<std::mutex> lock(parseMutex);
    if (parsed.load(std::memory_order_relaxed))
        return;
    parse(common::parseEnvStr("GDS_DEBUG", ""));
}

} // namespace

bool
enabled(Flag flag)
{
    parseEnvOnce();
    return (activeMask.load(std::memory_order_relaxed) >>
            static_cast<unsigned>(flag)) & 1u;
}

bool
anyEnabled()
{
    parseEnvOnce();
    return activeMask.load(std::memory_order_relaxed) != 0;
}

const char *
flagName(Flag flag)
{
    return names[static_cast<unsigned>(flag)];
}

void
setActiveFlags(const std::string &comma_list)
{
    parse(comma_list);
}

// ---------------------------------------------------------------------
// Attribution context + line sink (all thread-local: harness workers
// tracing concurrent cells must not cross-attribute lines).
// ---------------------------------------------------------------------

namespace
{

thread_local Cycle contextCycle = 0;
thread_local const char *contextComponent = nullptr;
thread_local LineSink lineSink = nullptr;
thread_local void *lineSinkObj = nullptr;

} // namespace

void
setTraceCycle(Cycle cycle)
{
    contextCycle = cycle;
}

Cycle
traceCycle()
{
    return contextCycle;
}

const char *
traceComponent()
{
    return contextComponent;
}

ScopedTraceComponent::ScopedTraceComponent(const char *path)
    : previous(contextComponent)
{
    contextComponent = path;
}

ScopedTraceComponent::~ScopedTraceComponent()
{
    contextComponent = previous;
}

void
setLineSink(LineSink sink, void *obj)
{
    lineSink = sink;
    lineSinkObj = obj;
}

namespace detail
{

void
vprint(Flag flag, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string body = gds::detail::vformatList(fmt, args);
    va_end(args);

    // gem5-style attribution: "<cycle>: <component>: <Flag>: <text>".
    const char *component =
        contextComponent != nullptr ? contextComponent : "global";
    gds::detail::emitRawLine(gds::detail::vformat(
        "%10llu: %s: %-9s: %s", static_cast<unsigned long long>(contextCycle),
        component, flagName(flag), body.c_str()));

    if (lineSink != nullptr)
        lineSink(lineSinkObj, flag, contextCycle, contextComponent,
                 body.c_str());
}

} // namespace detail

} // namespace gds::debug
