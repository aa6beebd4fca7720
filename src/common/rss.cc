#include "common/rss.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace gds::common
{

namespace
{

/**
 * Scan /proc/self/status for a "Key:   <n> kB" line and return the value
 * in bytes, or 0 when the file or the key is missing (non-Linux).
 */
std::uint64_t
procStatusBytes(const char *key)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    const std::size_t key_len = std::strlen(key);
    char line[256];
    std::uint64_t bytes = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':')
            continue;
        unsigned long long kb = 0;
        if (std::sscanf(line + key_len + 1, " %llu", &kb) == 1)
            bytes = static_cast<std::uint64_t>(kb) * 1024;
        break;
    }
    std::fclose(f);
    return bytes;
}

} // namespace

std::uint64_t
currentRssBytes()
{
    return procStatusBytes("VmRSS");
}

namespace
{

/** One raw peak reading, or 0 when no probe is available. */
std::uint64_t
rawPeakRssBytes()
{
    if (std::uint64_t bytes = procStatusBytes("VmHWM"))
        return bytes;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
        // macOS reports ru_maxrss in bytes; Linux and the BSDs in kB.
        return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
    }
#endif
    return 0;
}

} // namespace

std::uint64_t
peakRssBytes()
{
    static std::atomic<std::uint64_t> highest{0};
    const std::uint64_t bytes = rawPeakRssBytes();
    std::uint64_t seen = highest.load();
    while (bytes > seen && !highest.compare_exchange_weak(seen, bytes)) {
    }
    return std::max(bytes, seen);
}

} // namespace gds::common
