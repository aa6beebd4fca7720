/**
 * @file
 * Process resident-set-size probes for the memory-footprint track.
 *
 * Graph datasets dominate the simulator's footprint (CSR arrays plus the
 * service's resident-dataset cache), so peak RSS is a first-class gated
 * metric: bench_simperf reports it per cell, manifest.json records it per
 * run, and the daemon exports both current and peak RSS gauges on
 * /metricsz.
 *
 * Linux reports both numbers in /proc/self/status (VmRSS / VmHWM, in
 * kB). When procfs is unavailable the peak falls back to
 * getrusage(RUSAGE_SELF).ru_maxrss; when even that fails both probes
 * return 0, which downstream consumers render as "unavailable" rather
 * than failing the run.
 */

#pragma once

#include <cstdint>

namespace gds::common
{

/** Current resident set size in bytes (/proc/self/status VmRSS), or 0
 *  when the probe is unavailable on this platform. */
std::uint64_t currentRssBytes();

/** Peak resident set size in bytes (/proc/self/status VmHWM, falling
 *  back to getrusage ru_maxrss), or 0 when unavailable. Never less than
 *  an earlier call returned: Linux updates its stored high-water mark
 *  lazily and reports max(stored mark, current RSS), so a raw VmHWM
 *  read can come out lower than one taken before memory was freed. */
std::uint64_t peakRssBytes();

} // namespace gds::common
