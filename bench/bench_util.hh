/**
 * @file
 * Shared helpers for the benches: banner printing and the paper-expected
 * vs measured footer lines.
 */

#pragma once

#include <cstdio>
#include <string>

#include "graph/datasets.hh"

namespace gds::bench
{

/** Print the bench banner with the active scale divisor. */
inline void
banner(const std::string &figure, const std::string &what)
{
    std::printf("=== %s: %s ===\n", figure.c_str(), what.c_str());
    std::printf("datasets scaled by GDS_SCALE=%u "
                "(set GDS_SCALE=1 for paper-native sizes)\n\n",
                graph::datasetScaleDivisor());
}

/** Print one paper-expected vs measured line. */
inline void
expectation(const std::string &metric, const std::string &paper,
            const std::string &measured)
{
    std::printf("  %-44s paper: %-12s measured: %s\n", metric.c_str(),
                paper.c_str(), measured.c_str());
}

} // namespace gds::bench
