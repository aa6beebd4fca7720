/**
 * @file
 * JSON export of a statistics tree, for machine consumption of run
 * results (plotting scripts, CI dashboards). The JSON primitives live in
 * common/jsonio.hh; emitJsonString/emitJsonNumber are re-exported here
 * for the stats-side callers that have always spelled them stats::.
 */

#pragma once

#include <ostream>

#include "common/jsonio.hh"
#include "stats/stats.hh"

namespace gds::stats
{

using common::emitJsonNumber;
using common::emitJsonString;

/**
 * Serialize a group (and all children) as a JSON object:
 * scalars as numbers, vectors as arrays, distributions as
 * {bucketLabel: count} objects.
 */
void dumpJson(const Group &group, std::ostream &os);

} // namespace gds::stats
