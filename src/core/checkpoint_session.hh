/**
 * @file
 * The checkpoint session both accelerator models run under: the run's
 * identity, resume from the newest valid checkpoint, one payload order
 * for save and restore, periodic and graceful-stop writes, and removal
 * once the run completes. See DESIGN.md "Checkpoint & recovery".
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/gds_accel.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"

namespace gds::core
{

/**
 * Layout version of every accelerator checkpoint payload. Bump it with
 * any change to a checkpointed class's field list; a checkpoint of
 * another version is ignored on resume and the run starts clean.
 */
inline constexpr std::uint32_t kStateVersion = 4;

/**
 * Run @p run under the checkpoint policy of @p options. With a
 * checkpoint directory configured the payload is @p accel (its child
 * components included), then the fault injector, sampler and active
 * tracer, each behind a presence flag that must match on resume, then
 * @p driver. Resume happens before @p run is called; a completed run
 * removes its checkpoints.
 *
 * @param kind identity prefix of the accelerator model
 * @param clock the accelerator's local clock (stamped on each write)
 * @param run drives the simulation with the hooks it is handed
 */
sim::RunReport runCheckpointed(
    const char *kind, const std::string &algo_name, const graph::Csr &g,
    const RunOptions &options, sim::Component &accel, const Cycle &clock,
    sim::FaultInjector *injector, sim::Simulator &driver,
    const std::function<sim::RunReport(const sim::RunHooks &)> &run);

} // namespace gds::core
