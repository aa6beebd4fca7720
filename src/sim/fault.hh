/**
 * @file
 * Deterministic, seed-driven fault injection.
 *
 * A FaultPlan describes which faults to inject — delayed or dropped HBM
 * responses, rejected HBM requests (extra backpressure), stalled crossbar
 * output ports — and a FaultInjector draws the per-event decisions from a
 * private xoshiro stream, so a given (plan, seed) reproduces the exact
 * same fault sequence on every run. The models consult the injector at
 * well-defined points (mem::Hbm response completion and request admission,
 * mem::Crossbar output arbitration); a null injector means fault-free
 * operation at zero cost.
 *
 * The subsystem exists to prove the watchdog works: an injected hang must
 * surface as RunOutcome::Deadlock/Livelock with a diagnostic snapshot, and
 * injected backpressure must only slow a run down, never wedge or corrupt
 * it.
 */

#pragma once

#include <cstdint>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace gds::sim
{

/** Declarative description of the faults to inject. */
struct FaultPlan
{
    static constexpr std::uint64_t never = ~0ULL;

    /** Seed of the injector's private decision stream. */
    std::uint64_t seed = 1;

    // --- HBM response faults ---
    /** Probability a completed response is held back for delayCycles. */
    double delayResponseProb = 0.0;
    /** Extra latency applied to delayed responses. */
    Cycle delayCycles = 500;
    /** Probability a completed response is dropped (never delivered). */
    double dropResponseProb = 0.0;
    /** Drop every response after this many have been delivered
     *  (deterministic hang); never = disabled. */
    std::uint64_t dropAfterResponses = never;

    // --- HBM request-admission faults ---
    /** Probability a request is refused admission (extra backpressure). */
    double rejectRequestProb = 0.0;

    // --- Crossbar faults ---
    /** Probability an output-port grant is refused (port stall). */
    double stallOutputProb = 0.0;

    /** True when any fault is enabled. */
    bool
    any() const
    {
        return delayResponseProb > 0.0 || dropResponseProb > 0.0 ||
               dropAfterResponses != never || rejectRequestProb > 0.0 ||
               stallOutputProb > 0.0;
    }

    /** Reject malformed plans (probabilities outside [0, 1]). */
    Status validate() const;
};

/** Draws deterministic per-event fault decisions from a FaultPlan. */
class FaultInjector
{
  public:
    /** @throws ConfigError when the plan does not validate. */
    explicit FaultInjector(const FaultPlan &fault_plan);

    const FaultPlan &plan() const { return _plan; }

    /**
     * Decide the fate of one completed HBM response.
     * @return true to drop the response entirely.
     */
    bool dropResponse();

    /** Extra delay for one completed HBM response (0 = deliver now). */
    Cycle responseDelay();

    /** True to refuse admission of one HBM request this cycle. */
    bool rejectRequest();

    /** True to refuse one crossbar output grant this cycle. */
    bool stallOutput();

    /**
     * Checkpoint fields of the decision stream: RNG words plus counters,
     * so a resumed run draws the exact same fault sequence from where the
     * interrupted one left off. The plan itself is configuration and is
     * rebuilt by the constructor.
     */
    template <typename Self, typename Ar>
    static void
    fields(Self &self, Ar &ar)
    {
        ar(self.rng, self._responsesSeen, self._dropped, self._delayed,
           self._rejected, self._stalled);
    }

    // Decision counters (observability + test assertions).
    std::uint64_t responsesSeen() const { return _responsesSeen; }
    std::uint64_t dropped() const { return _dropped; }
    std::uint64_t delayed() const { return _delayed; }
    std::uint64_t rejected() const { return _rejected; }
    std::uint64_t stalled() const { return _stalled; }

  private:
    // gds-ckpt: skip(_plan) configuration, rebuilt by the constructor
    FaultPlan _plan;
    Rng rng;
    std::uint64_t _responsesSeen = 0;
    std::uint64_t _dropped = 0;
    std::uint64_t _delayed = 0;
    std::uint64_t _rejected = 0;
    std::uint64_t _stalled = 0;
};

} // namespace gds::sim
