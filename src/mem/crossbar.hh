/**
 * @file
 * Radix-N crossbar switch model (the 128-radix switch between the
 * Processor's SIMT lanes and the Updating Elements, Sec. 4.2.1).
 *
 * Each output port accepts at most one flit per cycle; a second flit routed
 * to the same output in the same cycle is refused and the sending lane
 * stalls (this contention is what degrades high-throughput algorithms when
 * the UE count shrinks, Fig. 14e). The owner calls beginCycle() once per
 * cycle to reset the per-output grant state.
 */

#pragma once

#include <vector>

#include "common/debug.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "sim/component.hh"
#include "sim/fault.hh"

namespace gds::mem
{

/** Switch fabric bookkeeping; payload delivery is the owner's business. */
class Crossbar : public sim::Component
{
  public:
    Crossbar(unsigned radix, sim::Component *parent)
        : sim::Component("crossbar", parent),
          granted(radix, false),
          statFlits(&statsGroup(), "flits", "flits routed"),
          statConflicts(&statsGroup(), "conflicts",
                        "output-port conflicts (flit refused)"),
          statFaultStalls(&statsGroup(), "faultStalls",
                          "grants refused by fault injection")
    {
        gds_assert(radix > 0, "crossbar radix must be positive");
    }

    /** Attach (or detach, with nullptr) a fault injector that can refuse
     *  output-port grants, modelling a glitching switch. */
    void setFaultInjector(sim::FaultInjector *injector) { fault = injector; }

    unsigned radix() const { return static_cast<unsigned>(granted.size()); }

    /** Reset per-cycle grant state. Call once at the start of each cycle. */
    void
    beginCycle()
    {
        std::fill(granted.begin(), granted.end(), false);
    }

    /**
     * Try to route one flit to @p output this cycle. Forced inline: the
     * owners call it once per flit from their route loops, and the range
     * check's panic path alone would otherwise keep it out of line.
     * @return true if the output port was free (the flit is granted).
     */
    [[gnu::always_inline]] bool
    tryRoute(unsigned output)
    {
        gds_assert(output < granted.size(), "output port %u out of range",
                   output);
        if (granted[output]) {
            ++statConflicts;
            return false;
        }
        if (fault && faultStalls())
            return false;
        granted[output] = true;
        ++statFlits;
        return true;
    }

    /** Flits routed so far (energy model input). */
    double flitsRouted() const { return statFlits.value(); }

    /** Output-port conflicts so far (sampler probe). */
    double conflicts() const { return statConflicts.value(); }

    /** Activity = flits routed (counter-track unit). */
    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(statFlits.value());
    }

    /** The crossbar holds no state across cycles: grants are per-cycle
     *  and payload delivery is the owner's business. */
    bool busy() const override { return false; }

    /** Stateless across cycles: never self-schedules an event. Routing
     *  demand is the owner's, and reflected in the owner's horizon. */
    Cycle nextEventCycle() const override { return kNeverEvent; }

    bool supportsFastForward() const override { return true; }

    /** Checkpoint fields: base progress/stats plus the grant mask.
     *  Checkpoints land between cycles, where the mask is the (already
     *  consumed) previous cycle's grants — serialized anyway so the state
     *  is byte-for-byte identical to the uninterrupted run's. */
    template <typename Self, typename Ar>
    static void
    fields(Self &self, Ar &ar)
    {
        sim::Component::fields(self, ar);
        ar(self.granted);
    }

    void saveState(sim::Serializer &s) const override { fields(*this, s); }
    void restoreState(sim::Deserializer &d) override { fields(*this, d); }

    std::string
    debugState() const override
    {
        unsigned granted_now = 0;
        for (const bool g : granted)
            granted_now += g ? 1 : 0;
        return "granted " + std::to_string(granted_now) + "/" +
               std::to_string(granted.size()) + " outputs this cycle, " +
               std::to_string(static_cast<std::uint64_t>(
                   statConflicts.value())) +
               " conflicts total";
    }

  private:
    /**
     * Ask the injector whether a free output glitches this cycle. Kept
     * out of line, so inlining tryRoute() copies only the grant check
     * into the owners' per-flit route loops.
     */
    [[gnu::cold, gnu::noinline]] bool
    faultStalls()
    {
        if (!fault->stallOutput())
            return false;
        ++statFaultStalls;
        if (obs::Tracer *t = obs::activeTracer()) {
            t->instant(t->track(tracePath()), "fault:stall",
                       debug::traceCycle());
        }
        return true;
    }

    std::vector<bool> granted;
    // gds-ckpt: skip(fault) non-owning injector hook, re-attached by the
    // harness after restore (fault campaigns are not checkpointable)
    sim::FaultInjector *fault = nullptr;
    stats::Scalar statFlits;
    stats::Scalar statConflicts;
    stats::Scalar statFaultStalls;
};

} // namespace gds::mem
