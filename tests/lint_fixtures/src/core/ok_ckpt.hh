// Fixture: R8-clean component — every field is either listed in its
// fields() visitor, stats-typed (the Component base walks registered
// stats), or carries a justified gds-ckpt skip.

#pragma once

#include "sim/component.hh"
#include "stats/stats.hh"

class TidyWidget : public sim::Component
{
  public:
    bool busy() const override { return false; }
    std::string debugState() const override { return "idle"; }
    std::uint64_t activityCounter() const override { return ticks; }
    Cycle nextEventCycle() const override { return kNeverEvent; }

    void saveState(sim::Serializer &s) const override { fields(*this, s); }
    void restoreState(sim::Deserializer &d) override { fields(*this, d); }

    template <typename Self, typename Ar>
    static void
    fields(Self &self, Ar &ar)
    {
        sim::Component::fields(self, ar);
        ar(self.ticks);
        ar(self.credits);
    }

  private:
    std::uint64_t ticks = 0;
    std::uint64_t credits = 0;
    // gds-ckpt: skip(fanout) derived from the config in the constructor
    unsigned fanout = 4;
    stats::Scalar statTicks;
};
