// Fixture: bad gds-ckpt directives — one without a justification, one
// naming a field no component in this file declares, and one stale skip
// on a field the fields() visitor already lists.

#pragma once

#include "sim/component.hh"

// gds-ckpt: skip(phantom) justification for a field that does not exist
class SlipperyWidget : public sim::Component
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
        ar(self.ticks, self.credits);
    }

  private:
    // gds-ckpt: skip(ticks)
    std::uint64_t ticks = 0;
    // gds-ckpt: skip(credits) stale: fields() already lists this field
    std::uint64_t credits = 0;
};
