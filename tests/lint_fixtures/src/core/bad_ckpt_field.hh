// Fixture: R8 checkpoint-field-coverage — 'credits' and 'lost' are
// missing from the fields() visitor, so every checkpoint drops them.

#pragma once

#include "sim/component.hh"

class LeakyWidget : public sim::Component
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
        ar(self.ticks);
    }

  private:
    std::uint64_t ticks = 0;
    std::uint64_t credits = 0;
    std::uint64_t lost = 0;
};
