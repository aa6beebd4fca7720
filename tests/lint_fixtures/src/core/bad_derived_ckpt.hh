// Fixture: R8 checkpoint-field-coverage through an intermediate base —
// 'lost' is missing from the fields() visitor of a class that derives
// from another component, not from Component itself.

#pragma once

#include "sim/component.hh"

class BaseWidget : public sim::Component
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
    }

  protected:
    std::uint64_t ticks = 0;
};

class DerivedLeakyWidget final : public BaseWidget
{
  public:
    template <typename Self, typename Ar>
    static void
    fields(Self &self, Ar &ar)
    {
        ar(self.credits);
    }

  private:
    std::uint64_t credits = 0;
    std::uint64_t lost = 0;
};
