// Fixture: R8-clean derived component — the frame lists its members in
// its fields(), and the subclass of that frame (not of Component itself)
// lists every member it adds in its own.

#pragma once

#include "sim/component.hh"

class FrameWidget : public sim::Component
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

class DatapathWidget final : public FrameWidget
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
};
