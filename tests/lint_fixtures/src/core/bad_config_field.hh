// Fixture: R8 checkpoint-field-coverage on a config struct — 'tRas' is
// missing from the fields() list, so configHash, the contract test and
// gds_sim --set all silently skip it.

#pragma once

struct TimingConfig
{
    unsigned tCl = 14;
    unsigned tRas = 33;

    template <class Self, class V>
    static void
    fields(Self &c, V &v)
    {
        v("tCl", c.tCl);
    }
};
