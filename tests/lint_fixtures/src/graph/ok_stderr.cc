// Fixture: raw stderr suppressed; the own-line directive's
// justification wraps, covering the next line with code on it.

#include <iostream>

void
reportFailure()
{
    // gds-lint: allow(no-raw-stderr) fixture exercising the wrapped
    // justification form of an own-line suppression
    std::cerr << "failed\n";
}
