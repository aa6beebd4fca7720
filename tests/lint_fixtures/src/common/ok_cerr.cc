// Fixture: R2 suppressed inside src/common with the shared allow() grammar.

#include <iostream>

void
reportFailure()
{
    // gds-lint: allow(no-raw-stderr) fixture exercising the suppression
    // grammar outside the src/common/log.cc carve-out
    std::cerr << "failed\n";
}
