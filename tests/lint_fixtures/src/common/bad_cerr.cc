// Fixture for R2 (no-raw-stderr) inside src/common: the carve-out is
// src/common/log.cc alone, so a std::cerr stream anywhere else in the
// common layer is flagged.

#include <iostream>

void
reportFailure()
{
    std::cerr << "failed\n";
}
