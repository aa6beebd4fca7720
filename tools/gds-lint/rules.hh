/**
 * @file
 * The project rule set enforced by gds-lint. Each rule has a stable
 * kebab-case name used in diagnostics and in
 * `// gds-lint: allow(<rule>) <justification>` suppressions:
 *
 *  - no-naked-assert   R1: C `assert()` is banned everywhere (compiled out
 *                      under NDEBUG); `gds_assert()` is banned in the
 *                      user-facing layers (src/algo, src/graph, src/stats,
 *                      src/energy) — those paths must throw typed SimErrors.
 *  - no-raw-stderr     R2: `std::cerr`/`std::clog`/`stderr` only inside
 *                      src/common/log.cc, the one mutex-serialized stderr
 *                      writer; everything else reports through common/log
 *                      (warn/inform/log::write) or DPRINTF.
 *  - no-unseeded-rng   R3: `rand()`, `srand()`, `std::random_device`, and
 *                      arglessly-constructed standard engines are banned
 *                      outside src/common/rng.hh; all randomness must be
 *                      explicitly seeded (cached matrix cells are
 *                      byte-compared across runs).
 *  - no-float-eq       R4: `==`/`!=` touching a floating-point literal or a
 *                      float/double-declared identifier is banned in
 *                      src/energy and src/stats.
 *  - header-hygiene    R5: headers carry `#pragma once` and never contain
 *                      `using namespace`.
 *  - component-hooks   R6: every direct sim::Component subclass overrides
 *                      the diagnostic hooks busy(), debugState() and
 *                      activityCounter().
 *  - checkpoint-hooks  R7: every direct sim::Component subclass overrides
 *                      the serialization pair saveState()/restoreState();
 *                      a component missing either silently drops its state
 *                      from every mid-run checkpoint.
 *  - checkpoint-field-coverage
 *                      R8: every non-static data member of a component is
 *                      referenced in its static fields() list — the one
 *                      list saveState() and restoreState() both walk — or
 *                      carries an own-line `// gds-ckpt: skip(<field>)
 *                      <justification>` exemption (cross-file; see
 *                      model.hh).
 *  - env-knob-discipline
 *                      R10: `std::getenv("GDS_…")` only inside
 *                      src/common/parse.cc; every knob goes through the
 *                      common/parse helpers
 *                      (parseEnvU64 / parseEnvF64 / parseEnvStr / envFlag)
 *                      so parsing stays strict and defaults documented.
 *  - bad-suppression   meta: a gds-lint/gds-ckpt directive that does not
 *                      parse, names an unknown rule or field, lacks a
 *                      justification, or is stale.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hh"

namespace gds::lint
{

/** One reported violation. */
struct Diagnostic
{
    std::string path; ///< path as traversed (what the user passed/walked)
    std::size_t line; ///< 1-based
    std::string rule;
    std::string message;
    /** File-scope findings (e.g. a missing #pragma once) are suppressible
     *  by an allow() directive anywhere in the file. */
    bool fileLevel = false;
};

/** All rule names accepted by allow(...). */
const std::vector<std::string> &knownRules();

/**
 * Run every per-file rule over @p file WITHOUT suppression filtering.
 * @p rel_path is the path relative to the repository root (forward
 * slashes) and drives per-directory rule scoping. The cross-file rules
 * (R8) live in model.hh; the driver appends their diagnostics before
 * filtering everything through applySuppressions().
 */
std::vector<Diagnostic> runFileRules(const LexedFile &file,
                                     const std::string &rel_path);

/**
 * Filter @p diags (all anchored to @p file) through the file's allow()
 * suppressions and return the survivors sorted by line then rule. An
 * own-line suppression covers the next line with code on it; file-level
 * diagnostics are suppressible from anywhere in the file.
 */
std::vector<Diagnostic> applySuppressions(std::vector<Diagnostic> diags,
                                          const LexedFile &file);

/**
 * Convenience for single-file analysis: runFileRules() filtered through
 * applySuppressions(). Does NOT include the cross-file model rules.
 */
std::vector<Diagnostic> runRules(const LexedFile &file,
                                 const std::string &rel_path);

} // namespace gds::lint
