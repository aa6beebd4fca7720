/**
 * @file
 * gds-lint driver: collects files (walking directories deterministically,
 * skipping build trees and lint fixtures), lexes them all, runs the
 * per-file rules plus the cross-file class-model rule (R8, see
 * model.hh) over the whole set, and renders results as text diagnostics,
 * a machine-readable JSON summary, or a SARIF 2.1.0 log for CI code
 * scanning.
 */

#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "rules.hh"

namespace gds::lint
{

/** A file the tool could not process (distinct from a rule violation). */
struct ToolError
{
    std::string path;
    std::string message;
};

struct LintResult
{
    std::vector<Diagnostic> diagnostics;
    std::vector<ToolError> errors;
    std::size_t filesScanned = 0;

    bool clean() const { return diagnostics.empty() && errors.empty(); }
};

/**
 * Lint @p paths (files or directories). Directories are walked recursively
 * in sorted order for .cc/.cpp/.hh/.h/.hpp files; directories named
 * "build*", ".git", or "lint_fixtures" are skipped while recursing
 * (explicitly passed paths are always entered). @p root anchors the
 * relative paths used for rule scoping; empty means the current directory.
 */
LintResult lintPaths(const std::vector<std::string> &paths,
                     const std::string &root);

/** One in-memory file for lintBuffers() (tests, or embedding). */
struct BufferInput
{
    std::string displayPath; ///< path reported in diagnostics
    std::string relPath;     ///< repo-relative path for rule scoping
    std::string content;
};

/**
 * Lint a set of in-memory buffers as one analysis unit: per-file rules
 * on each buffer, then the cross-file model rule (R8) over the whole
 * set, with every diagnostic filtered through the suppressions of the
 * file it anchors to. lintPaths() is this over files on disk.
 */
LintResult lintBuffers(const std::vector<BufferInput> &buffers);

/** Lint one in-memory buffer (for tests). Includes the model rules, so
 *  a fixture with an inline fields() body gets R8. */
std::vector<Diagnostic> lintBuffer(const std::string &display_path,
                                   const std::string &rel_path,
                                   std::string_view content);

/** Render `file:line: rule: message` lines. */
void printDiagnostics(const LintResult &result, std::ostream &os);

/** Render the JSON summary (rule counts plus every diagnostic). */
void writeJsonSummary(const LintResult &result, std::ostream &os);

/** Render a SARIF 2.1.0 log (tool + rule metadata, one result per
 *  diagnostic) suitable for GitHub code-scanning upload. */
void writeSarif(const LintResult &result, std::ostream &os);

/** Process exit code: 0 clean, 1 violations, 2 tool errors. */
int exitCode(const LintResult &result);

} // namespace gds::lint
