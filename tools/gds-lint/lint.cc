#include "lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <system_error>

#include "model.hh"
#include "stats/json.hh"

namespace fs = std::filesystem;

namespace gds::lint
{

namespace
{

bool
lintableExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hh" || ext == ".h" ||
           ext == ".hpp";
}

/** Directories never entered while recursing (explicit args still are). */
bool
skippedDir(const std::string &name)
{
    return name == ".git" || name == "lint_fixtures" ||
           name.compare(0, 5, "build") == 0;
}

void
collect(const fs::path &path, bool explicit_arg,
        std::vector<fs::path> &files, std::vector<ToolError> &errors)
{
    std::error_code ec;
    const fs::file_status st = fs::status(path, ec);
    if (ec) {
        errors.push_back({path.string(), ec.message()});
        return;
    }
    if (fs::is_directory(st)) {
        if (!explicit_arg && skippedDir(path.filename().string()))
            return;
        std::vector<fs::path> entries;
        for (const auto &entry : fs::directory_iterator(path, ec))
            entries.push_back(entry.path());
        if (ec) {
            errors.push_back({path.string(), ec.message()});
            return;
        }
        std::sort(entries.begin(), entries.end());
        for (const fs::path &entry : entries)
            collect(entry, false, files, errors);
        return;
    }
    if (!fs::is_regular_file(st)) {
        if (explicit_arg)
            errors.push_back({path.string(), "no such file or directory"});
        return;
    }
    if (explicit_arg || lintableExtension(path))
        files.push_back(path);
}

std::string
relativeTo(const fs::path &file, const fs::path &root)
{
    std::error_code ec;
    const fs::path rel = fs::proximate(fs::absolute(file), root, ec);
    if (ec || rel.empty())
        return file.generic_string();
    return rel.generic_string();
}

} // namespace

LintResult
lintBuffers(const std::vector<BufferInput> &buffers)
{
    LintResult result;
    std::vector<LexedFile> lexed;
    std::vector<std::string> rels;
    lexed.reserve(buffers.size());
    rels.reserve(buffers.size());
    for (const BufferInput &b : buffers) {
        lexed.push_back(lexFile(b.displayPath, b.content));
        rels.push_back(b.relPath);
    }
    result.filesScanned = lexed.size();

    // Pass 1: token-local rules, unfiltered so the cross-file findings
    // can be merged in before suppressions apply.
    std::vector<std::vector<Diagnostic>> per_file(lexed.size());
    std::map<std::string, std::size_t> by_path;
    for (std::size_t i = 0; i < lexed.size(); ++i) {
        per_file[i] = runFileRules(lexed[i], rels[i]);
        by_path.emplace(lexed[i].path, i);
    }

    // Pass 2: the class model over the whole set. Each model diagnostic
    // is routed to the file it anchors to (the field's or directive's
    // declaring file) so that file's allow() directives cover it.
    const ClassModel model = buildModel(lexed, rels);
    std::vector<Diagnostic> model_diags;
    runModelRules(model, model_diags);
    for (Diagnostic &d : model_diags) {
        const auto it = by_path.find(d.path);
        if (it != by_path.end())
            per_file[it->second].push_back(std::move(d));
        else
            result.diagnostics.push_back(std::move(d));
    }

    for (std::size_t i = 0; i < lexed.size(); ++i) {
        auto kept = applySuppressions(std::move(per_file[i]), lexed[i]);
        result.diagnostics.insert(result.diagnostics.end(),
                                  std::make_move_iterator(kept.begin()),
                                  std::make_move_iterator(kept.end()));
    }
    return result;
}

std::vector<Diagnostic>
lintBuffer(const std::string &display_path, const std::string &rel_path,
           std::string_view content)
{
    return lintBuffers({{display_path, rel_path, std::string(content)}})
        .diagnostics;
}

LintResult
lintPaths(const std::vector<std::string> &paths, const std::string &root)
{
    LintResult result;
    std::vector<fs::path> files;
    for (const std::string &p : paths)
        collect(fs::path(p), true, files, result.errors);

    std::error_code ec;
    const fs::path abs_root =
        fs::absolute(root.empty() ? fs::path(".") : fs::path(root), ec);

    std::vector<BufferInput> buffers;
    buffers.reserve(files.size());
    for (const fs::path &file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            result.errors.push_back({file.string(), "cannot open file"});
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        if (in.bad()) {
            result.errors.push_back({file.string(), "read failure"});
            continue;
        }
        buffers.push_back(
            {file.string(), relativeTo(file, abs_root), buf.str()});
    }

    LintResult linted = lintBuffers(buffers);
    result.filesScanned = linted.filesScanned;
    result.diagnostics = std::move(linted.diagnostics);
    return result;
}

void
printDiagnostics(const LintResult &result, std::ostream &os)
{
    for (const Diagnostic &d : result.diagnostics) {
        os << d.path << ":" << d.line << ": " << d.rule << ": " << d.message
           << "\n";
    }
}

void
writeJsonSummary(const LintResult &result, std::ostream &os)
{
    std::map<std::string, std::size_t> per_rule;
    for (const Diagnostic &d : result.diagnostics)
        ++per_rule[d.rule];

    os << "{";
    stats::emitJsonString(os, "files_scanned");
    os << ": " << result.filesScanned << ", ";
    stats::emitJsonString(os, "violations");
    os << ": " << result.diagnostics.size() << ", ";
    stats::emitJsonString(os, "tool_errors");
    os << ": " << result.errors.size() << ", ";
    stats::emitJsonString(os, "rules");
    os << ": {";
    bool first = true;
    for (const auto &[rule, count] : per_rule) {
        if (!first)
            os << ", ";
        first = false;
        stats::emitJsonString(os, rule);
        os << ": " << count;
    }
    os << "}, ";
    stats::emitJsonString(os, "diagnostics");
    os << ": [";
    first = true;
    for (const Diagnostic &d : result.diagnostics) {
        if (!first)
            os << ", ";
        first = false;
        os << "{";
        stats::emitJsonString(os, "file");
        os << ": ";
        stats::emitJsonString(os, d.path);
        os << ", ";
        stats::emitJsonString(os, "line");
        os << ": " << d.line << ", ";
        stats::emitJsonString(os, "rule");
        os << ": ";
        stats::emitJsonString(os, d.rule);
        os << ", ";
        stats::emitJsonString(os, "message");
        os << ": ";
        stats::emitJsonString(os, d.message);
        os << "}";
    }
    os << "]}\n";
}

namespace
{

/** Short rule descriptions for the SARIF tool.driver.rules table. */
std::string
ruleDescription(const std::string &rule)
{
    if (rule == "no-naked-assert")
        return "C assert() is compiled out under NDEBUG; throw a typed "
               "SimError or use gds_assert in core model code";
    if (rule == "no-raw-stderr")
        return "raw stderr bypasses serialized emission; report through "
               "common/log or DPRINTF";
    if (rule == "no-unseeded-rng")
        return "unseeded randomness breaks run-to-run determinism; seed "
               "explicitly via gds::Rng";
    if (rule == "no-float-eq")
        return "==/!= on floating-point values is representation-"
               "sensitive; compare against a tolerance";
    if (rule == "header-hygiene")
        return "headers carry #pragma once and never 'using namespace'";
    if (rule == "component-hooks")
        return "Component subclasses override the diagnostic hooks "
               "busy()/debugState()/activityCounter() (and "
               "nextEventCycle() when busy() is overridden)";
    if (rule == "checkpoint-hooks")
        return "Component subclasses override the serialization pair "
               "saveState()/restoreState()";
    if (rule == "checkpoint-field-coverage")
        return "every component data member is listed in its fields() "
               "checkpoint visitor, or carries a justified "
               "gds-ckpt: skip(<field>) exemption";
    if (rule == "env-knob-discipline")
        return "GDS_* environment knobs are read through the "
               "common/parse helpers, never raw std::getenv";
    if (rule == "bad-suppression")
        return "a gds-lint/gds-ckpt directive that does not parse, names "
               "an unknown rule or field, lacks a justification, or is "
               "stale";
    return rule;
}

/** SARIF artifact URIs must be repo-relative; strip a leading "./". */
std::string
sarifUri(const std::string &path)
{
    if (path.compare(0, 2, "./") == 0)
        return path.substr(2);
    return path;
}

} // namespace

void
writeSarif(const LintResult &result, std::ostream &os)
{
    std::vector<std::string> rules = knownRules();
    rules.push_back("bad-suppression");

    os << "{";
    stats::emitJsonString(os, "$schema");
    os << ": ";
    stats::emitJsonString(
        os, "https://json.schemastore.org/sarif-2.1.0.json");
    os << ", ";
    stats::emitJsonString(os, "version");
    os << ": ";
    stats::emitJsonString(os, "2.1.0");
    os << ", ";
    stats::emitJsonString(os, "runs");
    os << ": [{";
    stats::emitJsonString(os, "tool");
    os << ": {";
    stats::emitJsonString(os, "driver");
    os << ": {";
    stats::emitJsonString(os, "name");
    os << ": ";
    stats::emitJsonString(os, "gds-lint");
    os << ", ";
    stats::emitJsonString(os, "informationUri");
    os << ": ";
    stats::emitJsonString(os, "tools/gds-lint");
    os << ", ";
    stats::emitJsonString(os, "rules");
    os << ": [";
    bool first = true;
    for (const std::string &rule : rules) {
        if (!first)
            os << ", ";
        first = false;
        os << "{";
        stats::emitJsonString(os, "id");
        os << ": ";
        stats::emitJsonString(os, rule);
        os << ", ";
        stats::emitJsonString(os, "shortDescription");
        os << ": {";
        stats::emitJsonString(os, "text");
        os << ": ";
        stats::emitJsonString(os, ruleDescription(rule));
        os << "}, ";
        stats::emitJsonString(os, "defaultConfiguration");
        os << ": {";
        stats::emitJsonString(os, "level");
        os << ": ";
        stats::emitJsonString(os, "error");
        os << "}}";
    }
    os << "]}}, ";
    stats::emitJsonString(os, "results");
    os << ": [";
    first = true;
    for (const Diagnostic &d : result.diagnostics) {
        if (!first)
            os << ", ";
        first = false;
        os << "{";
        stats::emitJsonString(os, "ruleId");
        os << ": ";
        stats::emitJsonString(os, d.rule);
        os << ", ";
        stats::emitJsonString(os, "level");
        os << ": ";
        stats::emitJsonString(os, "error");
        os << ", ";
        stats::emitJsonString(os, "message");
        os << ": {";
        stats::emitJsonString(os, "text");
        os << ": ";
        stats::emitJsonString(os, d.message);
        os << "}, ";
        stats::emitJsonString(os, "locations");
        os << ": [{";
        stats::emitJsonString(os, "physicalLocation");
        os << ": {";
        stats::emitJsonString(os, "artifactLocation");
        os << ": {";
        stats::emitJsonString(os, "uri");
        os << ": ";
        stats::emitJsonString(os, sarifUri(d.path));
        os << "}, ";
        stats::emitJsonString(os, "region");
        os << ": {";
        stats::emitJsonString(os, "startLine");
        os << ": " << (d.line == 0 ? 1 : d.line) << "}}}]}";
    }
    os << "]}]}\n";
}

int
exitCode(const LintResult &result)
{
    if (!result.errors.empty())
        return 2;
    return result.diagnostics.empty() ? 0 : 1;
}

} // namespace gds::lint
