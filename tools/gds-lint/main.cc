/**
 * @file
 * gds-lint command line front end.
 *
 *   gds-lint [--root DIR] [--json[=FILE]] [--sarif=FILE] <paths...>
 *
 * Exit codes: 0 = clean, 1 = rule violations found, 2 = tool error
 * (unreadable file, bad arguments) — so CI failures are diagnosable at a
 * glance.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace
{

int
usage()
{
    std::printf(
        "usage: gds-lint [--root DIR] [--json[=FILE]] [--sarif=FILE] "
        "<paths...>\n"
        "\n"
        "Lints .cc/.cpp/.hh/.h/.hpp files against the project rules:\n");
    for (const std::string &rule : gds::lint::knownRules())
        std::printf("  %s\n", rule.c_str());
    std::printf(
        "\nSuppress one finding with a justified comment on (or directly\n"
        "above) the offending line:\n"
        "  // gds-lint: allow(<rule>) <justification>\n"
        "Exempt one derived field from checkpoint-field-coverage\n"
        "with an own-line comment above its declaration:\n"
        "  // gds-ckpt: skip(<field>) <justification>\n"
        "\n--sarif=FILE writes a SARIF 2.1.0 log for CI code scanning.\n"
        "\nExit codes: 0 clean, 1 violations, 2 tool error.\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    bool json = false;
    std::string json_file = "-";
    std::string sarif_file;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--root") {
            if (++i >= argc)
                return usage();
            root = argv[i];
        } else if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            json_file = arg.substr(7);
        } else if (arg.rfind("--sarif=", 0) == 0) {
            sarif_file = arg.substr(8);
            if (sarif_file.empty())
                return usage();
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stdout, "gds-lint: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty())
        return usage();

    const gds::lint::LintResult result = gds::lint::lintPaths(paths, root);

    if (json && json_file == "-") {
        gds::lint::writeJsonSummary(result, std::cout);
    } else {
        gds::lint::printDiagnostics(result, std::cout);
        if (json) {
            std::ofstream out(json_file);
            if (out)
                gds::lint::writeJsonSummary(result, out);
            else
                std::printf("gds-lint: cannot write JSON summary to %s\n",
                            json_file.c_str());
        }
    }
    if (!sarif_file.empty()) {
        std::ofstream out(sarif_file);
        if (out)
            gds::lint::writeSarif(result, out);
        else
            std::printf("gds-lint: cannot write SARIF log to %s\n",
                        sarif_file.c_str());
    }
    for (const gds::lint::ToolError &e : result.errors)
        std::printf("gds-lint: error: %s: %s\n", e.path.c_str(),
                    e.message.c_str());
    if (!result.diagnostics.empty()) {
        std::printf("gds-lint: %zu violation(s) in %zu file(s) scanned\n",
                    result.diagnostics.size(), result.filesScanned);
    }
    return gds::lint::exitCode(result);
}
