/**
 * @file
 * Tests for gds-lint: every rule demonstrated against a planted fixture
 * (one violating file and one suppressed file per rule under
 * tests/lint_fixtures), the suppression-directive semantics, the
 * text/JSON renderers, the exit-code contract, and the self-check that
 * the real tree is lint-clean.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"

namespace gds::lint
{
namespace
{

const std::string repoRoot = GDS_SOURCE_ROOT;
const std::string fixtureRoot = repoRoot + "/tests/lint_fixtures";

/** Lint one fixture file, scoping rules against the fixture tree. */
LintResult
lintFixture(const std::string &rel)
{
    return lintPaths({fixtureRoot + "/" + rel}, fixtureRoot);
}

/** "rule@line" signatures, in reported order. */
std::vector<std::string>
signatures(const LintResult &result)
{
    std::vector<std::string> sigs;
    for (const Diagnostic &d : result.diagnostics)
        sigs.push_back(d.rule + "@" + std::to_string(d.line));
    return sigs;
}

TEST(LintRules, KnownRuleSetIsStable)
{
    const std::vector<std::string> expected = {
        "no-naked-assert",
        "no-raw-stderr",
        "no-unseeded-rng",
        "no-float-eq",
        "header-hygiene",
        "component-hooks",
        "checkpoint-hooks",
        "checkpoint-field-coverage",
        "env-knob-discipline",
        "no-raw-cerr-logging",
    };
    EXPECT_EQ(knownRules(), expected);
}

// --- R1: no-naked-assert -------------------------------------------------

TEST(LintRules, NakedAssertFlagged)
{
    const LintResult r = lintFixture("src/algo/bad_assert.cc");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"no-naked-assert@7",
                                        "no-naked-assert@8"}));
    EXPECT_NE(r.diagnostics[0].message.find("compiled out under NDEBUG"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[1].message.find("typed SimError"),
              std::string::npos);
}

TEST(LintRules, NakedAssertSuppressed)
{
    EXPECT_TRUE(lintFixture("src/algo/ok_assert.cc").clean());
}

// --- R2: no-raw-stderr ---------------------------------------------------

TEST(LintRules, RawStderrFlagged)
{
    // The std::cerr stream on line 9 violates both R2 and R11; the raw
    // stderr handle on line 10 only R2.
    const LintResult r = lintFixture("src/graph/bad_stderr.cc");
    EXPECT_EQ(signatures(r),
              (std::vector<std::string>{"no-raw-cerr-logging@9",
                                        "no-raw-stderr@9",
                                        "no-raw-stderr@10"}));
}

TEST(LintRules, RawStderrSuppressedByWrappedOwnLineDirective)
{
    EXPECT_TRUE(lintFixture("src/graph/ok_stderr.cc").clean());
}

// --- R11: no-raw-cerr-logging --------------------------------------------

TEST(LintRules, RawCerrLoggingFlaggedInsideR2CarveOut)
{
    // The fixture lives under src/common/logging…, where R2 is scoped
    // out — only R11 fires, proving the rules compose rather than alias.
    const LintResult r = lintFixture("src/common/logging_bad_cerr.cc");
    EXPECT_EQ(signatures(r),
              (std::vector<std::string>{"no-raw-cerr-logging@10"}));
    EXPECT_NE(r.diagnostics[0].message.find("mutex-serialized"),
              std::string::npos);
}

TEST(LintRules, RawCerrLoggingSuppressed)
{
    EXPECT_TRUE(lintFixture("src/common/logging_ok_cerr.cc").clean());
}

// --- R3: no-unseeded-rng -------------------------------------------------

TEST(LintRules, UnseededRngFlagged)
{
    const LintResult r = lintFixture("src/graph/bad_rng.cc");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"no-unseeded-rng@9",
                                        "no-unseeded-rng@10",
                                        "no-unseeded-rng@11"}));
    EXPECT_NE(r.diagnostics[0].message.find(
                  "default-constructed std::mt19937"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[1].message.find("std::random_device"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[2].message.find("rand()"), std::string::npos);
}

TEST(LintRules, UnseededRngSuppressed)
{
    EXPECT_TRUE(lintFixture("src/graph/ok_rng.cc").clean());
}

// --- R4: no-float-eq -----------------------------------------------------

TEST(LintRules, FloatEqualityFlagged)
{
    const LintResult r = lintFixture("src/energy/bad_float_eq.cc");
    EXPECT_EQ(signatures(r),
              (std::vector<std::string>{"no-float-eq@7", "no-float-eq@7"}));
}

TEST(LintRules, FloatEqualitySuppressed)
{
    EXPECT_TRUE(lintFixture("src/energy/ok_float_eq.cc").clean());
}

TEST(LintRules, FloatEqualityScopedToEnergyAndStats)
{
    // The identical content outside src/energy and src/stats is legal.
    const std::string body = "bool f(double a, double b)\n"
                             "{ return a == b; }\n";
    EXPECT_TRUE(lintBuffer("x.cc", "src/algo/x.cc", body).empty());
    EXPECT_FALSE(lintBuffer("x.cc", "src/stats/x.cc", body).empty());
}

// --- R5: header-hygiene --------------------------------------------------

TEST(LintRules, HeaderHygieneFlagged)
{
    const LintResult r = lintFixture("src/core/bad_header.hh");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"header-hygiene@1",
                                        "header-hygiene@4"}));
    EXPECT_EQ(r.diagnostics[0].message, "header lacks #pragma once");
    EXPECT_TRUE(r.diagnostics[0].fileLevel);
    EXPECT_NE(r.diagnostics[1].message.find("using namespace"),
              std::string::npos);
}

TEST(LintRules, HeaderHygieneSuppressedFileLevel)
{
    EXPECT_TRUE(lintFixture("src/core/ok_header.hh").clean());
}

// --- R6: component-hooks -------------------------------------------------

TEST(LintRules, ComponentHooksFlagged)
{
    const LintResult r = lintFixture("src/core/bad_component.hh");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"component-hooks@8"}));
    EXPECT_NE(r.diagnostics[0].message.find("'SilentWidget'"),
              std::string::npos);
    // Overriding busy() also makes nextEventCycle() mandatory.
    EXPECT_NE(r.diagnostics[0].message.find(
                  "debugState(), activityCounter() and nextEventCycle()"),
              std::string::npos);
    // busy() is overridden in the fixture, so it is not reported.
    EXPECT_EQ(r.diagnostics[0].message.find("busy()"), std::string::npos);
}

TEST(LintRules, ComponentHooksActivityCounterFlagged)
{
    const LintResult r = lintFixture("src/core/bad_activity.hh");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"component-hooks@8"}));
    EXPECT_NE(r.diagnostics[0].message.find("'MuteWidget'"),
              std::string::npos);
    // Both watchdog hooks exist; the telemetry hook and (because busy()
    // is overridden) the fast-forward horizon are missing.
    EXPECT_NE(r.diagnostics[0].message.find(
                  "activityCounter() and nextEventCycle()"),
              std::string::npos);
    EXPECT_EQ(r.diagnostics[0].message.find("busy()"), std::string::npos);
    EXPECT_EQ(r.diagnostics[0].message.find("debugState()"),
              std::string::npos);
}

TEST(LintRules, ComponentHooksNextEventCycleFlagged)
{
    const LintResult r = lintFixture("src/core/bad_next_event.hh");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"component-hooks@9"}));
    EXPECT_NE(r.diagnostics[0].message.find("'SluggishWidget'"),
              std::string::npos);
    // Every diagnostic hook exists; only the fast-forward horizon that
    // the busy() override requires is missing.
    EXPECT_NE(r.diagnostics[0].message.find("nextEventCycle()"),
              std::string::npos);
    EXPECT_EQ(r.diagnostics[0].message.find("activityCounter()"),
              std::string::npos);
    EXPECT_EQ(r.diagnostics[0].message.find("debugState()"),
              std::string::npos);
}

TEST(LintRules, ComponentHooksSuppressed)
{
    EXPECT_TRUE(lintFixture("src/core/ok_component.hh").clean());
}

// --- R7: checkpoint-hooks ------------------------------------------------

TEST(LintRules, CheckpointHooksFlagged)
{
    const LintResult r = lintFixture("src/core/bad_checkpoint.hh");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"checkpoint-hooks@9"}));
    EXPECT_NE(r.diagnostics[0].message.find("'ForgetfulWidget'"),
              std::string::npos);
    // Both halves of the serialization pair are missing.
    EXPECT_NE(r.diagnostics[0].message.find(
                  "saveState() and restoreState()"),
              std::string::npos);
}

TEST(LintRules, CheckpointHooksSatisfiedByDeclarationPair)
{
    // The R6 fixtures declare the pair, so they trip only their own rule;
    // an in-memory subclass with just one half names the missing other.
    const std::string body =
        "class HalfWidget : public sim::Component\n"
        "{\n"
        "  public:\n"
        "    bool busy() const override { return false; }\n"
        "    std::string debugState() const override { return \"\"; }\n"
        "    std::uint64_t activityCounter() const override { return 0; }\n"
        "    Cycle nextEventCycle() const override { return 1; }\n"
        "    void saveState(sim::Serializer &s) const override;\n"
        "};\n";
    const auto diags = lintBuffer("x.hh", "src/core/x.hh", body);
    // header-hygiene (no pragma once) plus the missing restoreState().
    bool found = false;
    for (const auto &d : diags) {
        if (d.rule == "checkpoint-hooks") {
            found = true;
            EXPECT_NE(d.message.find("restoreState()"), std::string::npos);
            EXPECT_EQ(d.message.find("saveState() and"), std::string::npos);
        }
    }
    EXPECT_TRUE(found);
}

// --- R8: checkpoint-field-coverage ---------------------------------------

TEST(LintModel, UnserializedFieldsFlagged)
{
    const LintResult r = lintFixture("src/core/bad_ckpt_field.hh");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"checkpoint-field-coverage@28",
                                        "checkpoint-field-coverage@29"}));
    EXPECT_NE(r.diagnostics[0].message.find("'credits'"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[0].message.find("missing from fields()"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[1].message.find("'lost'"), std::string::npos);
}

TEST(LintModel, SkipDirectiveAndStatsFieldsExempt)
{
    // ok_ckpt.hh: full coverage, a justified gds-ckpt skip, and a
    // stats:: member the Component base serializes.
    EXPECT_TRUE(lintFixture("src/core/ok_ckpt.hh").clean());
}

TEST(LintModel, CoverageAnalyzedAcrossFiles)
{
    // Class in a header, fields() out-of-line in the matching source:
    // the model stitches them together and anchors the R8 finding to the
    // field's declaration in the header.
    const std::string header =
        "#pragma once\n"
        "class SplitWidget : public sim::Component\n"
        "{\n"
        "  public:\n"
        "    bool busy() const override { return false; }\n"
        "    std::string debugState() const override { return \"\"; }\n"
        "    std::uint64_t activityCounter() const override { return 0; }\n"
        "    Cycle nextEventCycle() const override { return 1; }\n"
        "    void saveState(sim::Serializer &s) const override;\n"
        "    void restoreState(sim::Deserializer &d) override;\n"
        "    template <typename Self, typename Ar>\n"
        "    static void fields(Self &self, Ar &ar);\n"
        "  private:\n"
        "    std::uint64_t ticks = 0;\n"
        "    std::uint64_t dropped = 0;\n"
        "};\n";
    const std::string source =
        "#include \"split_widget.hh\"\n"
        "template <typename Self, typename Ar>\n"
        "void SplitWidget::fields(Self &self, Ar &ar)\n"
        "{\n"
        "    ar(self.ticks);\n"
        "}\n";
    const LintResult r = lintBuffers(
        {{"split_widget.hh", "src/core/split_widget.hh", header},
         {"split_widget.cc", "src/core/split_widget.cc", source}});
    ASSERT_EQ(r.diagnostics.size(), 1u);
    EXPECT_EQ(r.diagnostics[0].rule, "checkpoint-field-coverage");
    EXPECT_EQ(r.diagnostics[0].path, "split_widget.hh");
    EXPECT_EQ(r.diagnostics[0].line, 15u);
    EXPECT_NE(r.diagnostics[0].message.find("'dropped'"),
              std::string::npos);
}

TEST(LintModel, HeaderAloneWithoutBodiesIsNotFlagged)
{
    // Linting just the header must not false-positive: fields() lives in
    // the unseen source file, and R7 already polices the hooks.
    const std::string header =
        "#pragma once\n"
        "class SplitWidget : public sim::Component\n"
        "{\n"
        "  public:\n"
        "    bool busy() const override { return false; }\n"
        "    std::string debugState() const override { return \"\"; }\n"
        "    std::uint64_t activityCounter() const override { return 0; }\n"
        "    Cycle nextEventCycle() const override { return 1; }\n"
        "    void saveState(sim::Serializer &s) const override;\n"
        "    void restoreState(sim::Deserializer &d) override;\n"
        "    template <typename Self, typename Ar>\n"
        "    static void fields(Self &self, Ar &ar);\n"
        "  private:\n"
        "    std::uint64_t ticks = 0;\n"
        "};\n";
    EXPECT_TRUE(
        lintBuffer("x.hh", "src/core/x.hh", header).empty());
}

/** Read a file into memory so tests can mutate it. */
std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
slurpFixture(const std::string &rel)
{
    return slurpFile(fixtureRoot + "/" + rel);
}

/** Remove the first source line containing @p needle. */
std::string
deleteLineContaining(const std::string &text, const std::string &needle)
{
    std::istringstream in(text);
    std::ostringstream out;
    std::string line;
    bool deleted = false;
    while (std::getline(in, line)) {
        if (!deleted && line.find(needle) != std::string::npos) {
            deleted = true;
            continue;
        }
        out << line << "\n";
    }
    EXPECT_TRUE(deleted) << "mutation needle not found: " << needle;
    return out.str();
}

TEST(LintModel, MutationDeletingFieldsLineTripsCoverage)
{
    // The gate guards itself: start from the R8-clean fixture, delete
    // the one fields() line that lists 'credits', and the coverage rule
    // must fire.
    const std::string clean = slurpFixture("src/core/ok_ckpt.hh");
    ASSERT_TRUE(
        lintBuffer("ok_ckpt.hh", "src/core/ok_ckpt.hh", clean).empty());
    const std::string mutated =
        deleteLineContaining(clean, "ar(self.credits);");
    const auto diags =
        lintBuffer("ok_ckpt.hh", "src/core/ok_ckpt.hh", mutated);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "checkpoint-field-coverage");
    EXPECT_NE(diags[0].message.find("'credits'"), std::string::npos);
    EXPECT_NE(diags[0].message.find("missing from fields()"),
              std::string::npos);
}

TEST(LintModel, MutationDeletingSaveLineTripsCoverage)
{
    // Deleting the saveState() line that forwards to fields() leaves the
    // component out of every checkpoint; the hooks rule must fire.
    const std::string clean = slurpFixture("src/core/ok_ckpt.hh");
    const std::string mutated =
        deleteLineContaining(clean, "void saveState(");
    const auto diags =
        lintBuffer("ok_ckpt.hh", "src/core/ok_ckpt.hh", mutated);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "checkpoint-hooks");
    EXPECT_NE(diags[0].message.find("must override saveState()"),
              std::string::npos);
}

TEST(LintModel, MutationDeletingRestoreLineTripsCoverage)
{
    const std::string clean = slurpFixture("src/core/ok_ckpt.hh");
    const std::string mutated =
        deleteLineContaining(clean, "void restoreState(");
    const auto diags =
        lintBuffer("ok_ckpt.hh", "src/core/ok_ckpt.hh", mutated);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "checkpoint-hooks");
    EXPECT_NE(diags[0].message.find("must override restoreState()"),
              std::string::npos);
}

// --- R10: env-knob-discipline --------------------------------------------

TEST(LintRules, RawGdsGetenvFlagged)
{
    const LintResult r = lintFixture("src/core/bad_getenv.cc");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"env-knob-discipline@9"}));
    EXPECT_NE(r.diagnostics[0].message.find("GDS_TURBO"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[0].message.find("common::parseEnvU64"),
              std::string::npos);
}

TEST(LintRules, NonGdsGetenvAndSuppressedReadAreClean)
{
    EXPECT_TRUE(lintFixture("src/core/ok_getenv.cc").clean());
}

TEST(LintRules, EnvKnobExemptInsideParseAndDebug)
{
    const std::string body = "#include <cstdlib>\n"
                             "bool f() { return std::getenv(\"GDS_X\"); }\n";
    EXPECT_TRUE(
        lintBuffer("parse.cc", "src/common/parse.cc", body).empty());
    EXPECT_TRUE(
        lintBuffer("debug.cc", "src/common/debug.cc", body).empty());
    EXPECT_FALSE(
        lintBuffer("other.cc", "src/common/other.cc", body).empty());
}

// --- gds-ckpt directive hygiene ------------------------------------------

TEST(LintModel, BadCkptDirectivesFlagged)
{
    const LintResult r = lintFixture("src/core/bad_ckpt_skip.hh");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"bad-suppression@9",
                                        "bad-suppression@29",
                                        "bad-suppression@32"}));
    EXPECT_NE(r.diagnostics[0].message.find(
                  "names no data member"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[1].message.find("needs a justification"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[2].message.find("stale"), std::string::npos);
}

// --- bad-suppression meta rule -------------------------------------------

TEST(LintRules, BadDirectivesFlagged)
{
    const LintResult r = lintFixture("src/core/bad_directive.cc");
    ASSERT_EQ(signatures(r),
              (std::vector<std::string>{"bad-suppression@3",
                                        "bad-suppression@6",
                                        "bad-suppression@9"}));
    EXPECT_NE(r.diagnostics[0].message.find("needs a justification"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[1].message.find("unknown rule 'not-a-rule'"),
              std::string::npos);
    EXPECT_NE(r.diagnostics[2].message.find(
                  "'gds-lint: allow(<rule>) <justification>'"),
              std::string::npos);
}

// --- Suppression semantics on in-memory buffers --------------------------

TEST(LintSuppressions, ProseMentionOfDirectiveSyntaxIsNotADirective)
{
    const std::string body =
        "// Suppress with gds-lint: allow(no-raw-stderr) and a reason.\n"
        "int x = 1;\n";
    EXPECT_TRUE(lintBuffer("x.cc", "src/core/x.cc", body).empty());
}

TEST(LintSuppressions, OwnLineDirectiveDoesNotLeakPastNextCodeLine)
{
    const std::string body =
        "// gds-lint: allow(no-unseeded-rng) covers only the next line\n"
        "int unrelated = 0;\n"
        "int bad = rand();\n";
    const auto diags = lintBuffer("x.cc", "src/core/x.cc", body);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "no-unseeded-rng");
    EXPECT_EQ(diags[0].line, 3u);
}

TEST(LintSuppressions, UnterminatedAllowIsReported)
{
    const auto diags = lintBuffer(
        "x.cc", "src/core/x.cc",
        "// gds-lint: allow(no-float-eq broken directive\nint x = 1;\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "bad-suppression");
    EXPECT_NE(diags[0].message.find("unterminated"), std::string::npos);
}

TEST(LintSuppressions, BlockCommentDirectiveWorks)
{
    const std::string body =
        "/* gds-lint: allow(no-unseeded-rng) fixture reason */\n"
        "int x = rand();\n";
    EXPECT_TRUE(lintBuffer("x.cc", "src/core/x.cc", body).empty());
}

// --- Renderers and exit codes --------------------------------------------

TEST(LintDriver, PrintsFileLineRuleMessage)
{
    const LintResult r = lintFixture("src/core/bad_header.hh");
    std::ostringstream os;
    printDiagnostics(r, os);
    const std::string expected_first = fixtureRoot +
        "/src/core/bad_header.hh:1: header-hygiene: "
        "header lacks #pragma once\n";
    EXPECT_EQ(os.str().substr(0, expected_first.size()), expected_first);
}

TEST(LintDriver, JsonSummaryCountsRules)
{
    const LintResult r = lintPaths({fixtureRoot}, fixtureRoot);
    std::ostringstream os;
    writeJsonSummary(r, os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"files_scanned\": 23"), std::string::npos);
    EXPECT_NE(json.find("\"violations\": 26"), std::string::npos);
    EXPECT_NE(json.find("\"tool_errors\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"no-naked-assert\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"bad-suppression\": 6"), std::string::npos);
    EXPECT_NE(json.find("\"component-hooks\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"checkpoint-hooks\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"checkpoint-field-coverage\": 2"),
              std::string::npos);
    EXPECT_EQ(json.find("save-restore-symmetry"), std::string::npos);
    EXPECT_NE(json.find("\"env-knob-discipline\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"no-raw-cerr-logging\": 2"), std::string::npos);
}

TEST(LintDriver, SarifLogHasToolRulesAndResults)
{
    const LintResult r = lintFixture("src/core/bad_checkpoint.hh");
    std::ostringstream os;
    writeSarif(r, os);
    const std::string sarif = os.str();
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"gds-lint\""), std::string::npos);
    // Every known rule is described in the driver metadata.
    for (const std::string &rule : knownRules())
        EXPECT_NE(sarif.find("\"id\": \"" + rule + "\""),
                  std::string::npos);
    // The one finding lands as a result with a physical location.
    EXPECT_NE(sarif.find("\"ruleId\": \"checkpoint-hooks\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 9"), std::string::npos);
    EXPECT_NE(sarif.find("bad_checkpoint.hh"), std::string::npos);
}

TEST(LintDriver, FixtureTreeExitsOne)
{
    const LintResult r = lintPaths({fixtureRoot}, fixtureRoot);
    EXPECT_EQ(r.filesScanned, 23u);
    EXPECT_EQ(r.diagnostics.size(), 26u);
    EXPECT_EQ(exitCode(r), 1);
}

TEST(LintDriver, MissingPathExitsTwo)
{
    const LintResult r =
        lintPaths({repoRoot + "/no/such/path.cc"}, repoRoot);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_EQ(exitCode(r), 2);
}

TEST(LintDriver, CleanResultExitsZero)
{
    EXPECT_EQ(exitCode(LintResult{}), 0);
}

// --- Self-check: the real tree is lint-clean -----------------------------

TEST(LintSelfCheck, RepositoryTreeIsClean)
{
    const LintResult r = lintPaths({repoRoot + "/src", repoRoot + "/tools",
                                    repoRoot + "/tests",
                                    repoRoot + "/bench"},
                                   repoRoot);
    std::ostringstream os;
    printDiagnostics(r, os);
    EXPECT_TRUE(r.clean()) << os.str();
    EXPECT_EQ(exitCode(r), 0);
    // Walking tests/ must have skipped the planted fixtures.
    EXPECT_GT(r.filesScanned, 100u);
}

TEST(LintSelfCheck, DeletingAnHbmFieldsLineFailsTheSweep)
{
    // The same mutation CI applies: drop the inflightTx line of Hbm's
    // fields() list and the cross-file coverage rule must catch it.
    const std::string header = slurpFile(repoRoot + "/src/mem/hbm.hh");
    const std::string source = slurpFile(repoRoot + "/src/mem/hbm.cc");
    const auto lint = [&](const std::string &cc) {
        return lintBuffers({{"hbm.hh", "src/mem/hbm.hh", header},
                            {"hbm.cc", "src/mem/hbm.cc", cc}});
    };
    ASSERT_TRUE(lint(source).clean());
    const LintResult r =
        lint(deleteLineContaining(source, "ar(self.inflightTx"));
    ASSERT_FALSE(r.diagnostics.empty());
    for (const Diagnostic &d : r.diagnostics)
        EXPECT_EQ(d.rule, "checkpoint-field-coverage");
    EXPECT_NE(r.diagnostics[0].message.find("'inflightTx'"),
              std::string::npos);
    EXPECT_EQ(exitCode(r), 1);
}

} // namespace
} // namespace gds::lint
