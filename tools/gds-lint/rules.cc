#include "rules.hh"

#include <algorithm>
#include <unordered_set>

namespace gds::lint
{

namespace
{

bool
startsWith(const std::string &s, std::string_view prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool
isHeaderPath(const std::string &rel)
{
    return endsWith(rel, ".hh") || endsWith(rel, ".h") ||
           endsWith(rel, ".hpp");
}

/** Layers whose failure paths face users: gds_assert is banned here. */
bool
inUserFacingLayer(const std::string &rel)
{
    return startsWith(rel, "src/algo/") || startsWith(rel, "src/graph/") ||
           startsWith(rel, "src/stats/") || startsWith(rel, "src/energy/");
}

bool
isIdent(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Identifier && t.text == text;
}

bool
isPunct(const Token &t, std::string_view text)
{
    return t.kind == TokKind::Punct && t.text == text;
}

// --- R1: no naked asserts ------------------------------------------------

void
ruleNakedAssert(const LexedFile &f, const std::string &rel,
                std::vector<Diagnostic> &out)
{
    const bool ban_gds_assert = inUserFacingLayer(rel);
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isPunct(toks[i + 1], "("))
            continue;
        if (isIdent(toks[i], "assert")) {
            out.push_back({f.path, toks[i].line, "no-naked-assert",
                           "C assert() is compiled out under NDEBUG; throw "
                           "a typed SimError, or use gds_assert for "
                           "internal invariants in core model code",
                           false});
        } else if (ban_gds_assert && isIdent(toks[i], "gds_assert")) {
            out.push_back({f.path, toks[i].line, "no-naked-assert",
                           "gds_assert aborts the whole process; "
                           "user-facing layers must throw a typed SimError "
                           "(ConfigError / CorruptInputError)",
                           false});
        }
    }
}

// --- R2: no raw stderr ---------------------------------------------------

void
ruleRawStderr(const LexedFile &f, const std::string &rel,
              std::vector<Diagnostic> &out)
{
    if (rel == "src/common/log.cc")
        return;
    for (const Token &t : f.tokens) {
        if (isIdent(t, "cerr") || isIdent(t, "clog") ||
            isIdent(t, "stderr")) {
            out.push_back({f.path, t.line, "no-raw-stderr",
                           "raw " + t.text + " bypasses serialized "
                           "emission; report through common/log "
                           "(warn/inform/log::write) or DPRINTF",
                           false});
        }
    }
}

// --- R3: no unseeded randomness ------------------------------------------

/** Standard engines whose argless construction is nondeterministic only in
 *  the sense that nothing pins the seed to the experiment record. */
const std::unordered_set<std::string> stdEngines = {
    "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
    "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
};

void
ruleUnseededRng(const LexedFile &f, const std::string &rel,
                std::vector<Diagnostic> &out)
{
    if (startsWith(rel, "src/common/rng"))
        return;
    const auto &toks = f.tokens;
    auto flag = [&](const Token &t, const std::string &what) {
        out.push_back({f.path, t.line, "no-unseeded-rng",
                       what + " breaks run-to-run determinism (cached "
                       "matrix cells are byte-compared); seed explicitly "
                       "via gds::Rng from common/rng.hh",
                       false});
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != TokKind::Identifier)
            continue;
        if ((t.text == "rand" || t.text == "srand") && i + 1 < toks.size() &&
            isPunct(toks[i + 1], "(")) {
            flag(t, t.text + "()");
            continue;
        }
        if (t.text == "random_device") {
            flag(t, "std::random_device");
            continue;
        }
        if (stdEngines.count(t.text) == 0)
            continue;
        // Engine type name: argless construction is a violation, seeded
        // construction is allowed. Skip `engine::member` type usage.
        std::size_t j = i + 1;
        if (j < toks.size() && isPunct(toks[j], "::"))
            continue;
        if (j < toks.size() && toks[j].kind == TokKind::Identifier)
            ++j; // variable name in a declaration
        if (j >= toks.size())
            continue;
        if (isPunct(toks[j], ";")) {
            flag(t, "default-constructed std::" + t.text);
        } else if ((isPunct(toks[j], "(") || isPunct(toks[j], "{")) &&
                   j + 1 < toks.size() &&
                   isPunct(toks[j + 1], toks[j].text == "(" ? ")" : "}")) {
            flag(t, "arglessly constructed std::" + t.text);
        }
    }
}

// --- R4: no floating-point equality --------------------------------------

void
ruleFloatEq(const LexedFile &f, const std::string &rel,
            std::vector<Diagnostic> &out)
{
    if (!startsWith(rel, "src/energy/") && !startsWith(rel, "src/stats/"))
        return;
    const auto &toks = f.tokens;

    // Pass 1: names declared with a float/double type in this file.
    std::unordered_set<std::string> float_names;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "double") && !isIdent(toks[i], "float"))
            continue;
        std::size_t j = i + 1;
        while (j < toks.size() &&
               (isPunct(toks[j], "&") || isPunct(toks[j], "*") ||
                isIdent(toks[j], "const")))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Identifier)
            float_names.insert(toks[j].text);
    }

    auto floaty = [&](const Token &t) {
        if (t.kind == TokKind::Number && t.isFloat)
            return true;
        return t.kind == TokKind::Identifier && float_names.count(t.text) > 0;
    };

    // Pass 2: flag ==/!= with a float-ish operand on either side.
    for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
        if (!isPunct(toks[i], "==") && !isPunct(toks[i], "!="))
            continue;
        if (floaty(toks[i - 1]) || floaty(toks[i + 1])) {
            out.push_back({f.path, toks[i].line, "no-float-eq",
                           "'" + toks[i].text + "' on floating-point "
                           "values is representation-sensitive; compare "
                           "against a tolerance or restructure the test",
                           false});
        }
    }
}

// --- R5: header hygiene ---------------------------------------------------

void
ruleHeaderHygiene(const LexedFile &f, const std::string &rel,
                  std::vector<Diagnostic> &out)
{
    if (!isHeaderPath(rel))
        return;
    const auto &toks = f.tokens;
    bool has_pragma_once = false;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (isPunct(toks[i], "#") && isIdent(toks[i + 1], "pragma") &&
            isIdent(toks[i + 2], "once")) {
            has_pragma_once = true;
            break;
        }
    }
    if (!has_pragma_once) {
        out.push_back({f.path, 1, "header-hygiene",
                       "header lacks #pragma once", true});
    }
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (isIdent(toks[i], "using") && isIdent(toks[i + 1], "namespace")) {
            out.push_back({f.path, toks[i].line, "header-hygiene",
                           "'using namespace' in a header leaks into "
                           "every includer",
                           false});
        }
    }
}

// --- R6: Component watchdog hooks ----------------------------------------

void
ruleComponentHooks(const LexedFile &f, std::vector<Diagnostic> &out)
{
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isIdent(toks[i], "class") && !isIdent(toks[i], "struct"))
            continue;
        if (toks[i + 1].kind != TokKind::Identifier)
            continue;
        const std::string &class_name = toks[i + 1].text;
        const std::size_t class_line = toks[i].line;

        // Find the base-clause ':' (if any) before the body '{'; a ';'
        // first means a forward declaration or enum-ish use.
        std::size_t j = i + 2;
        if (j < toks.size() && isIdent(toks[j], "final"))
            ++j;
        if (j >= toks.size() || !isPunct(toks[j], ":"))
            continue;
        ++j;
        bool derives_component = false;
        while (j < toks.size() && !isPunct(toks[j], "{") &&
               !isPunct(toks[j], ";")) {
            if (isIdent(toks[j], "Component"))
                derives_component = true;
            ++j;
        }
        if (!derives_component || j >= toks.size() || !isPunct(toks[j], "{"))
            continue;

        // Scan the class body for overrides of the diagnostic hooks.
        std::size_t depth = 1;
        bool has_busy = false;
        bool has_debug_state = false;
        bool has_activity = false;
        bool has_next_event = false;
        for (++j; j < toks.size() && depth > 0; ++j) {
            if (isPunct(toks[j], "{"))
                ++depth;
            else if (isPunct(toks[j], "}"))
                --depth;
            else if (isIdent(toks[j], "busy"))
                has_busy = true;
            else if (isIdent(toks[j], "debugState"))
                has_debug_state = true;
            else if (isIdent(toks[j], "activityCounter"))
                has_activity = true;
            else if (isIdent(toks[j], "nextEventCycle"))
                has_next_event = true;
        }
        // A class that overrides busy() has wait states of its own, so the
        // inherited busy-based nextEventCycle() default no longer describes
        // them: it must state its own fast-forward horizon.
        const bool needs_next_event = has_busy && !has_next_event;
        if (!has_busy || !has_debug_state || !has_activity ||
            needs_next_event) {
            std::vector<std::string> hooks;
            if (!has_busy)
                hooks.push_back("busy()");
            if (!has_debug_state)
                hooks.push_back("debugState()");
            if (!has_activity)
                hooks.push_back("activityCounter()");
            if (needs_next_event)
                hooks.push_back("nextEventCycle()");
            std::string missing;
            for (std::size_t k = 0; k < hooks.size(); ++k) {
                if (k != 0)
                    missing += k + 1 == hooks.size() ? " and " : ", ";
                missing += hooks[k];
            }
            out.push_back({f.path, class_line, "component-hooks",
                           "Component subclass '" + class_name +
                           "' must override the diagnostic hook(s) " +
                           missing + " so deadlock snapshots, activity "
                           "traces and fast-forward horizons stay "
                           "actionable",
                           false});
        }
    }
}

// --- R7: Component checkpoint hooks ---------------------------------------

void
ruleCheckpointHooks(const LexedFile &f, std::vector<Diagnostic> &out)
{
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isIdent(toks[i], "class") && !isIdent(toks[i], "struct"))
            continue;
        if (toks[i + 1].kind != TokKind::Identifier)
            continue;
        const std::string &class_name = toks[i + 1].text;
        const std::size_t class_line = toks[i].line;

        std::size_t j = i + 2;
        if (j < toks.size() && isIdent(toks[j], "final"))
            ++j;
        if (j >= toks.size() || !isPunct(toks[j], ":"))
            continue;
        ++j;
        bool derives_component = false;
        while (j < toks.size() && !isPunct(toks[j], "{") &&
               !isPunct(toks[j], ";")) {
            if (isIdent(toks[j], "Component"))
                derives_component = true;
            ++j;
        }
        if (!derives_component || j >= toks.size() || !isPunct(toks[j], "{"))
            continue;

        // Scan the class body for the serialization pair. A component
        // missing either half silently drops its state from every
        // checkpoint, which surfaces much later as a non-bit-exact resume.
        std::size_t depth = 1;
        bool has_save = false;
        bool has_restore = false;
        for (++j; j < toks.size() && depth > 0; ++j) {
            if (isPunct(toks[j], "{"))
                ++depth;
            else if (isPunct(toks[j], "}"))
                --depth;
            else if (isIdent(toks[j], "saveState"))
                has_save = true;
            else if (isIdent(toks[j], "restoreState"))
                has_restore = true;
        }
        if (has_save && has_restore)
            continue;
        std::string missing;
        if (!has_save && !has_restore)
            missing = "saveState() and restoreState()";
        else
            missing = has_save ? "restoreState()" : "saveState()";
        out.push_back({f.path, class_line, "checkpoint-hooks",
                       "Component subclass '" + class_name +
                       "' must override " + missing + " so mid-run "
                       "checkpoints capture its state (see "
                       "src/sim/checkpoint.hh)",
                       false});
    }
}

// --- R10: env-knob discipline ---------------------------------------------

void
ruleEnvKnob(const LexedFile &f, const std::string &rel,
            std::vector<Diagnostic> &out)
{
    // The one sanctioned home of raw getenv: the strict parse helpers.
    if (startsWith(rel, "src/common/parse"))
        return;
    const auto &toks = f.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isIdent(toks[i], "getenv") || !isPunct(toks[i + 1], "("))
            continue;
        const Token &arg = toks[i + 2];
        if (arg.kind != TokKind::String ||
            arg.text.compare(0, 4, "GDS_") != 0)
            continue;
        out.push_back({f.path, toks[i].line, "env-knob-discipline",
                       "raw getenv(\"" + arg.text + "\") bypasses the "
                       "env-knob policy (strict parse, warn-and-default on "
                       "bad input); use common::parseEnvU64 / parseEnvF64 "
                       "/ parseEnvStr / envFlag from common/parse.hh",
                       false});
    }
}

} // namespace

const std::vector<std::string> &
knownRules()
{
    static const std::vector<std::string> rules = {
        "no-naked-assert",
        "no-raw-stderr",
        "no-unseeded-rng",
        "no-float-eq",
        "header-hygiene",
        "component-hooks",
        "checkpoint-hooks",
        "checkpoint-field-coverage",
        "env-knob-discipline",
    };
    return rules;
}

std::vector<Diagnostic>
runFileRules(const LexedFile &file, const std::string &rel_path)
{
    std::vector<Diagnostic> found;
    ruleNakedAssert(file, rel_path, found);
    ruleRawStderr(file, rel_path, found);
    ruleUnseededRng(file, rel_path, found);
    ruleFloatEq(file, rel_path, found);
    ruleHeaderHygiene(file, rel_path, found);
    ruleComponentHooks(file, found);
    ruleCheckpointHooks(file, found);
    ruleEnvKnob(file, rel_path, found);

    // Malformed directives and unknown rule names are violations too:
    // a suppression that silently fails to apply would be worse.
    for (const BadDirective &bad : file.badDirectives)
        found.push_back({file.path, bad.line, "bad-suppression",
                         bad.message, false});
    const auto &known = knownRules();
    for (const Suppression &s : file.suppressions) {
        if (std::find(known.begin(), known.end(), s.rule) == known.end()) {
            found.push_back({file.path, s.line, "bad-suppression",
                             "allow() names unknown rule '" + s.rule + "'",
                             false});
        }
    }
    return found;
}

std::vector<Diagnostic>
applySuppressions(std::vector<Diagnostic> diags, const LexedFile &file)
{
    // An own-line suppression covers the next line that has code on it
    // (justifications are allowed to wrap over several comment lines).
    std::vector<std::size_t> token_lines;
    token_lines.reserve(file.tokens.size());
    for (const Token &t : file.tokens)
        token_lines.push_back(t.line);
    std::sort(token_lines.begin(), token_lines.end());
    auto next_code_line = [&](std::size_t after) -> std::size_t {
        auto it = std::upper_bound(token_lines.begin(), token_lines.end(),
                                   after);
        return it == token_lines.end() ? 0 : *it;
    };

    std::vector<Diagnostic> kept;
    for (Diagnostic &d : diags) {
        bool suppressed = false;
        for (const Suppression &s : file.suppressions) {
            if (s.rule != d.rule)
                continue;
            if (d.fileLevel || s.line == d.line ||
                (s.ownLine && next_code_line(s.line) == d.line)) {
                suppressed = true;
                break;
            }
        }
        if (!suppressed)
            kept.push_back(std::move(d));
    }

    std::sort(kept.begin(), kept.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return kept;
}

std::vector<Diagnostic>
runRules(const LexedFile &file, const std::string &rel_path)
{
    return applySuppressions(runFileRules(file, rel_path), file);
}

} // namespace gds::lint
