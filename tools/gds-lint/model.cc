#include "model.hh"

#include <map>
#include <unordered_map>
#include <unordered_set>

#include "rules.hh"

namespace gds::lint
{

namespace
{

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

/** Index of the token after the matching close brace of toks[open]. */
std::size_t
skipBraced(const std::vector<Token> &toks, std::size_t open)
{
    std::size_t depth = 0;
    std::size_t j = open;
    for (; j < toks.size(); ++j) {
        if (isPunct(toks[j], "{"))
            ++depth;
        else if (isPunct(toks[j], "}") && --depth == 0)
            return j + 1;
    }
    return j;
}

/** Keywords that disqualify a class-body statement from being a
 *  non-static data member. */
bool
isNonMemberLead(const Token &t)
{
    return isIdent(t, "using") || isIdent(t, "typedef") ||
           isIdent(t, "friend") || isIdent(t, "static") ||
           isIdent(t, "struct") || isIdent(t, "class") ||
           isIdent(t, "enum") || isIdent(t, "union") ||
           isIdent(t, "template");
}

/** Capture the body toks[open] == '{' as @p cm's fields() list (the
 *  first definition wins); returns the index of its closing brace. */
std::size_t
captureFields(const std::vector<Token> &toks, std::size_t open,
              ComponentModel &cm)
{
    const std::size_t close = skipBraced(toks, open) - 1;
    if (!cm.fieldsBody.defined) {
        cm.fieldsBody.defined = true;
        cm.fieldsBody.tokens.assign(toks.begin() + open + 1,
                                    toks.begin() + close);
    }
    return close;
}

/**
 * Parse one class body (toks[open] == '{') into data members and an
 * inline fields() body. Statements are walked at body depth only;
 * nested type definitions and function bodies are skipped wholesale, so
 * only the class's own non-static data members are recorded.
 */
void
parseClassBody(const std::vector<Token> &toks, std::size_t open,
               ComponentModel &cm)
{
    const std::size_t end = skipBraced(toks, open) - 1; // the '}' itself
    std::size_t i = open + 1;
    while (i < end) {
        // Access specifiers are statement separators, not statements.
        if ((isIdent(toks[i], "public") || isIdent(toks[i], "private") ||
             isIdent(toks[i], "protected")) &&
            i + 1 < end && isPunct(toks[i + 1], ":")) {
            i += 2;
            continue;
        }

        // Collect the statement prefix: tokens up to the first ';', '=',
        // '{' or '(' at statement level (angle brackets of template
        // arguments never contain any of those in this codebase).
        const std::size_t stmt_begin = i;
        std::size_t j = i;
        while (j < end && !isPunct(toks[j], ";") && !isPunct(toks[j], "=") &&
               !isPunct(toks[j], "{") && !isPunct(toks[j], "("))
            ++j;
        if (j >= end) {
            i = end;
            break;
        }

        if (isPunct(toks[j], "(")) {
            // Function (declaration, definition, or constructor). Check
            // whether it is the fields() list.
            const bool is_fields =
                j > stmt_begin && isIdent(toks[j - 1], "fields");
            // Skip to the end of the declaration or definition: past the
            // parameter list, any qualifiers/initializer list, then either
            // ';' or a brace body.
            std::size_t depth = 0;
            while (j < end) {
                if (isPunct(toks[j], "("))
                    ++depth;
                else if (isPunct(toks[j], ")") && --depth == 0) {
                    ++j;
                    break;
                }
                ++j;
            }
            while (j < end && !isPunct(toks[j], ";") &&
                   !isPunct(toks[j], "{"))
                ++j;
            if (j < end && isPunct(toks[j], "{")) {
                const std::size_t body_end =
                    is_fields ? captureFields(toks, j, cm)
                              : skipBraced(toks, j) - 1;
                i = body_end + 1;
                // A constructor body may be followed by nothing; a
                // nested lambda-less definition never needs the ';'.
                if (i < end && isPunct(toks[i], ";"))
                    ++i;
            } else {
                i = j < end ? j + 1 : end;
            }
            continue;
        }

        if (isNonMemberLead(toks[stmt_begin])) {
            // Nested type definition, alias, friend or static member:
            // skip to the statement end, stepping over any brace body.
            while (j < end && !isPunct(toks[j], ";")) {
                if (isPunct(toks[j], "{")) {
                    j = skipBraced(toks, j);
                    continue;
                }
                ++j;
            }
            i = j < end ? j + 1 : end;
            continue;
        }

        if (isPunct(toks[j], "=") || isPunct(toks[j], "{") ||
            isPunct(toks[j], ";")) {
            // Candidate data member: name is the last identifier of the
            // prefix (ignoring a trailing [array] extent).
            std::size_t name_end = j;
            if (name_end > stmt_begin && isPunct(toks[name_end - 1], "]")) {
                while (name_end > stmt_begin &&
                       !isPunct(toks[name_end - 1], "["))
                    --name_end;
                if (name_end > stmt_begin)
                    --name_end; // the '[' itself
            }
            std::size_t name_idx = name_end;
            while (name_idx > stmt_begin &&
                   toks[name_idx - 1].kind != TokKind::Identifier)
                --name_idx;
            if (name_idx > stmt_begin) {
                const Token &name_tok = toks[name_idx - 1];
                std::string type;
                bool stats_type = false;
                for (std::size_t k = stmt_begin; k + 1 < name_idx; ++k) {
                    if (!type.empty())
                        type += ' ';
                    type += toks[k].text;
                    if (isIdent(toks[k], "stats") && k + 1 < name_idx &&
                        isPunct(toks[k + 1], "::"))
                        stats_type = true;
                }
                if (!type.empty()) {
                    cm.fields.push_back({name_tok.text, type, name_tok.line,
                                         stats_type});
                }
            }
            // Step past the initializer (if any) to the ';'.
            while (j < end && !isPunct(toks[j], ";")) {
                if (isPunct(toks[j], "{")) {
                    j = skipBraced(toks, j);
                    continue;
                }
                ++j;
            }
            i = j < end ? j + 1 : end;
            continue;
        }
        i = j + 1; // defensive: never stall
    }
}

/** Find `class|struct Name [final] : ...Component... {` definitions in
 *  @p file and append a ComponentModel per match. */
void
collectComponents(const LexedFile &file, const std::string &rel,
                  ClassModel &model)
{
    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isIdent(toks[i], "class") && !isIdent(toks[i], "struct"))
            continue;
        if (toks[i + 1].kind != TokKind::Identifier)
            continue;
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

        ComponentModel cm;
        cm.name = toks[i + 1].text;
        cm.file = file.path;
        cm.relPath = rel;
        cm.line = toks[i].line;
        cm.skips = file.ckptSkips;
        parseClassBody(toks, j, cm);
        model.components.push_back(std::move(cm));
    }
}

/** Attach out-of-line `Class::fields(...) { body }` definitions found
 *  anywhere in the scanned set to their class. */
void
collectOutOfLineBodies(const LexedFile &file, ClassModel &model)
{
    std::unordered_map<std::string, ComponentModel *> by_name;
    for (ComponentModel &cm : model.components)
        by_name.emplace(cm.name, &cm);

    const auto &toks = file.tokens;
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Identifier ||
            !isPunct(toks[i + 1], "::") || !isIdent(toks[i + 2], "fields") ||
            !isPunct(toks[i + 3], "("))
            continue;
        const auto it = by_name.find(toks[i].text);
        if (it == by_name.end())
            continue;
        // Skip the parameter list, then any qualifiers, then require a
        // brace body (a ';' here is a mere declaration — or a qualified
        // call like sim::Component::fields(self, ar), which also ends in
        // ';' and is rejected the same way).
        std::size_t j = i + 3;
        std::size_t depth = 0;
        while (j < toks.size()) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")") && --depth == 0) {
                ++j;
                break;
            }
            ++j;
        }
        while (j < toks.size() &&
               (isIdent(toks[j], "const") || isIdent(toks[j], "noexcept") ||
                isIdent(toks[j], "override") || isIdent(toks[j], "final")))
            ++j;
        if (j < toks.size() && isPunct(toks[j], "{"))
            captureFields(toks, j, *it->second);
    }
}

/** True when @p name appears as an identifier in @p body. */
bool
referencesField(const FieldsBody &body, const std::string &name)
{
    for (const Token &t : body.tokens)
        if (t.kind == TokKind::Identifier && t.text == name)
            return true;
    return false;
}

} // namespace

ClassModel
buildModel(const std::vector<LexedFile> &files,
           const std::vector<std::string> &rel_paths)
{
    ClassModel model;
    for (std::size_t i = 0; i < files.size(); ++i)
        collectComponents(files[i], rel_paths[i], model);
    for (const LexedFile &file : files)
        collectOutOfLineBodies(file, model);
    return model;
}

void
runModelRules(const ClassModel &model, std::vector<Diagnostic> &out)
{
    // gds-ckpt: skip(<field>) directives that name no data member of any
    // component declared in their file would silently fail to apply;
    // collect the per-file field universe first so they can be rejected.
    std::map<std::string, std::unordered_set<std::string>> fields_by_file;
    std::map<std::string, const CkptSkip *> reported_skips;
    for (const ComponentModel &cm : model.components) {
        auto &set = fields_by_file[cm.file];
        for (const FieldDecl &f : cm.fields)
            set.insert(f.name);
    }
    for (const ComponentModel &cm : model.components) {
        const auto &known = fields_by_file[cm.file];
        for (const CkptSkip &skip : cm.skips) {
            if (known.count(skip.field) != 0)
                continue;
            // One report per directive even when the file declares
            // several components sharing the skip list.
            const std::string key =
                cm.file + ":" + std::to_string(skip.line);
            if (!reported_skips.emplace(key, &skip).second)
                continue;
            out.push_back({cm.file, skip.line, "bad-suppression",
                           "gds-ckpt: skip(" + skip.field + ") names no "
                           "data member of a Component declared in this "
                           "file",
                           false});
        }
    }

    for (const ComponentModel &cm : model.components) {
        // Without the fields() body visible there is nothing semantic to
        // check: R7 (checkpoint-hooks) polices that the hooks exist, and
        // a partial view (single-file lint of a header whose fields()
        // lives in the .cc) must not produce false positives.
        if (!cm.fieldsBody.defined)
            continue;

        std::unordered_set<std::string> skipped;
        for (const CkptSkip &skip : cm.skips)
            skipped.insert(skip.field);

        // R8: every field listed in fields(), skipped, or stats-typed.
        for (const FieldDecl &f : cm.fields) {
            if (f.statsType)
                continue; // Component::fields walks registered stats
            const bool listed = referencesField(cm.fieldsBody, f.name);
            if (skipped.count(f.name) != 0) {
                if (listed) {
                    out.push_back(
                        {cm.file, f.line, "bad-suppression",
                         "stale gds-ckpt: skip(" + f.name + "): the field "
                         "is listed in fields(); drop the directive",
                         false});
                }
                continue;
            }
            if (listed)
                continue;
            out.push_back({cm.file, f.line, "checkpoint-field-coverage",
                           "Component '" + cm.name + "' field '" + f.name +
                           "' is missing from fields(): a checkpoint "
                           "silently drops it and every resume diverges; "
                           "list it in fields() or annotate "
                           "'// gds-ckpt: skip(" + f.name +
                           ") <justification>' for config-derived state",
                           false});
        }
    }
}

} // namespace gds::lint
