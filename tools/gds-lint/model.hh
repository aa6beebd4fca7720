/**
 * @file
 * Cross-translation-unit class model for gds-lint's semantic rules.
 *
 * The per-file rules in rules.hh are token-local: they can check that a
 * sim::Component subclass *declares* saveState()/restoreState(), but not
 * that its checkpoint actually covers the class's state. This model is
 * the second pass that closes that gap: it parses the token streams of
 * every scanned file together into a symbol table of Component
 * subclasses, direct or through a modeled base such as the accelerator
 * frame, and of every other class that declares a static fields() list
 * (the config structs configHash and gds_sim --set walk, RunRecord).
 * Each entry holds its non-static data members (name, declared type,
 * line) and the body of its static `fields(self, ar)` list, the one
 * field list every consumer walks, whether defined inline in the class
 * or out-of-line as `Class::fields` in another file. The rule that needs
 * the whole picture:
 *
 *  - checkpoint-field-coverage  R8: every data member is referenced in
 *    fields(), or carries an own-line `// gds-ckpt: skip(<field>)
 *    <justification>` exemption in the declaring file (config-derived
 *    geometry, per-call scratch, externally attached collaborators).
 *    Members with a stats:: type are exempt automatically: the
 *    Component base class serializes the registered stats of the group.
 *
 * Like the lexer, this is a heuristic parser, not a C++ front end: it
 * understands the project's house style (one class per header, members
 * declared one per statement, fields() either inline or defined as
 * `void Class::fields(...)` in the matching source file). Classes whose
 * fields() body is not visible in the scanned file set are skipped —
 * rule R7 (checkpoint-hooks) already polices the hooks' existence — so
 * linting a single file stays useful while the whole-tree sweep gets
 * the full cross-TU analysis.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hh"

namespace gds::lint
{

struct Diagnostic;

/** One non-static data member of a modeled class. */
struct FieldDecl
{
    std::string name;
    std::string type;     ///< declared type, tokens joined with spaces
    std::size_t line;     ///< declaration line in the declaring file
    bool statsType;       ///< type mentions stats:: (base class covers it)
};

/** The captured body of a class's fields() list. */
struct FieldsBody
{
    bool defined = false;  ///< a brace body was found and captured
    std::vector<Token> tokens; ///< body tokens, braces excluded
};

/** One component or fields()-listing class with everything the model
 *  rules need. */
struct ModeledClass
{
    std::string name;
    std::string file;     ///< file of the class definition
    std::string relPath;  ///< repo-relative path of that file
    std::size_t line = 0; ///< line of the class keyword
    std::size_t bodyFirstLine = 0; ///< line of the body's '{'
    std::size_t bodyLastLine = 0;  ///< line of the body's '}'
    std::vector<FieldDecl> fields;
    std::vector<CkptSkip> skips; ///< gds-ckpt directives of the file
    FieldsBody fieldsBody;
    bool declaresFields = false; ///< the body declares a fields() list
};

/** The cross-TU symbol table built from every scanned file. */
struct ClassModel
{
    std::vector<ModeledClass> classes;
};

/**
 * Build the model over @p files (first pass: class definitions and
 * inline bodies; second pass: out-of-line `Class::fields` definitions
 * anywhere in the set). @p rel_paths holds the repo-relative path of
 * each file, index-aligned with @p files.
 */
ClassModel buildModel(const std::vector<LexedFile> &files,
                      const std::vector<std::string> &rel_paths);

/**
 * Run the model rules (R8 checkpoint-field-coverage plus staleness/aim
 * checks on gds-ckpt skip directives) and append diagnostics to @p out.
 * Diagnostics carry the path of the file they anchor to (the field or
 * directive's declaring file) so the caller can route them through that
 * file's suppressions.
 */
void runModelRules(const ClassModel &model, std::vector<Diagnostic> &out);

} // namespace gds::lint
