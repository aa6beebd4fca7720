/**
 * @file
 * A lightweight C++ lexer for gds-lint. It is not a full C++ front end:
 * it splits a translation unit into identifier / number / string / char /
 * punctuation tokens with line numbers, strips comments (harvesting
 * `// gds-lint: allow(<rule>) <justification>` suppressions and
 * `// gds-ckpt: skip(<field>) <justification>` checkpoint exemptions on
 * the way), and handles raw strings, digit separators, and multi-char
 * operators. That is exactly enough surface for the project rules in
 * rules.hh and the class model in model.hh while staying dependency-free
 * (no libclang).
 */

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace gds::lint
{

enum class TokKind
{
    Identifier,
    Number,
    String,
    CharLit,
    Punct,
};

/** One lexical token. Comments and whitespace are not tokens. */
struct Token
{
    TokKind kind;
    /** Identifier/Number/Punct: the spelling. String: the literal's
     *  contents without quotes (escapes unprocessed) so rules can match
     *  arguments like getenv("GDS_..."). CharLit: always "''". */
    std::string text;
    std::size_t line; ///< 1-based line the token starts on
    bool isFloat = false; ///< Number only: has a '.' or an exponent
};

/** A parsed `// gds-lint: allow(<rule>) <justification>` directive. */
struct Suppression
{
    std::size_t line; ///< line the comment starts on
    std::string rule;
    std::string justification;
    /** True when no code precedes the comment on its line (the
     *  suppression then also covers the next line with code on it, so
     *  justifications may wrap over several comment lines). */
    bool ownLine;
};

/**
 * A parsed `// gds-ckpt: skip(<field>) <justification>` directive: the
 * named data member of the class whose body holds the directive is
 * exempt from R8 checkpoint-field-coverage (config-derived or per-call
 * scratch state that the constructor rebuilds and fields() must not
 * list).
 */
struct CkptSkip
{
    std::size_t line; ///< line the comment starts on
    std::string field;
    std::string justification;
};

/** A comment that mentions gds-lint/gds-ckpt but does not parse as a
 *  directive. */
struct BadDirective
{
    std::size_t line;
    std::string message;
};

/** Token stream plus suppression metadata for one file. */
struct LexedFile
{
    std::string path;
    std::vector<Token> tokens;
    std::vector<Suppression> suppressions;
    std::vector<CkptSkip> ckptSkips;
    std::vector<BadDirective> badDirectives;
    std::size_t lineCount = 0;
};

/** Lex @p content (the full text of @p path). Never fails: unexpected
 *  bytes are skipped so the rules still see everything lexable. */
LexedFile lexFile(std::string path, std::string_view content);

} // namespace gds::lint
