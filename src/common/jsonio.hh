/**
 * @file
 * The repo's one RFC 8259 JSON module: one reader, one string escaper,
 * one number formatter and a comma-tracking writer built on them. Every
 * JSON document the repo emits (stats, traces, records, manifests,
 * daemon lines) and every one it reads goes through here.
 *
 * The reader builds a JsonValue tree; numbers additionally retain their
 * raw lexeme so integer fields can be re-parsed through the strict
 * common/parse.hh helpers — one checked numeric path for CLI flags and
 * daemon requests alike. Not a general-purpose JSON library: no
 * streaming, no comments. Depth is bounded to keep adversarial inputs
 * from recursing the stack away.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hh"

namespace gds::common
{

/** One parsed JSON value (tree node). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    using Object = std::map<std::string, JsonValue>;
    using Array = std::vector<JsonValue>;

    JsonValue() = default;

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }
    bool isBool() const { return _kind == Kind::Bool; }
    bool isNumber() const { return _kind == Kind::Number; }
    bool isString() const { return _kind == Kind::String; }
    bool isObject() const { return _kind == Kind::Object; }
    bool isArray() const { return _kind == Kind::Array; }

    /** Value accessors; calling the wrong one is a caller bug. */
    bool asBool() const;
    double asNumber() const;
    /** The number exactly as it appeared in the input ("1e3", "42"). */
    const std::string &numberLexeme() const;
    const std::string &asString() const;
    const Object &asObject() const;
    const Array &asArray() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    // Construction helpers (used by the parser).
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v, std::string lexeme);
    static JsonValue makeString(std::string v);
    static JsonValue makeObject(Object v);
    static JsonValue makeArray(Array v);

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _text; ///< string value, or the number's raw lexeme
    std::shared_ptr<Object> _object;
    std::shared_ptr<Array> _array;
};

/**
 * Parse @p text as exactly one JSON value (trailing garbage is an
 * error). Failures carry "byte N: what" messages.
 */
Result<JsonValue> parseJson(const std::string &text);

/** Write @p s as a quoted, RFC 8259-escaped JSON string. */
void emitJsonString(std::ostream &os, std::string_view s);

/** emitJsonString() into a returned string. */
std::string jsonQuote(std::string_view s);

/** Significant digits that round-trip every double. */
inline constexpr int kRoundTripDigits = 17;

/**
 * Write @p v as a JSON number, whatever the stream's precision or flags:
 * printf "%.Pg" with P the larger of @p min_digits and the fewest
 * significant digits that parse back to exactly @p v, so no value is
 * ever rounded. The default of 6 prints every value that "%g" already
 * printed exactly byte for byte as "%g" does; kRoundTripDigits
 * reproduces "%.17g" (the trace, sampler and cache-journal bytes).
 * Non-finite values become null.
 */
void emitJsonNumber(std::ostream &os, double v, int min_digits = 6);

/**
 * Comma-placing JSON writer: callers name what comes next (a key, a
 * value, an opening or closing bracket) and the writer inserts the ','
 * and ':' separators. It does not check that calls nest correctly.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out) : os(out) {}

    JsonWriter &beginObject() { return open('{'); }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &beginArray() { return open('['); }
    JsonWriter &endArray() { return close(']'); }

    /** An object member's key; the next call writes its value. */
    JsonWriter &key(std::string_view name);

    JsonWriter &string(std::string_view s);
    /** A number through emitJsonNumber() at its default precision. */
    JsonWriter &number(double v);
    /** An exact integer (counters and cycle numbers). */
    JsonWriter &integer(std::uint64_t v);
    JsonWriter &boolean(bool b);
    JsonWriter &null();

  private:
    JsonWriter &open(char bracket);
    JsonWriter &close(char bracket);
    /** Emit the ',' that precedes a value or key, where one is due. */
    void separate();

    std::ostream &os;
    bool first = true;     ///< nothing written yet in the open container
    bool afterKey = false; ///< a key was just written; its value follows
};

} // namespace gds::common
