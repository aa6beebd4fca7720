#include "common/jsonio.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace gds::common
{

bool
JsonValue::asBool() const
{
    gds_assert(_kind == Kind::Bool, "asBool() on a non-bool JsonValue");
    return _bool;
}

double
JsonValue::asNumber() const
{
    gds_assert(_kind == Kind::Number,
               "asNumber() on a non-number JsonValue");
    return _number;
}

const std::string &
JsonValue::numberLexeme() const
{
    gds_assert(_kind == Kind::Number,
               "numberLexeme() on a non-number JsonValue");
    return _text;
}

const std::string &
JsonValue::asString() const
{
    gds_assert(_kind == Kind::String,
               "asString() on a non-string JsonValue");
    return _text;
}

const JsonValue::Object &
JsonValue::asObject() const
{
    gds_assert(_kind == Kind::Object && _object,
               "asObject() on a non-object JsonValue");
    return *_object;
}

const JsonValue::Array &
JsonValue::asArray() const
{
    gds_assert(_kind == Kind::Array && _array,
               "asArray() on a non-array JsonValue");
    return *_array;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (_kind != Kind::Object || !_object)
        return nullptr;
    const auto it = _object->find(key);
    return it == _object->end() ? nullptr : &it->second;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue j;
    j._kind = Kind::Bool;
    j._bool = v;
    return j;
}

JsonValue
JsonValue::makeNumber(double v, std::string lexeme)
{
    JsonValue j;
    j._kind = Kind::Number;
    j._number = v;
    j._text = std::move(lexeme);
    return j;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue j;
    j._kind = Kind::String;
    j._text = std::move(v);
    return j;
}

JsonValue
JsonValue::makeObject(Object v)
{
    JsonValue j;
    j._kind = Kind::Object;
    j._object = std::make_shared<Object>(std::move(v));
    return j;
}

JsonValue
JsonValue::makeArray(Array v)
{
    JsonValue j;
    j._kind = Kind::Array;
    j._array = std::make_shared<Array>(std::move(v));
    return j;
}

namespace
{

/** Recursive-descent JSON reader over one in-memory string. */
class Reader
{
  public:
    explicit Reader(const std::string &text) : in(text) {}

    Result<JsonValue>
    parse()
    {
        skipWs();
        JsonValue v;
        if (const Status s = value(v, 0); !s.ok())
            return s;
        skipWs();
        if (pos != in.size())
            return fail("trailing garbage after JSON value");
        return v;
    }

  private:
    static constexpr std::size_t kMaxDepth = 64;

    Status
    fail(const std::string &what) const
    {
        return Status::failure(ErrorCode::CorruptInput,
                               "byte " + std::to_string(pos) + ": " +
                                   what);
    }

    bool atEnd() const { return pos >= in.size(); }
    char peek() const { return in[pos]; }

    void
    skipWs()
    {
        while (!atEnd() && (in[pos] == ' ' || in[pos] == '\t' ||
                            in[pos] == '\n' || in[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (atEnd() || in[pos] != c)
            return false;
        ++pos;
        return true;
    }

    Status
    literal(const char *word, JsonValue v, JsonValue &out)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (atEnd() || in[pos] != *p)
                return fail(std::string("expected '") + word + "'");
            ++pos;
        }
        out = std::move(v);
        return Status();
    }

    Status
    value(JsonValue &out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
          case 'n':
            return literal("null", JsonValue::makeNull(), out);
          case 't':
            return literal("true", JsonValue::makeBool(true), out);
          case 'f':
            return literal("false", JsonValue::makeBool(false), out);
          case '"':
            return stringValue(out);
          case '{':
            return objectValue(out, depth);
          case '[':
            return arrayValue(out, depth);
          default:
            return numberValue(out);
        }
    }

    Status
    stringBody(std::string &out)
    {
        ++pos; // opening quote
        out.clear();
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            const unsigned char c = static_cast<unsigned char>(in[pos]);
            if (c == '"') {
                ++pos;
                return Status();
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++pos;
                continue;
            }
            ++pos; // backslash
            if (atEnd())
                return fail("unterminated escape");
            const char e = in[pos++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                unsigned cp = 0;
                if (const Status s = hex4(cp); !s.ok())
                    return s;
                // Combine a surrogate pair when one follows; a lone
                // surrogate degrades to U+FFFD rather than failing.
                if (cp >= 0xD800 && cp <= 0xDBFF &&
                    pos + 1 < in.size() && in[pos] == '\\' &&
                    in[pos + 1] == 'u') {
                    pos += 2;
                    unsigned lo = 0;
                    if (const Status s = hex4(lo); !s.ok())
                        return s;
                    if (lo >= 0xDC00 && lo <= 0xDFFF) {
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else {
                        cp = 0xFFFD;
                    }
                } else if (cp >= 0xD800 && cp <= 0xDFFF) {
                    cp = 0xFFFD;
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape sequence");
            }
        }
    }

    Status
    hex4(unsigned &out)
    {
        out = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd() ||
                !std::isxdigit(static_cast<unsigned char>(in[pos])))
                return fail("bad \\u escape (need 4 hex digits)");
            const char c = in[pos++];
            unsigned digit = 0;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a') + 10;
            else
                digit = static_cast<unsigned>(c - 'A') + 10;
            out = (out << 4) | digit;
        }
        return Status();
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    Status
    stringValue(JsonValue &out)
    {
        std::string s;
        if (const Status st = stringBody(s); !st.ok())
            return st;
        out = JsonValue::makeString(std::move(s));
        return Status();
    }

    Status
    numberValue(JsonValue &out)
    {
        const std::size_t start = pos;
        if (!atEnd() && in[pos] == '-')
            ++pos;
        const auto digits = [&] {
            std::size_t n = 0;
            while (!atEnd() &&
                   std::isdigit(static_cast<unsigned char>(in[pos]))) {
                ++pos;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            return fail("expected a JSON value");
        if (!atEnd() && in[pos] == '.') {
            ++pos;
            if (digits() == 0)
                return fail("digits required after decimal point");
        }
        if (!atEnd() && (in[pos] == 'e' || in[pos] == 'E')) {
            ++pos;
            if (!atEnd() && (in[pos] == '+' || in[pos] == '-'))
                ++pos;
            if (digits() == 0)
                return fail("digits required in exponent");
        }
        std::string lexeme = in.substr(start, pos - start);
        const double v = std::strtod(lexeme.c_str(), nullptr);
        out = JsonValue::makeNumber(v, std::move(lexeme));
        return Status();
    }

    Status
    objectValue(JsonValue &out, std::size_t depth)
    {
        ++pos; // '{'
        JsonValue::Object members;
        skipWs();
        if (consume('}')) {
            out = JsonValue::makeObject(std::move(members));
            return Status();
        }
        while (true) {
            skipWs();
            if (atEnd() || peek() != '"')
                return fail("expected a quoted object key");
            std::string key;
            if (const Status s = stringBody(key); !s.ok())
                return s;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' after object key");
            skipWs();
            JsonValue member;
            if (const Status s = value(member, depth + 1); !s.ok())
                return s;
            members[key] = std::move(member);
            skipWs();
            if (consume(','))
                continue;
            if (consume('}')) {
                out = JsonValue::makeObject(std::move(members));
                return Status();
            }
            return fail("expected ',' or '}' in object");
        }
    }

    Status
    arrayValue(JsonValue &out, std::size_t depth)
    {
        ++pos; // '['
        JsonValue::Array elems;
        skipWs();
        if (consume(']')) {
            out = JsonValue::makeArray(std::move(elems));
            return Status();
        }
        while (true) {
            skipWs();
            JsonValue elem;
            if (const Status s = value(elem, depth + 1); !s.ok())
                return s;
            elems.push_back(std::move(elem));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']')) {
                out = JsonValue::makeArray(std::move(elems));
                return Status();
            }
            return fail("expected ',' or ']' in array");
        }
    }

    const std::string &in;
    std::size_t pos = 0;
};

} // namespace

Result<JsonValue>
parseJson(const std::string &text)
{
    return Reader(text).parse();
}

namespace
{

/** The one RFC 8259 escaping loop; @p put appends a piece to the sink. */
template <typename Put>
void
escapeJson(std::string_view s, Put &&put)
{
    put("\"");
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': put("\\\""); break;
          case '\\': put("\\\\"); break;
          case '\b': put("\\b"); break;
          case '\f': put("\\f"); break;
          case '\n': put("\\n"); break;
          case '\r': put("\\r"); break;
          case '\t': put("\\t"); break;
          default:
            // RFC 8259: all other control characters must be \u-escaped.
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                put(buf);
            } else {
                put(std::string_view(&ch, 1));
            }
        }
    }
    put("\"");
}

} // namespace

void
emitJsonString(std::ostream &os, std::string_view s)
{
    escapeJson(s, [&os](std::string_view piece) { os << piece; });
}

std::string
jsonQuote(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    escapeJson(s, [&out](std::string_view piece) { out += piece; });
    return out;
}

void
emitJsonNumber(std::ostream &os, double v, int min_digits)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    // The shortest round-trip form fixes how many significant digits v
    // needs; count them in its scientific rendering ("-1.7625e+06": 5).
    char buf[64];
    char *const end = buf + sizeof(buf);
    char *last = std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
    int digits = 0;
    for (const char *p = buf; p != last && *p != 'e'; ++p)
        digits += (*p >= '0' && *p <= '9') ? 1 : 0;
    // "%.Pg" rounds correctly to P digits; step P up in the rare case
    // (some powers of two) where that rounding lands outside v's
    // round-trip interval.
    for (int precision = std::max(min_digits, digits);; ++precision) {
        last = std::to_chars(buf, end, v, std::chars_format::general,
                             precision)
                   .ptr;
        double back = 0.0;
        std::from_chars(buf, last, back);
        if (back == v || precision >= kRoundTripDigits)
            break;
    }
    os.write(buf, last - buf);
}

JsonWriter &
JsonWriter::open(char bracket)
{
    separate();
    os << bracket;
    first = true;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    os << bracket;
    first = false;
    return *this;
}

void
JsonWriter::separate()
{
    if (afterKey)
        afterKey = false;
    else if (!first)
        os << ',';
    first = false;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separate();
    emitJsonString(os, name);
    os << ':';
    afterKey = true;
    return *this;
}

JsonWriter &
JsonWriter::string(std::string_view s)
{
    separate();
    emitJsonString(os, s);
    return *this;
}

JsonWriter &
JsonWriter::number(double v)
{
    separate();
    emitJsonNumber(os, v);
    return *this;
}

JsonWriter &
JsonWriter::integer(std::uint64_t v)
{
    separate();
    os << v;
    return *this;
}

JsonWriter &
JsonWriter::boolean(bool b)
{
    separate();
    os << (b ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    os << "null";
    return *this;
}

} // namespace gds::common
