/**
 * @file
 * Tests of the JSON statistics export: structure, escaping, all stat
 * kinds, nesting, and numeric edge cases; and of the common/jsonio
 * primitives under it (exact numbers, the comma-placing writer, the
 * parser as validator).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <sstream>

#include "common/jsonio.hh"
#include "stats/json.hh"

namespace gds::stats
{
namespace
{

std::string
toJson(const Group &g)
{
    std::ostringstream os;
    dumpJson(g, os);
    return os.str();
}

TEST(StatsJson, EmptyGroup)
{
    Group root(nullptr, "root");
    EXPECT_EQ(toJson(root), "{}\n");
}

TEST(StatsJson, ScalarsAndVectors)
{
    Group root(nullptr, "root");
    Scalar s(&root, "cycles", "d");
    s = 42.5;
    Vector v(&root, "perPe", "d", 3);
    v[0] = 1;
    v[2] = 3;
    EXPECT_EQ(toJson(root),
              "{\"cycles\":42.5,\"perPe\":[1,0,3]}\n");
}

TEST(StatsJson, DistributionsUseBucketLabels)
{
    Group root(nullptr, "root");
    Distribution d(&root, "deg", "d");
    d.sample(1);
    d.sample(100);
    const std::string json = toJson(root);
    EXPECT_NE(json.find("\"[1,2]\":1"), std::string::npos);
    EXPECT_NE(json.find("\">64\":1"), std::string::npos);
    EXPECT_NE(json.find("\"[0,0]\":0"), std::string::npos);
}

TEST(StatsJson, NestedGroups)
{
    Group root(nullptr, "accel");
    Scalar top(&root, "total", "d");
    top = 7;
    Group child(&root, "pe");
    Scalar inner(&child, "ops", "d");
    inner = 3;
    EXPECT_EQ(toJson(root), "{\"total\":7,\"pe\":{\"ops\":3}}\n");
}

TEST(StatsJson, NonFiniteValuesBecomeNull)
{
    Group root(nullptr, "root");
    Scalar s(&root, "ratio", "d");
    s = std::numeric_limits<double>::infinity();
    EXPECT_EQ(toJson(root), "{\"ratio\":null}\n");
}

TEST(StatsJson, QuotesAreEscaped)
{
    Group root(nullptr, "root");
    Scalar s(&root, "a\"b", "d");
    EXPECT_NE(toJson(root).find("\"a\\\"b\""), std::string::npos);
}

TEST(StatsJson, ControlCharactersAreEscapedPerRfc8259)
{
    std::ostringstream os;
    emitJsonString(os, "a\nb\tc\rd\be\ff");
    EXPECT_EQ(os.str(), "\"a\\nb\\tc\\rd\\be\\ff\"");

    // Control characters without a short form use \u00xx.
    std::ostringstream os2;
    emitJsonString(os2, std::string("x\x01y\x1fz"));
    EXPECT_EQ(os2.str(), "\"x\\u0001y\\u001fz\"");

    // Backslash and quote still escape; printable text is untouched.
    std::ostringstream os3;
    emitJsonString(os3, "p\\q\"r");
    EXPECT_EQ(os3.str(), "\"p\\\\q\\\"r\"");
}

std::string
number(double v, int min_digits = 6)
{
    std::ostringstream os;
    emitJsonNumber(os, v, min_digits);
    return os.str();
}

TEST(JsonNumbers, RoundTripExactlyThroughTheParser)
{
    // 1762630 is a crossbar-conflict count the old 6-digit rendering
    // printed as 1.76263e+06; 2^53 + 1 rounds to the double 2^53.
    for (const double v : {1762630.0, 1762631.0, 0.1, 9007199254740993.0,
                           1.0 / 3.0, 1e-7, 6.02214076e23}) {
        const std::string text = number(v);
        const auto parsed = common::parseJson(text);
        ASSERT_TRUE(parsed.ok()) << text;
        EXPECT_EQ(parsed.value().asNumber(), v) << text;
    }
    EXPECT_EQ(number(1762631.0), "1762631");
    EXPECT_EQ(number(0.1), "0.1");
}

TEST(JsonNumbers, ValuesPercentGPrintedExactlyKeepTheirBytes)
{
    for (const double v : {0.0, -0.0, 1.0, 42.5, 100000.0, 1e6, 1762630.0,
                           1.5e-5, 1e-7, 123456.0, 0.25, 1e300}) {
        char want[64];
        std::snprintf(want, sizeof want, "%g", v);
        EXPECT_EQ(number(v), want);
    }
    // A minimum of 17 digits reproduces "%.17g" byte for byte.
    for (const double v : {0.1, 1.0 / 3.0, 2000000.0, 1234568.1}) {
        char want[64];
        std::snprintf(want, sizeof want, "%.17g", v);
        EXPECT_EQ(number(v, common::kRoundTripDigits), want);
    }
}

TEST(JsonNumbers, IgnoreTheStreamPrecision)
{
    std::ostringstream os;
    os.precision(2);
    os << std::fixed;
    emitJsonNumber(os, 1762631.0);
    os << ' ';
    emitJsonNumber(os, std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(os.str(), "1762631 null");
}

TEST(JsonWriter, PlacesSeparatorsAndNests)
{
    std::ostringstream os;
    common::JsonWriter w(os);
    w.beginObject();
    w.key("a").integer(18446744073709551615ULL);
    w.key("b").beginArray().number(1.5).boolean(true).null().endArray();
    w.key("c").beginObject().endObject();
    w.key("d").beginArray().beginObject().key("e").string("x\"y")
        .endObject().beginArray().endArray().endArray();
    w.endObject();
    EXPECT_EQ(os.str(), "{\"a\":18446744073709551615,\"b\":[1.5,true,null],"
                        "\"c\":{},\"d\":[{\"e\":\"x\\\"y\"},[]]}");
    EXPECT_TRUE(common::parseJson(os.str()).ok());
}

TEST(JsonQuote, MatchesTheStreamEscaper)
{
    const std::string s = std::string("a\"b\\c\n\x01\x7f") + "\xc3\xa9";
    std::ostringstream os;
    emitJsonString(os, s);
    EXPECT_EQ(common::jsonQuote(s), os.str());
    EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\u0001\x7f\xc3\xa9\"");
    const auto parsed = common::parseJson(os.str());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().asString(), s);
}

TEST(JsonParse, RejectsWhatAValidatorMust)
{
    for (const char *bad : {"", "{", "[1,]", "{\"a\":1,}", "01x", "1 2",
                            "\"\x01\"", "\"\\q\"", "tru", "[1]]"})
        EXPECT_FALSE(common::parseJson(bad).ok()) << bad;
    // Nesting is bounded: a few levels parse, thousands are refused
    // instead of recursing the stack away.
    EXPECT_TRUE(common::parseJson("[[[[]]]]").ok());
    EXPECT_FALSE(common::parseJson(std::string(5000, '[') +
                                   std::string(5000, ']'))
                     .ok());
}

} // namespace
} // namespace gds::stats
