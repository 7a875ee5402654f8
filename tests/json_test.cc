/**
 * @file
 * JSON writer tests (nesting, comma placement, escaping, number
 * round-tripping, misuse panics) and parser tests (round-trips
 * through the writer, escapes, \uXXXX decoding, error reporting
 * with line/column positions).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "common/json.h"
#include "common/logging.h"

namespace qsurf {
namespace {

TEST(Json, FlatObject)
{
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        j.field("name", "fig6");
        j.field("points", 28);
        j.field("ok", true);
        j.endObject();
    }
    EXPECT_EQ(os.str(), "{\n  \"name\": \"fig6\",\n"
                        "  \"points\": 28,\n  \"ok\": true\n}");
}

TEST(Json, NestedArraysAndObjects)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    j.key("rows");
    j.beginArray();
    j.beginObject();
    j.field("x", 1);
    j.endObject();
    j.beginObject();
    j.field("x", 2);
    j.endObject();
    j.endArray();
    j.endObject();
    EXPECT_EQ(os.str(), "{\n  \"rows\": [\n    {\n      \"x\": 1\n"
                        "    },\n    {\n      \"x\": 2\n    }\n"
                        "  ]\n}");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(JsonWriter::quote("a\"b\\c\nd\te"),
              "\"a\\\"b\\\\c\\nd\\te\"");
    EXPECT_EQ(JsonWriter::quote(std::string(1, '\x01')),
              "\"\\u0001\"");
}

TEST(Json, NumbersRoundTrip)
{
    for (double v : {0.0, 1.0, -2.5, 0.1, 1e24, 1e-24,
                     0.30000000000000004, 3.141592653589793}) {
        std::string s = JsonWriter::number(v);
        double parsed = std::stod(s);
        EXPECT_EQ(parsed, v) << s;
    }
}

/** The former JsonWriter::number, the oracle of the one below: try
 *  every precision from 1 up until one round-trips. */
std::string
searchedNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0;
    for (int prec = 1; prec < 17; ++prec) {
        char shorter[40];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        std::sscanf(shorter, "%lf", &parsed);
        if (parsed == v)
            return shorter;
    }
    return buf;
}

TEST(Json, NumbersMatchThePrecisionSearchByteForByte)
{
    using limits = std::numeric_limits<double>;
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1e23, 5e-324, 1e308,
        limits::max(), -limits::max(), limits::min(),
        limits::denorm_min(), limits::epsilon(),
        9007199254740993.0, 0.30000000000000004, 2.0 / 3.0};
    std::mt19937_64 rng(20171017);
    for (int i = 0; i < 40000; ++i) {
        // Any bit pattern: subnormals and every exponent.
        uint64_t bits = rng();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            values.push_back(v);
        // Integers, short decimals and powers of two, both signs.
        double sign = (bits & 1) ? -1.0 : 1.0;
        values.push_back(sign * static_cast<double>(rng() >> (rng() % 64)));
        values.push_back(sign * static_cast<double>(rng() % 100000)
                         / std::pow(10.0, static_cast<double>(rng() % 9)));
        values.push_back(sign * std::ldexp(1.0, static_cast<int>(
                                                    rng() % 2098) - 1074));
        // Neighbours of a power of two, where the interval below is
        // half as wide.
        values.push_back(std::nextafter(values.back(), 0.0));
    }
    ASSERT_GT(values.size(), 200000u);
    size_t mismatches = 0;
    for (double v : values) {
        std::string fast = JsonWriter::number(v);
        std::string oracle = searchedNumber(v);
        if (fast != oracle && ++mismatches <= 5)
            ADD_FAILURE() << fast << " != " << oracle;
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::number(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
}

TEST(Json, MismatchedNestingPanics)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginObject();
    EXPECT_THROW(j.endArray(), PanicError);
    j.endObject();
}

TEST(Json, KeyOutsideObjectPanics)
{
    std::ostringstream os;
    JsonWriter j(os);
    j.beginArray();
    EXPECT_THROW(j.key("x"), PanicError);
    j.endArray();
}

TEST(JsonParser, Values)
{
    JsonValue v = parseJson(
        " {\"s\": \"hi\", \"n\": -2.5, \"t\": true, \"f\": false,"
        " \"z\": null, \"a\": [1, 2, 3], \"o\": {\"k\": 1e2}} ");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members.size(), 7u);
    EXPECT_EQ(v.find("s")->str, "hi");
    EXPECT_DOUBLE_EQ(v.find("n")->num, -2.5);
    EXPECT_TRUE(v.find("t")->boolean);
    EXPECT_TRUE(v.find("t")->isBool());
    EXPECT_FALSE(v.find("f")->boolean);
    EXPECT_TRUE(v.find("z")->isNull());
    ASSERT_TRUE(v.find("a")->isArray());
    ASSERT_EQ(v.find("a")->items.size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->items[2].num, 3.0);
    EXPECT_DOUBLE_EQ(v.find("o")->find("k")->num, 100.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParser, PlainUnsignedIntegersKeepTheirExactValue)
{
    JsonValue v = parseJson(
        "[9007199254740993, 18446744073709551615, 0, "
        "18446744073709551616, -1, 1.0, 1e3, 7]");
    ASSERT_EQ(v.items.size(), 8u);
    EXPECT_EQ(v.items[0].exact_uint, uint64_t{9007199254740993ull});
    EXPECT_EQ(v.items[0].num, 9007199254740992.0); // The double rounds.
    EXPECT_EQ(v.items[1].exact_uint,
              std::numeric_limits<uint64_t>::max());
    EXPECT_EQ(v.items[2].exact_uint, uint64_t{0});
    for (size_t i : {3, 4, 5, 6})
        EXPECT_FALSE(v.items[i].exact_uint) << i;
    EXPECT_EQ(v.items[7].exact_uint, uint64_t{7});
}

TEST(JsonParser, EmptyContainers)
{
    EXPECT_TRUE(parseJson("{}").isObject());
    EXPECT_TRUE(parseJson("{}").members.empty());
    EXPECT_TRUE(parseJson("[]").isArray());
    EXPECT_TRUE(parseJson("[]").items.empty());
}

TEST(JsonParser, DuplicateKeysLastWins)
{
    JsonValue v = parseJson("{\"k\": 1, \"k\": 2}");
    EXPECT_DOUBLE_EQ(v.find("k")->num, 2.0);
}

TEST(JsonParser, Escapes)
{
    JsonValue v =
        parseJson("\"a\\\"b\\\\c\\nd\\te\\u0041\\u00e9\\u20ac\"");
    // é and € UTF-8 encode to 2 and 3 bytes.
    EXPECT_EQ(v.str,
              "a\"b\\c\nd\teA\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonParser, WriterOutputRoundTrips)
{
    std::ostringstream os;
    {
        JsonWriter j(os);
        j.beginObject();
        j.field("name", "tricky \"quotes\"\n");
        j.field("x", 0.30000000000000004);
        j.key("rows");
        j.beginArray();
        j.value(int64_t{-7});
        j.value(true);
        j.null();
        j.endArray();
        j.endObject();
    }
    JsonValue v = parseJson(os.str());
    EXPECT_EQ(v.find("name")->str, "tricky \"quotes\"\n");
    EXPECT_DOUBLE_EQ(v.find("x")->num, 0.30000000000000004);
    const JsonValue *rows = v.find("rows");
    ASSERT_TRUE(rows && rows->isArray());
    ASSERT_EQ(rows->items.size(), 3u);
    EXPECT_DOUBLE_EQ(rows->items[0].num, -7.0);
    EXPECT_TRUE(rows->items[1].boolean);
    EXPECT_TRUE(rows->items[2].isNull());
}

TEST(JsonParser, ErrorsThrowWithPosition)
{
    for (const char *bad :
         {"", "{", "[1, 2", "{\"a\" 1}", "{\"a\": }", "tru",
          "\"unterminated", "\"bad \\q escape\"", "1.2.3",
          "[1] trailing", "{\"a\": 1,}"}) {
        EXPECT_THROW(parseJson(bad), FatalError) << bad;
    }
    try {
        parseJson("{\n  \"a\": flse\n}");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace qsurf
