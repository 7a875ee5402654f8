/**
 * @file
 * Minimal streaming JSON writer.  The sweep driver and benches use
 * it to emit machine-readable results (BENCH_*.json) alongside the
 * human-readable tables; it handles commas, nesting, string escaping
 * and round-trippable number formatting so callers never concatenate
 * JSON by hand.
 */

#ifndef QSURF_COMMON_JSON_H
#define QSURF_COMMON_JSON_H

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace qsurf {

/**
 * Streaming writer producing pretty-printed JSON.  Usage:
 *
 *   JsonWriter j(os);
 *   j.beginObject();
 *   j.field("name", "fig6");
 *   j.key("points"); j.beginArray();
 *   ... j.endArray();
 *   j.endObject();
 *
 * Nesting is tracked; mismatched begin/end panic().
 */
class JsonWriter
{
  public:
    /** @p compact drops all newlines and indentation (", " key
     *  separators stay), producing one-line documents — the sweep
     *  row stream and wire frames use it so one record is one
     *  flushable line. */
    explicit JsonWriter(std::ostream &os, bool compact = false)
        : os(os), compact(compact)
    {
    }
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit the key of the next value inside an object. */
    void key(const std::string &name);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(int64_t v);
    void value(uint64_t v);
    void value(int v);
    void value(bool v);
    void null();

    /** Shorthand for key() followed by value(). */
    template <typename T>
    void
    field(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    /** Escape and quote @p s as a JSON string literal. */
    static std::string quote(const std::string &s);

    /** Format @p v as a round-trippable JSON number literal. */
    static std::string number(double v);

  private:
    void separate();
    void indent();

    std::ostream &os;
    bool compact;
    /** One frame per open container: true = object, false = array. */
    std::vector<bool> stack;
    bool need_comma = false;
    bool after_key = false;
};

/**
 * A parsed JSON document node.  The parser exists so tools can read
 * back what the writers emit — the obs_check schema validator and
 * round-trip tests — not as a general-purpose JSON library: object
 * members keep insertion order, duplicate keys keep the last value.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0;

    /** The exact value of a plain unsigned integer literal (digits
     *  only, below 2^64); `num` rounds integers above 2^53. */
    std::optional<uint64_t> exact_uint;

    std::string str;
    std::vector<JsonValue> items; ///< Array elements.
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** @return the member named @p key, or null when absent (or when
     *  this is not an object). */
    const JsonValue *find(std::string_view key) const;

    /** @return the member named @p key; fatal()s, naming it
     *  "@p context '@p key'", when it is absent. */
    const JsonValue &member(std::string_view key,
                           std::string_view context) const;

    /** fatal()s, naming this value "@p context '@p name'", unless it
     *  is of kind @p want. */
    void expect(Kind want, std::string_view context,
                std::string_view name) const;

    /** @return this number as an int.  fatal()s, naming the value
     *  "@p context '@p name'", unless it is a number with an
     *  integral value in int's range: a fractional or out-of-range
     *  value is never cast. */
    int toInt(std::string_view context, std::string_view name) const;

    /** @return this number as an unsigned 64-bit integer (indices,
     *  seeds, cycle counts), read from exact_uint.  fatal()s, naming
     *  the value as toInt() does, unless it is a plain integer
     *  literal in [0, 2^64): a negative, fractional or exponent-form
     *  value, or one above 2^53 that only a double carries, is never
     *  cast. */
    uint64_t toUint(std::string_view context,
                    std::string_view name) const;

    /** @return this value as a T: a double, bool or std::string of
     *  that kind, or an int / uint64_t read as toInt() / toUint() do.
     *  fatal()s, naming the value as expect() does, on another kind. */
    template <typename T>
    T
    as(std::string_view context, std::string_view name) const
    {
        if constexpr (std::is_same_v<T, int>) {
            return toInt(context, name);
        } else if constexpr (std::is_same_v<T, uint64_t>) {
            return toUint(context, name);
        } else if constexpr (std::is_same_v<T, double>) {
            expect(Kind::Number, context, name);
            return num;
        } else if constexpr (std::is_same_v<T, bool>) {
            expect(Kind::Bool, context, name);
            return boolean;
        } else {
            static_assert(std::is_same_v<T, std::string>,
                          "no JSON reading of this type");
            expect(Kind::String, context, name);
            return str;
        }
    }

    /** @return member @p key as a T (see as()), or @p fallback when
     *  it is absent. */
    template <typename T>
    T
    get(std::string_view key, std::type_identity_t<T> fallback,
        std::string_view context) const
    {
        const JsonValue *v = find(key);
        return v ? v->as<T>(context, key) : fallback;
    }

    /** @return member @p key as a T (see as()); fatal()s when it is
     *  absent. */
    template <typename T>
    T
    require(std::string_view key, std::string_view context) const
    {
        return member(key, context).as<T>(context, key);
    }
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing content not).  Syntax errors fatal() with a line/column
 * description.
 */
JsonValue parseJson(const std::string &text);

} // namespace qsurf

#endif // QSURF_COMMON_JSON_H
