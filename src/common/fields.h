/**
 * @file
 * Field lists.  A struct the wire carries declares its fields once,
 * next to itself, as `template <FieldsOf<S> T, typename Visit> void
 * forEachField(T &s, Visit &&visit)`, which calls visit(name, member)
 * per field in wire order and binds every member with one structured
 * binding, so a member added without an entry fails to compile.  The
 * walks below derive the JSON writer, the JSON reader and the
 * fingerprint from the lists, per member type at compile time: a
 * listed struct nests as an object, a std::vector is an array, and
 * anything else is a scalar.
 */

#ifndef QSURF_COMMON_FIELDS_H
#define QSURF_COMMON_FIELDS_H

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.h"

namespace qsurf {

/** T is S or const S: one list serves the readers and the writers. */
template <typename T, typename S>
concept FieldsOf = std::same_as<std::remove_const_t<T>, S>;

namespace fields {

/** T has a forEachField list (found by argument-dependent lookup). */
template <typename T>
concept Listed =
    requires(T &t) { forEachField(t, [](const char *, auto &) {}); };

template <typename T>
inline constexpr bool is_vector = false;
template <typename T, typename A>
inline constexpr bool is_vector<std::vector<T, A>> = true;

template <typename T>
void write(JsonWriter &j, const T &v);

/** Write @p v as member @p name of the open object.  An empty string
 *  is left out: absent reads back as the empty default. */
template <typename T>
void
writeMember(JsonWriter &j, const char *name, const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        if (v.empty())
            return;
    j.key(name);
    write(j, v);
}

/** Write every field of @p s as a member of the open object. */
template <typename S>
void
writeMembers(JsonWriter &j, const S &s)
{
    forEachField(s, [&](const char *name, const auto &v) {
        writeMember(j, name, v);
    });
}

/** Write @p v as one JSON value. */
template <typename T>
void
write(JsonWriter &j, const T &v)
{
    if constexpr (Listed<const T>) {
        j.beginObject();
        writeMembers(j, v);
        j.endObject();
    } else if constexpr (is_vector<T>) {
        j.beginArray();
        for (const auto &e : v)
            write(j, e);
        j.endArray();
    } else {
        j.value(v);
    }
}

template <typename T>
void read(const JsonValue &v, T &out, std::string_view context,
          std::string_view name);

/** Read member @p name of @p obj into @p out when it is present. */
template <typename T>
void
readMember(const JsonValue &obj, const char *name, T &out,
           std::string_view context)
{
    if (const JsonValue *v = obj.find(name))
        read(*v, out, context, name);
}

/** Read every field of @p s that object @p obj holds; absent fields
 *  keep their values. */
template <typename S>
void
readMembers(const JsonValue &obj, S &s, std::string_view context)
{
    forEachField(s, [&](const char *name, auto &m) {
        readMember(obj, name, m, context);
    });
}

/** Read @p v into @p out.  fatal()s, naming the value "@p context
 *  '@p name'", on a value of the wrong JSON kind or an integer that
 *  does not fit: nothing is ever cast. */
template <typename T>
void
read(const JsonValue &v, T &out, std::string_view context,
     std::string_view name)
{
    if constexpr (Listed<T>) {
        v.expect(JsonValue::Kind::Object, context, name);
        readMembers(v, out, context);
    } else if constexpr (is_vector<T>) {
        v.expect(JsonValue::Kind::Array, context, name);
        out.clear();
        for (const JsonValue &e : v.items)
            out.push_back(e.as<typename T::value_type>(context, name));
    } else {
        out = v.as<T>(context, name);
    }
}

/**
 * Fold @p v into the FNV-1a hash @p h: a scalar's object bytes, a
 * string's length and bytes, a listed struct's fields in list order,
 * and a vector's elements without their count (the grid fingerprints
 * have always hashed their axes so).
 */
template <typename T>
void
hash(uint64_t &h, const T &v)
{
    if constexpr (Listed<const T>) {
        forEachField(v, [&](const char *, const auto &m) { hash(h, m); });
    } else if constexpr (is_vector<T>) {
        for (const auto &e : v)
            hash(h, e);
    } else if constexpr (std::is_same_v<T, std::string>) {
        hash(h, uint64_t{v.size()});
        for (char c : v)
            hash(h, c);
    } else {
        static_assert(std::is_trivially_copyable_v<T>,
                      "no fingerprint of this type");
        const auto *p = reinterpret_cast<const unsigned char *>(&v);
        for (size_t i = 0; i < sizeof v; ++i)
            h = (h ^ p[i]) * 0x100000001b3ull;
    }
}

} // namespace fields
} // namespace qsurf

#endif // QSURF_COMMON_FIELDS_H
