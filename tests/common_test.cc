/**
 * @file
 * Unit tests for the common substrate: logging contract, RNG
 * determinism and distribution bounds, geometry, table rendering,
 * and the scratch arena
 * (alignment, reset coalescing, counters, the
 * thread-local scope binding and the STL allocator over it).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>

#include <algorithm>
#include <utility>

#include "common/arena.h"
#include "common/geometry.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/small_vector.h"
#include "common/table.h"

namespace qsurf {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("user error ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug ", 1), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "never"));
    EXPECT_THROW(fatalIf(true, "always"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "never"));
    EXPECT_THROW(panicIf(true, "always"), PanicError);
}

TEST(Logging, MessagesConcatenateArguments)
{
    try {
        fatal("a", 1, "b", 2.5);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "a1b2.5");
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL})
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
}

TEST(Rng, BelowZeroReturnsZero)
{
    Rng rng(7);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}


TEST(Arena, AlignsEveryAllocation)
{
    Arena arena(64); // Tiny first block: growth paths get hit.
    for (size_t align : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         alignof(std::max_align_t)}) {
        for (size_t size : {size_t{1}, size_t{3}, size_t{17},
                            size_t{128}}) {
            void *p = arena.alloc(size, align);
            ASSERT_NE(p, nullptr);
            EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
                << "size " << size << " align " << align;
            std::memset(p, 0xAB, size); // Must be writable.
        }
    }
    // Size 0 still returns a valid (distinct-use) pointer.
    EXPECT_NE(arena.alloc(0), nullptr);
}

TEST(Arena, ResetCoalescesToOneBlockAndBumpsGeneration)
{
    Arena arena(64);
    uint64_t gen = arena.generation();
    for (int i = 0; i < 64; ++i)
        arena.alloc(64); // Forces several growth blocks.
    EXPECT_GT(arena.stats().blocks, 1u);

    arena.reset();
    EXPECT_EQ(arena.stats().blocks, 1u);
    EXPECT_GT(arena.generation(), gen);
    EXPECT_EQ(arena.stats().resets, 1u);

    // Steady state: the coalesced block absorbs the same load
    // without growing again.
    uint64_t reserved = arena.stats().reserved;
    for (int i = 0; i < 64; ++i)
        arena.alloc(64);
    EXPECT_EQ(arena.stats().blocks, 1u);
    EXPECT_EQ(arena.stats().reserved, reserved);
}

TEST(Arena, ScopeBindsAndRestoresThreadScratch)
{
    EXPECT_EQ(Arena::scratch(), nullptr);
    Arena outer_arena;
    {
        Arena::Scope outer(&outer_arena);
        EXPECT_EQ(Arena::scratch(), &outer_arena);
        {
            // Null masks the outer binding (heap-fallback region).
            Arena::Scope masked(nullptr);
            EXPECT_EQ(Arena::scratch(), nullptr);
        }
        EXPECT_EQ(Arena::scratch(), &outer_arena);
    }
    EXPECT_EQ(Arena::scratch(), nullptr);
}

TEST(ArenaAllocator, DefaultCapturesScratchExplicitWins)
{
    // No binding: heap-backed, results still correct.
    {
        std::set<int, std::less<int>, ArenaAllocator<int>> s;
        for (int i = 0; i < 100; ++i)
            s.insert(99 - i);
        EXPECT_EQ(*s.begin(), 0);
        EXPECT_EQ(s.size(), 100u);
    }

    Arena arena;
    uint64_t before = arena.stats().allocations;
    {
        Arena::Scope scope(&arena);
        std::set<int, std::less<int>, ArenaAllocator<int>> s;
        for (int i = 0; i < 100; ++i)
            s.insert(99 - i);
        EXPECT_EQ(*s.begin(), 0);
        // Node storage came from the bound arena.
        EXPECT_GE(arena.stats().allocations, before + 100);
    }
    arena.reset();

    // Explicit construction needs no binding at all.
    uint64_t explicit_before = arena.stats().allocations;
    std::vector<int, ArenaAllocator<int>> v{
        ArenaAllocator<int>(arena)};
    for (int i = 0; i < 100; ++i)
        v.push_back(i);
    EXPECT_EQ(v.back(), 99);
    EXPECT_GT(arena.stats().allocations, explicit_before);
}

TEST(ArenaStreamBuf, AssemblesBytesFromTheBoundArena)
{
    Arena arena;
    Arena::Scope scope(&arena);
    ArenaStreamBuf buf(16);
    std::ostream os(&buf);
    for (int i = 0; i < 100; ++i)
        os << "row-" << i << ";";
    std::string out = buf.str();
    EXPECT_EQ(out.size(), buf.size());
    EXPECT_NE(out.find("row-99;"), std::string::npos);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    os << "fresh";
    EXPECT_EQ(buf.str(), "fresh");
}

TEST(Geometry, ManhattanAndChebyshev)
{
    Coord a{0, 0}, b{3, -4};
    EXPECT_EQ(manhattan(a, b), 7);
    EXPECT_EQ(chebyshev(a, b), 4);
    EXPECT_EQ(manhattan(a, a), 0);
}

TEST(Geometry, LinearIndexRoundTrip)
{
    int width = 7;
    for (int i = 0; i < 35; ++i) {
        Coord c = fromLinearIndex(i, width);
        EXPECT_EQ(linearIndex(c, width), i);
    }
}

TEST(Geometry, CoordOrderingAndHash)
{
    EXPECT_LT((Coord{1, 2}), (Coord{2, 1}));
    EXPECT_EQ((Coord{3, 4}), (Coord{3, 4}));
    std::hash<Coord> h;
    EXPECT_NE(h(Coord{1, 2}), h(Coord{2, 1}));
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t("demo");
    t.header({"name", "value"});
    t.addRow("alpha", 42);
    t.addRow("beta", 3.5);
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    EXPECT_NE(s.find("3.5"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t("x");
    t.header({"a", "b"});
    t.addRow(1, 2);
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t("x");
    t.header({"a", "b"});
    EXPECT_THROW(t.row({"only one"}), PanicError);
}

TEST(SmallVector, InlineThenHeapGrowth)
{
    SmallVector<int, 4> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 100; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(v[static_cast<size_t>(i)], i);
    EXPECT_EQ(v.front(), 0);
    EXPECT_EQ(v.back(), 99);
}

TEST(SmallVector, InitializerListAndEquality)
{
    SmallVector<int, 4> a{1, 2, 3};
    SmallVector<int, 4> b{1, 2, 3};
    SmallVector<int, 4> c{1, 2};
    EXPECT_TRUE(a == b);
    EXPECT_FALSE(a == c);
}

TEST(SmallVector, CopyAndMoveAcrossStorageModes)
{
    for (size_t n : {size_t{3}, size_t{20}}) {
        SmallVector<int, 4> src;
        for (size_t i = 0; i < n; ++i)
            src.push_back(static_cast<int>(i));

        SmallVector<int, 4> copy(src);
        EXPECT_TRUE(copy == src);

        SmallVector<int, 4> moved(std::move(src));
        EXPECT_TRUE(moved == copy);
        EXPECT_TRUE(src.empty()); // NOLINT: moved-from is reusable.
        src.push_back(7);
        EXPECT_EQ(src.back(), 7);

        SmallVector<int, 4> assigned;
        assigned.push_back(-1);
        assigned = copy;
        EXPECT_TRUE(assigned == copy);
        SmallVector<int, 4> move_assigned{9, 9, 9, 9, 9};
        move_assigned = std::move(assigned);
        EXPECT_TRUE(move_assigned == copy);
    }
}

TEST(SmallVector, WorksWithStdAlgorithms)
{
    SmallVector<int, 4> v{5, 1, 4, 2, 3, 0};
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(v[0], 0);
    std::sort(v.begin(), v.end());
    for (size_t i = 0; i + 1 < v.size(); ++i)
        EXPECT_LE(v[i], v[i + 1]);
    v.clear();
    EXPECT_TRUE(v.empty());
}

} // namespace
} // namespace qsurf
