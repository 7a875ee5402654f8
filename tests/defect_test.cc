/**
 * @file
 * Fabric defect-map tests: the seeded generator (deterministic,
 * density-scaling), explicit JSON device specs, the query surface
 * the architectures route and price with (dead tiles, disabled
 * links, error-rate regions, O(1) route exposure, safe to read from
 * several threads), and materialize() precedence.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "fabric/defect.h"

namespace qsurf::fabric {
namespace {

TEST(DefectMap, EmptyByDefault)
{
    DefectMap m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.numDeadTiles(), 0);
    EXPECT_EQ(m.numDisabledLinks(), 0);
    EXPECT_FALSE(m.deadTile(0, 0));
    EXPECT_FALSE(m.linkDisabled({0, 0}, {1, 0}));
    EXPECT_DOUBLE_EQ(m.errorMultiplierAt(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m.avgErrorMultiplier(), 1.0);
    EXPECT_DOUBLE_EQ(m.routeExposure({0, 0}, {5, 5}), 0.0);
}

TEST(DefectMap, GeneratorIsDeterministicPerSeed)
{
    DefectMap a = DefectMap::generate(12, 12, 0.1, 42);
    DefectMap b = DefectMap::generate(12, 12, 0.1, 42);
    EXPECT_EQ(a.deadTiles(), b.deadTiles());
    EXPECT_EQ(a.disabledLinks(), b.disabledLinks());
    EXPECT_DOUBLE_EQ(a.avgErrorMultiplier(), b.avgErrorMultiplier());

    DefectMap c = DefectMap::generate(12, 12, 0.1, 43);
    EXPECT_NE(a.deadTiles(), c.deadTiles())
        << "different seeds should damage different tiles";
}

TEST(DefectMap, DamageScalesWithDensity)
{
    DefectMap lo = DefectMap::generate(20, 20, 0.02, 7);
    DefectMap hi = DefectMap::generate(20, 20, 0.2, 7);
    EXPECT_LT(lo.numDeadTiles(), hi.numDeadTiles());
    EXPECT_GT(hi.deadFraction(), 0.1);
    EXPECT_LT(hi.deadFraction(), 0.4);
    // The hot region's multiplier grows with density too.
    EXPECT_GT(hi.avgErrorMultiplier(), lo.avgErrorMultiplier());
    EXPECT_GE(lo.avgErrorMultiplier(), 1.0);
}

TEST(DefectMap, RejectsBadDensity)
{
    EXPECT_THROW(DefectMap::generate(4, 4, -0.1, 1),
                 qsurf::FatalError);
    EXPECT_THROW(DefectMap::generate(4, 4, 1.0, 1),
                 qsurf::FatalError);
}

TEST(DefectMap, SpecDrivesEveryQuery)
{
    const char *spec = R"({
        "dead_tiles": [[1, 1], [2, 3]],
        "disabled_links": [[0, 0, 1, 0], [2, 2, 2, 3]],
        "regions": [{"x0": 0, "y0": 0, "x1": 1, "y1": 1,
                     "multiplier": 3.0}]
    })";
    DefectMap m = DefectMap::fromSpec(spec, 4, 4);
    EXPECT_EQ(m.numDeadTiles(), 2);
    EXPECT_TRUE(m.deadTile(1, 1));
    EXPECT_TRUE(m.deadTile(2, 3));
    EXPECT_FALSE(m.deadTile(0, 0));
    EXPECT_EQ(m.numDisabledLinks(), 2);
    EXPECT_TRUE(m.linkDisabled({0, 0}, {1, 0}));
    EXPECT_TRUE(m.linkDisabled({1, 0}, {0, 0}))
        << "links are undirected";
    EXPECT_TRUE(m.linkDisabled({2, 2}, {2, 3}));
    EXPECT_FALSE(m.linkDisabled({1, 1}, {2, 1}));
    EXPECT_DOUBLE_EQ(m.errorMultiplierAt(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.errorMultiplierAt(2, 2), 1.0);
    EXPECT_GT(m.avgErrorMultiplier(), 1.0);
}

TEST(DefectMap, SpecOutOfBoundsEntriesAreIgnored)
{
    DefectMap m = DefectMap::fromSpec(
        "{\"dead_tiles\": [[9, 9]], "
        "\"disabled_links\": [[8, 0, 9, 0]]}",
        3, 3);
    EXPECT_EQ(m.numDeadTiles(), 0);
    EXPECT_EQ(m.numDisabledLinks(), 0);
}

TEST(DefectMap, MalformedSpecIsFatal)
{
    EXPECT_THROW(DefectMap::fromSpec("[]", 3, 3), qsurf::FatalError);
    EXPECT_THROW(DefectMap::fromSpec("{\"dead_tiles\": [[1]]}", 3, 3),
                 qsurf::FatalError);
    EXPECT_THROW(
        DefectMap::fromSpec(
            "{\"disabled_links\": [[0, 0, 2, 0]]}", 3, 3),
        qsurf::FatalError)
        << "non-adjacent link endpoints must be rejected";
}

TEST(DefectMap, NonIntegerCoordinatesAreFatal)
{
    // Coordinates arrive as JSON doubles: a huge one must not be cast
    // to int (undefined behaviour), nor a fractional one truncated.
    for (const char *bad : {"1e300", "-1e300", "2.7"}) {
        std::string b = bad;
        EXPECT_THROW(DefectMap::fromSpec(
                         "{\"dead_tiles\": [[" + b + ", 1]]}", 4, 4),
                     qsurf::FatalError)
            << b;
        EXPECT_THROW(DefectMap::fromSpec(
                         "{\"disabled_links\": [[1, 1, 1, " + b
                             + "]]}",
                         4, 4),
                     qsurf::FatalError)
            << b;
        EXPECT_THROW(DefectMap::fromSpec(
                         "{\"regions\": [{\"x0\": 0, \"y0\": " + b
                             + ", \"x1\": 1, \"y1\": 1, "
                               "\"multiplier\": 2}]}",
                         4, 4),
                     qsurf::FatalError)
            << b;
    }
    // Integral doubles are exact and still accepted.
    DefectMap m = DefectMap::fromSpec("{\"dead_tiles\": [[2.0, 1]]}", 4,
                                      4);
    EXPECT_TRUE(m.deadTile(2, 1));
}

TEST(DefectMap, RouteExposureMatchesBruteForce)
{
    DefectMap m = DefectMap::generate(10, 8, 0.15, 5);
    ASSERT_GT(m.numDeadTiles(), 0);
    const std::vector<std::pair<Coord, Coord>> spans = {
        {{0, 0}, {9, 7}},
        {{3, 2}, {6, 5}},
        {{7, 1}, {2, 6}},
        {{4, 4}, {4, 4}},
    };
    for (const auto &[a, b] : spans) {
        int dead = 0, area = 0;
        for (int y = std::min(a.y, b.y); y <= std::max(a.y, b.y);
             ++y)
            for (int x = std::min(a.x, b.x); x <= std::max(a.x, b.x);
                 ++x) {
                ++area;
                dead += m.deadTile(x, y);
            }
        EXPECT_DOUBLE_EQ(m.routeExposure(a, b),
                         static_cast<double>(dead) / area)
            << "bounding box " << a << " .. " << b;
    }
}

TEST(DefectMap, ConcurrentExposureReadsAreRaceFree)
{
    // Cached machines share their defect map across threads, and the
    // hybrid arbiter prices every op with routeExposure(), so even
    // the first read of a fresh map must only read.  Two threads
    // released together query one fresh map; a lazily built table
    // would be a data race that ThreadSanitizer reports.
    DefectMap m = DefectMap::generate(16, 16, 0.1, 3);
    ASSERT_GT(m.numDeadTiles(), 0);
    std::barrier start(2);
    double got[2] = {0, 0};
    auto read = [&](int t) {
        start.arrive_and_wait();
        for (int y = 0; y < 16; ++y)
            got[t] += m.routeExposure({0, y}, {15 - y, 15});
    };
    std::thread a(read, 0);
    std::thread b(read, 1);
    a.join();
    b.join();
    EXPECT_GT(got[0], 0.0);
    EXPECT_EQ(got[0], got[1]);
}

TEST(DefectMap, MaterializePrecedence)
{
    DefectParams p;
    EXPECT_FALSE(p.enabled());
    EXPECT_TRUE(DefectMap::materialize(p, 6, 6).empty());

    p.density = 0.2;
    p.seed = 9;
    EXPECT_TRUE(p.enabled());
    DefectMap generated = DefectMap::materialize(p, 6, 6);
    EXPECT_EQ(generated.deadTiles(),
              DefectMap::generate(6, 6, 0.2, 9).deadTiles());

    // An explicit spec wins over the generator.
    p.spec_json = "{\"dead_tiles\": [[5, 5]]}";
    DefectMap spec = DefectMap::materialize(p, 6, 6);
    EXPECT_EQ(spec.numDeadTiles(), 1);
    EXPECT_TRUE(spec.deadTile(5, 5));
}

} // namespace
} // namespace qsurf::fabric
