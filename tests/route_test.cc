/**
 * @file
 * Routing tests: dimension-ordered path shape, adaptive BFS detours
 * around busy regions, and unreachability reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "network/route.h"

namespace qsurf::network {
namespace {

void
expectContiguous(const Path &p)
{
    for (size_t i = 0; i + 1 < p.nodes.size(); ++i)
        EXPECT_EQ(manhattan(p.nodes[i], p.nodes[i + 1]), 1)
            << "gap at hop " << i;
}

TEST(XyRoute, MinimalAndXFirst)
{
    Path p = xyRoute(Coord{1, 1}, Coord{4, 3});
    expectContiguous(p);
    EXPECT_EQ(p.hops(), 5);
    EXPECT_EQ(p.source(), (Coord{1, 1}));
    EXPECT_EQ(p.dest(), (Coord{4, 3}));
    // The second node moves in x.
    EXPECT_EQ(p.nodes[1], (Coord{2, 1}));
}

TEST(YxRoute, MinimalAndYFirst)
{
    Path p = yxRoute(Coord{1, 1}, Coord{4, 3});
    expectContiguous(p);
    EXPECT_EQ(p.hops(), 5);
    EXPECT_EQ(p.nodes[1], (Coord{1, 2}));
}

TEST(Route, NegativeDirections)
{
    Path p = xyRoute(Coord{4, 3}, Coord{0, 0});
    expectContiguous(p);
    EXPECT_EQ(p.hops(), 7);
}

TEST(Route, DegenerateSameEndpoint)
{
    Path p = xyRoute(Coord{2, 2}, Coord{2, 2});
    EXPECT_EQ(p.hops(), 0);
    ASSERT_EQ(p.nodes.size(), 1u);
}

TEST(AdaptiveRoute, FindsShortestWhenFree)
{
    Mesh m(6, 6);
    auto p = adaptiveRoute(m, Coord{0, 0}, Coord{3, 2}, 1);
    ASSERT_TRUE(p.has_value());
    expectContiguous(*p);
    EXPECT_EQ(p->hops(), 5) << "BFS must find a minimal path";
}

TEST(AdaptiveRoute, DetoursAroundWall)
{
    Mesh m(5, 5);
    // Wall on column x=2, leaving only y=4 open.
    Path wall;
    for (int y = 0; y <= 3; ++y)
        wall.nodes.push_back(Coord{2, y});
    m.claim(wall, 7);

    auto p = adaptiveRoute(m, Coord{0, 0}, Coord{4, 0}, 1);
    ASSERT_TRUE(p.has_value());
    expectContiguous(*p);
    EXPECT_GT(p->hops(), 4) << "must detour below the wall";
    for (const Coord &c : p->nodes)
        EXPECT_TRUE(m.nodeAvailable(c, 1));
}

TEST(AdaptiveRoute, NulloptWhenSealed)
{
    Mesh m(5, 5);
    Path wall;
    for (int y = 0; y <= 4; ++y)
        wall.nodes.push_back(Coord{2, y});
    m.claim(wall, 7);
    EXPECT_FALSE(
        adaptiveRoute(m, Coord{0, 0}, Coord{4, 0}, 1).has_value());
}

TEST(AdaptiveRoute, OwnResourcesCountAsFree)
{
    Mesh m(5, 5);
    Path wall;
    for (int y = 0; y <= 4; ++y)
        wall.nodes.push_back(Coord{2, y});
    m.claim(wall, 7);
    // Owner 7 may route through its own wall.
    auto p = adaptiveRoute(m, Coord{0, 0}, Coord{4, 0}, 7);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hops(), 4);
}

TEST(AdaptiveRoute, BusyEndpointFails)
{
    Mesh m(4, 4);
    Path spot;
    spot.nodes.push_back(Coord{3, 3});
    m.claim(spot, 9);
    EXPECT_FALSE(
        adaptiveRoute(m, Coord{0, 0}, Coord{3, 3}, 1).has_value());
    EXPECT_FALSE(
        adaptiveRoute(m, Coord{3, 3}, Coord{0, 0}, 1).has_value());
}

TEST(AdaptiveRoute, FailedSearchReportsItsBoundary)
{
    // A wall at x = 2 seals the left two columns: four held routers
    // and one disabled link.  Each is reported once.
    Mesh m(5, 5);
    Path wall;
    for (int y = 0; y <= 3; ++y)
        wall.nodes.push_back(Coord{2, y});
    m.claim(wall, 7);
    m.disableLink(Coord{1, 4}, Coord{2, 4});

    Blockers boundary;
    EXPECT_FALSE(adaptiveRoute(m, Coord{0, 0}, Coord{4, 0}, 1,
                               &boundary)
                     .has_value());
    std::vector<ResourceId> got(boundary.begin(), boundary.end());
    std::sort(got.begin(), got.end());
    std::vector<ResourceId> want;
    for (int y = 0; y <= 3; ++y)
        want.push_back(m.nodeResource(Coord{2, y}));
    want.push_back(m.linkResource(Coord{1, 4}, Coord{2, 4}));
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
}

TEST(AdaptiveRoute, EarlyReturnReportsTheBusyEndpoint)
{
    Mesh m(4, 4);
    Path spot;
    spot.nodes.push_back(Coord{3, 3});
    m.claim(spot, 9);
    Blockers boundary;
    EXPECT_FALSE(adaptiveRoute(m, Coord{0, 0}, Coord{3, 3}, 1,
                               &boundary)
                     .has_value());
    ASSERT_EQ(boundary.size(), 1u);
    EXPECT_EQ(boundary[0], m.nodeResource(Coord{3, 3}));

    boundary.clear();
    EXPECT_FALSE(adaptiveRoute(m, Coord{3, 3}, Coord{0, 0}, 1,
                               &boundary)
                     .has_value());
    ASSERT_EQ(boundary.size(), 1u);
    EXPECT_EQ(boundary[0], m.nodeResource(Coord{3, 3}));
}

TEST(AdaptiveRoute, SameEndpointTrivial)
{
    Mesh m(3, 3);
    auto p = adaptiveRoute(m, Coord{1, 1}, Coord{1, 1}, 1);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hops(), 0);
}

TEST(AdaptiveRoute, OutsideMeshIsFatal)
{
    Mesh m(3, 3);
    EXPECT_THROW(adaptiveRoute(m, Coord{0, 0}, Coord{5, 5}, 1),
                 qsurf::FatalError);
}

TEST(AdaptiveRoute, ReusedScratchMatchesFreshScratch)
{
    Mesh m(6, 6);
    Path wall;
    for (int y = 0; y <= 3; ++y)
        wall.nodes.push_back(Coord{3, y});
    m.claim(wall, 7);

    // One scratch across many searches (the claimers' usage) must
    // reproduce the one-shot overload exactly, node for node.
    BfsScratch scratch;
    for (int trial = 0; trial < 50; ++trial) {
        for (const Coord &dst :
             {Coord{5, 0}, Coord{5, 5}, Coord{0, 5}}) {
            auto reused =
                adaptiveRoute(m, Coord{0, 0}, dst, 1, scratch);
            auto fresh = adaptiveRoute(m, Coord{0, 0}, dst, 1);
            ASSERT_EQ(reused.has_value(), fresh.has_value());
            if (reused) {
                EXPECT_TRUE(reused->nodes == fresh->nodes);
            }
        }
    }
}

TEST(AdaptiveRoute, ScratchSurvivesMeshSizeChange)
{
    BfsScratch scratch;
    Mesh small(3, 3);
    EXPECT_TRUE(adaptiveRoute(small, Coord{0, 0}, Coord{2, 2}, 1,
                              scratch)
                    .has_value());
    Mesh big(9, 9);
    auto p =
        adaptiveRoute(big, Coord{0, 0}, Coord{8, 8}, 1, scratch);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->hops(), 16);
}

} // namespace
} // namespace qsurf::network
