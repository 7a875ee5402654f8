/**
 * @file
 * Routing tests: dimension-ordered path shape, adaptive BFS detours
 * around busy regions, and unreachability reporting.  The index-based
 * BFS is checked path for path and blocker for blocker against the
 * coordinate-based search it replaced, kept here as the reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
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

/**
 * The reference detour search: BFS over coordinates through the
 * checked ownership queries, expanding east, west, south, north.
 * The same contract as adaptiveRoute(): the path, and the busy
 * resources in the order the search meets them.
 */
std::optional<Path>
referenceRoute(const Mesh &mesh, const Coord &src, const Coord &dst,
               int owner, Blockers &boundary)
{
    auto busy = [owner](int cur) {
        return cur != Mesh::no_owner && cur != owner;
    };
    for (const Coord &end : {src, dst}) {
        if (busy(mesh.nodeOwner(end))) {
            boundary.push_back(mesh.nodeResource(end));
            return std::nullopt;
        }
    }
    if (src == dst)
        return Path{{src}};

    int width = mesh.width();
    auto idx = [width](const Coord &c) {
        return static_cast<size_t>(linearIndex(c, width));
    };
    std::vector<bool> seen(static_cast<size_t>(mesh.numNodes()), false);
    std::vector<Coord> prev(static_cast<size_t>(mesh.numNodes()));
    std::vector<Coord> frontier{src};
    seen[idx(src)] = true;
    for (size_t head = 0; head < frontier.size(); ++head) {
        Coord cur = frontier[head];
        for (Coord d : {Coord{1, 0}, Coord{-1, 0}, Coord{0, 1},
                        Coord{0, -1}}) {
            Coord next{cur.x + d.x, cur.y + d.y};
            if (!mesh.contains(next) || seen[idx(next)])
                continue;
            if (busy(mesh.nodeOwner(next))) {
                boundary.push_back(mesh.nodeResource(next));
                seen[idx(next)] = true;
                continue;
            }
            if (busy(mesh.linkOwner(cur, next))) {
                boundary.push_back(mesh.linkResource(cur, next));
                continue;
            }
            seen[idx(next)] = true;
            prev[idx(next)] = cur;
            if (next == dst) {
                Path path;
                for (Coord c = dst; c != src; c = prev[idx(c)])
                    path.nodes.push_back(c);
                path.nodes.push_back(src);
                std::reverse(path.nodes.begin(), path.nodes.end());
                return path;
            }
            frontier.push_back(next);
        }
    }
    return std::nullopt;
}

/** @return a random router of @p mesh. */
Coord
randomCoord(Rng &rng, const Mesh &mesh)
{
    return Coord{static_cast<int>(rng.below(
                     static_cast<uint64_t>(mesh.width()))),
                 static_cast<int>(rng.below(
                     static_cast<uint64_t>(mesh.height())))};
}

/** @return a random neighbour of @p c inside @p mesh, if any. */
std::optional<Coord>
randomNeighbour(Rng &rng, const Mesh &mesh, const Coord &c)
{
    static constexpr Coord dirs[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
    const Coord &d = dirs[rng.below(4)];
    Coord n{c.x + d.x, c.y + d.y};
    if (!mesh.contains(n))
        return std::nullopt;
    return n;
}

TEST(AdaptiveRoute, MatchesTheReferenceSearchOnSeededMeshes)
{
    // 1xN and Nx1 lines, small and mid-sized meshes; defective
    // routers and links, holds by several owners including the
    // requester, every density from empty to sealed, and src == dst.
    BfsScratch scratch; // Reused across meshes, as the claimers do.
    int found = 0, failed = 0, blocked_end = 0;
    for (uint64_t seed = 1; seed <= 240; ++seed) {
        Rng rng(seed);
        int w = 1 + static_cast<int>(rng.below(9));
        int h = 1 + static_cast<int>(rng.below(9));
        if (seed % 8 == 0)
            w = 1;
        else if (seed % 8 == 1)
            h = 1;
        Mesh mesh(w, h);
        int cells = w * h;
        for (int k = static_cast<int>(rng.below(
                 static_cast<uint64_t>(cells / 6 + 1)));
             k > 0; --k) {
            Coord c = randomCoord(rng, mesh);
            auto n = randomNeighbour(rng, mesh, c);
            if (rng.below(2) == 0)
                mesh.disableNode(c);
            else if (n)
                mesh.disableLink(c, *n);
        }
        int holds = static_cast<int>(
            rng.below(static_cast<uint64_t>(cells / 2 + 2)));
        for (int k = 0; k < holds; ++k) {
            Path p;
            p.nodes.push_back(randomCoord(rng, mesh));
            if (auto n = randomNeighbour(rng, mesh, p.nodes[0]))
                p.nodes.push_back(*n);
            int owner = 1 + static_cast<int>(rng.below(3));
            if (mesh.routeFree(p, Mesh::no_owner))
                mesh.claim(p, owner);
        }
        for (int q = 0; q < 4; ++q) {
            Coord src = randomCoord(rng, mesh);
            Coord dst = q == 3 ? src : randomCoord(rng, mesh);
            int owner = 1 + static_cast<int>(rng.below(3));
            std::string what = "seed " + std::to_string(seed)
                + ", query " + std::to_string(q);
            Blockers want_boundary;
            Blockers got_boundary;
            auto want =
                referenceRoute(mesh, src, dst, owner, want_boundary);
            auto got = adaptiveRoute(mesh, src, dst, owner, scratch,
                                     &got_boundary);
            ASSERT_EQ(got.has_value(), want.has_value()) << what;
            if (got) {
                EXPECT_TRUE(got->nodes == want->nodes) << what;
                ++found;
            } else {
                ++failed;
                blocked_end += want_boundary.size() == 1;
            }
            EXPECT_TRUE(got_boundary == want_boundary) << what;
        }
    }
    // The seeds reach every outcome.
    EXPECT_GT(found, 100);
    EXPECT_GT(failed, 100);
    EXPECT_GT(blocked_end, 20);
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
