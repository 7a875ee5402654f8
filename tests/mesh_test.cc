/**
 * @file
 * Circuit-switched mesh tests: exclusive claim/release semantics
 * (braids cannot cross — Section 4.1), availability queries and
 * utilization accounting.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "network/mesh.h"

namespace qsurf::network {
namespace {

Path
straightPath(int y, int x0, int x1)
{
    Path p;
    for (int x = x0; x <= x1; ++x)
        p.nodes.push_back(Coord{x, y});
    return p;
}

TEST(Mesh, DimensionsAndCounts)
{
    Mesh m(4, 3);
    EXPECT_EQ(m.numNodes(), 12);
    // Horizontal: 3*3, vertical: 4*2.
    EXPECT_EQ(m.numLinks(), 17);
    EXPECT_TRUE(m.contains(Coord{3, 2}));
    EXPECT_FALSE(m.contains(Coord{4, 0}));
    EXPECT_FALSE(m.contains(Coord{0, -1}));
}

TEST(Mesh, RejectsDegenerate)
{
    EXPECT_THROW(Mesh(0, 3), qsurf::FatalError);
}

TEST(Mesh, ClaimMakesRouteBusy)
{
    Mesh m(5, 5);
    Path p = straightPath(2, 0, 4);
    EXPECT_TRUE(m.routeFree(p, 1));
    m.claim(p, 1);
    EXPECT_FALSE(m.routeFree(p, 2));
    EXPECT_TRUE(m.routeFree(p, 1)) << "owner may reuse its own route";
    EXPECT_EQ(m.nodeOwner(Coord{2, 2}), 1);
    EXPECT_EQ(m.linkOwner(Coord{0, 2}, Coord{1, 2}), 1);
}

TEST(Mesh, CrossingRoutesConflict)
{
    Mesh m(5, 5);
    m.claim(straightPath(2, 0, 4), 1);
    // A vertical path through (2,2) must be blocked.
    Path vertical;
    for (int y = 0; y <= 4; ++y)
        vertical.nodes.push_back(Coord{2, y});
    EXPECT_FALSE(m.routeFree(vertical, 2));
}

TEST(Mesh, DisjointRoutesCoexist)
{
    Mesh m(5, 5);
    m.claim(straightPath(0, 0, 4), 1);
    Path other = straightPath(3, 0, 4);
    EXPECT_TRUE(m.routeFree(other, 2));
    m.claim(other, 2);
    EXPECT_EQ(m.busyLinks(), 8);
}

TEST(Mesh, ReleaseFreesOnlyOwnedResources)
{
    Mesh m(5, 5);
    Path a = straightPath(0, 0, 2);
    Path b = straightPath(0, 2, 4); // shares node (2,0)
    m.claim(a, 1);
    EXPECT_FALSE(m.routeFree(b, 2));
    m.release(a, 1);
    EXPECT_TRUE(m.routeFree(b, 2));
    m.claim(b, 2);
    // Releasing A again (wrong owner for B's resources) is harmless.
    m.release(a, 1);
    EXPECT_EQ(m.nodeOwner(Coord{3, 0}), 2);
}

TEST(Mesh, DoubleClaimPanics)
{
    Mesh m(4, 4);
    Path p = straightPath(1, 0, 3);
    m.claim(p, 1);
    EXPECT_THROW(m.claim(p, 2), qsurf::PanicError);
}

TEST(Mesh, ClaimWithNoOwnerIdPanics)
{
    Mesh m(4, 4);
    EXPECT_THROW(m.claim(straightPath(0, 0, 1), Mesh::no_owner),
                 qsurf::PanicError);
}

TEST(Mesh, UtilizationAveragesBusyLinks)
{
    Mesh m(2, 2); // 4 links
    m.claim(straightPath(0, 0, 1), 1); // 1 link busy
    m.tick();
    m.tick();
    m.release(straightPath(0, 0, 1), 1);
    m.tick();
    m.tick();
    EXPECT_DOUBLE_EQ(m.utilization(), (0.25 + 0.25) / 4.0);
    EXPECT_EQ(m.cycles(), 4u);
}

TEST(Mesh, ResetClearsEverything)
{
    Mesh m(3, 3);
    m.claim(straightPath(0, 0, 2), 4);
    m.tick();
    m.reset();
    EXPECT_EQ(m.busyLinks(), 0);
    EXPECT_EQ(m.cycles(), 0u);
    EXPECT_TRUE(m.routeFree(straightPath(0, 0, 2), 9));
}

TEST(Mesh, EmptyPathIsAlwaysFree)
{
    Mesh m(3, 3);
    EXPECT_TRUE(m.routeFree(Path{}, 1));
}

TEST(Path, HopsAndEndpoints)
{
    Path p = straightPath(0, 0, 3);
    EXPECT_EQ(p.hops(), 3);
    EXPECT_EQ(p.source(), (Coord{0, 0}));
    EXPECT_EQ(p.dest(), (Coord{3, 0}));
}

TEST(Mesh, TryClaimSucceedsLikeClaim)
{
    Mesh m(5, 5);
    Path p = straightPath(2, 0, 4);
    EXPECT_TRUE(m.tryClaim(p, 1));
    EXPECT_EQ(m.nodeOwner(Coord{2, 2}), 1);
    EXPECT_EQ(m.linkOwner(Coord{0, 2}, Coord{1, 2}), 1);
    EXPECT_EQ(m.busyLinks(), 4);
}

TEST(Mesh, FailedTryClaimLeavesMeshUntouched)
{
    Mesh m(5, 5);
    m.claim(straightPath(2, 0, 4), 1);
    // A vertical route crossing (2,2) fails mid-walk; nothing it
    // validated before the conflict may stay claimed.
    Path vertical;
    for (int y = 0; y <= 4; ++y)
        vertical.nodes.push_back(Coord{2, y});
    EXPECT_FALSE(m.tryClaim(vertical, 2));
    EXPECT_EQ(m.nodeOwner(Coord{2, 0}), Mesh::no_owner);
    EXPECT_EQ(m.linkOwner(Coord{2, 0}, Coord{2, 1}), Mesh::no_owner);
    EXPECT_EQ(m.busyLinks(), 4);
}

TEST(Mesh, VerticalLinksOnOneWideMesh)
{
    Mesh m(1, 4);
    Path p;
    for (int y = 0; y < 4; ++y)
        p.nodes.push_back(Coord{0, y});
    EXPECT_TRUE(m.tryClaim(p, 3));
    EXPECT_EQ(m.linkOwner(Coord{0, 1}, Coord{0, 2}), 3);
    m.release(p, 3);
    EXPECT_EQ(m.busyLinks(), 0);
}

TEST(Mesh, DefectiveNodeIsNeverClaimable)
{
    Mesh m(5, 5);
    m.disableNode(Coord{2, 2});
    EXPECT_TRUE(m.nodeDefective(Coord{2, 2}));
    EXPECT_EQ(m.numDefectiveNodes(), 1);
    Path p = straightPath(2, 0, 4); // crosses (2,2)
    EXPECT_FALSE(m.routeFree(p, 1));
    EXPECT_FALSE(m.tryClaim(p, 1));
    // The failed walk must not leave partial claims behind.
    EXPECT_EQ(m.nodeOwner(Coord{0, 2}), Mesh::no_owner);
    EXPECT_EQ(m.busyLinks(), 0);
    // Routes that stay clear of the damage are unaffected.
    EXPECT_TRUE(m.tryClaim(straightPath(0, 0, 4), 1));
}

TEST(Mesh, DefectiveLinkBlocksOnlyThatSegment)
{
    Mesh m(5, 5);
    m.disableLink(Coord{1, 2}, Coord{2, 2});
    EXPECT_TRUE(m.linkDefective(Coord{1, 2}, Coord{2, 2}));
    EXPECT_TRUE(m.linkDefective(Coord{2, 2}, Coord{1, 2}))
        << "defect is direction-agnostic";
    EXPECT_EQ(m.numDefectiveLinks(), 1);
    EXPECT_FALSE(m.routeFree(straightPath(2, 0, 4), 1));
    // Both endpoint routers are still usable by other routes.
    Path vertical;
    for (int y = 0; y <= 4; ++y)
        vertical.nodes.push_back(Coord{2, y});
    EXPECT_TRUE(m.tryClaim(vertical, 1));
}

TEST(Mesh, ReleaseCannotFreeDefects)
{
    Mesh m(4, 4);
    m.disableNode(Coord{1, 1});
    Path p;
    p.nodes.push_back(Coord{0, 1});
    p.nodes.push_back(Coord{1, 1});
    // Release with any owner id must leave the defect in place.
    m.release(p, 7);
    EXPECT_TRUE(m.nodeDefective(Coord{1, 1}));
    EXPECT_FALSE(m.routeFree(p, 7));
}

TEST(Mesh, ResetReappliesDamage)
{
    Mesh m(4, 4);
    m.disableNode(Coord{1, 1});
    m.disableLink(Coord{2, 2}, Coord{3, 2});
    m.claim(straightPath(0, 0, 3), 1);
    m.tick();
    m.reset();
    EXPECT_EQ(m.busyLinks(), 0);
    EXPECT_TRUE(m.nodeDefective(Coord{1, 1}));
    EXPECT_TRUE(m.linkDefective(Coord{2, 2}, Coord{3, 2}));
    EXPECT_EQ(m.numDefectiveNodes(), 1);
    EXPECT_EQ(m.numDefectiveLinks(), 1);
}

TEST(Mesh, DisableIsIdempotent)
{
    Mesh m(3, 3);
    m.disableNode(Coord{0, 0});
    m.disableNode(Coord{0, 0});
    m.disableLink(Coord{1, 0}, Coord{1, 1});
    m.disableLink(Coord{1, 1}, Coord{1, 0});
    EXPECT_EQ(m.numDefectiveNodes(), 1);
    EXPECT_EQ(m.numDefectiveLinks(), 1);
}

TEST(Mesh, FailedClaimReportsFirstBusyResource)
{
    Mesh m(5, 5);
    m.claim(straightPath(2, 0, 4), 1);
    Path vertical;
    for (int y = 0; y <= 4; ++y)
        vertical.nodes.push_back(Coord{2, y});
    ResourceId blocker = Mesh::no_resource;
    EXPECT_FALSE(m.tryClaim(vertical, 2, &blocker));
    EXPECT_EQ(blocker, m.nodeResource(Coord{2, 2}));
    blocker = Mesh::no_resource;
    EXPECT_FALSE(m.routeFree(vertical, 2, &blocker));
    EXPECT_EQ(blocker, m.nodeResource(Coord{2, 2}));

    // Free routers, busy link: the link is what blocks.
    m.disableLink(Coord{1, 4}, Coord{2, 4});
    EXPECT_FALSE(m.tryClaim(straightPath(4, 0, 4), 2, &blocker));
    EXPECT_EQ(blocker, m.linkResource(Coord{1, 4}, Coord{2, 4}));
    EXPECT_EQ(blocker, m.linkResource(Coord{2, 4}, Coord{1, 4}))
        << "link ids are direction-agnostic";

    // A successful claim leaves the out-parameter alone.
    blocker = 123;
    EXPECT_TRUE(m.tryClaim(straightPath(0, 0, 4), 2, &blocker));
    EXPECT_EQ(blocker, 123);
}

TEST(Mesh, StepBlockerPrefersTheRouter)
{
    Mesh m(3, 3);
    m.disableLink(Coord{0, 0}, Coord{1, 0});
    EXPECT_EQ(m.stepBlocker(Coord{0, 0}, Coord{1, 0}, 1),
              m.linkResource(Coord{0, 0}, Coord{1, 0}));
    m.disableNode(Coord{1, 0});
    EXPECT_EQ(m.stepBlocker(Coord{0, 0}, Coord{1, 0}, 1),
              m.nodeResource(Coord{1, 0}));
    EXPECT_EQ(m.stepBlocker(Coord{0, 0}, Coord{0, 1}, 1),
              Mesh::no_resource);
}

TEST(Mesh, ReleaseStampsOnlyWhatItFrees)
{
    Mesh m(5, 5);
    Path a = straightPath(0, 0, 2);
    Path b = straightPath(0, 2, 4); // shares (2,0), held by a
    m.claim(a, 1);
    m.claim(straightPath(3, 0, 4), 2);
    EXPECT_EQ(m.releaseCount(), 0u);

    // Owner 2 owns nothing on b: (2,0) is owner 1's, the rest free.
    m.release(b, 2);
    EXPECT_EQ(m.releaseCount(), 1u);
    EXPECT_EQ(m.releaseStamp(m.nodeResource(Coord{2, 0})), 0u)
        << "(2,0) is owner 1's: not freed, not stamped";

    m.release(a, 1);
    EXPECT_EQ(m.releaseCount(), 2u);
    for (int x = 0; x <= 2; ++x)
        EXPECT_EQ(m.releaseStamp(m.nodeResource(Coord{x, 0})), 2u);
    EXPECT_EQ(m.releaseStamp(m.linkResource(Coord{0, 0}, Coord{1, 0})),
              2u);
    EXPECT_EQ(m.releaseStamp(m.linkResource(Coord{2, 0}, Coord{3, 0})),
              0u)
        << "never held, never stamped";
    EXPECT_EQ(m.releaseStamp(m.nodeResource(Coord{0, 3})), 0u)
        << "owner 2's route is still held";
}

TEST(Mesh, SuspensionFreesWithoutStamping)
{
    // A patch terminal's reservation, lent to one claim attempt.
    Mesh m(3, 3);
    Path terminal;
    terminal.nodes.push_back(Coord{1, 1});
    const int sentinel = 1 << 28;
    const int node = m.nodeResource(Coord{1, 1});
    m.claim(terminal, sentinel);

    m.suspendNode(node, 7);
    EXPECT_EQ(m.nodeOwner(Coord{1, 1}), sentinel)
        << "only the holder's own hold is suspended";
    m.suspendNode(node, sentinel);
    EXPECT_EQ(m.nodeOwner(Coord{1, 1}), Mesh::no_owner);
    EXPECT_EQ(m.releaseCount(), 0u);
    EXPECT_EQ(m.releaseStamp(m.nodeResource(Coord{1, 1})), 0u);

    // A claim kept the router: restoring the hold leaves it be.
    m.claim(terminal, 7);
    m.holdNode(node, sentinel);
    EXPECT_EQ(m.nodeOwner(Coord{1, 1}), 7);
    m.release(terminal, 7);
    EXPECT_EQ(m.releaseStamp(node), 1u);
    m.holdNode(node, sentinel);
    EXPECT_EQ(m.nodeOwner(Coord{1, 1}), sentinel);
    EXPECT_EQ(m.releaseCount(), 1u) << "a restore does not stamp";

    m.release(terminal, sentinel);
    EXPECT_EQ(m.releaseStamp(m.nodeResource(Coord{1, 1})), 2u);
}

TEST(Mesh, BulkTickMatchesRepeatedTicks)
{
    Mesh a(3, 3), b(3, 3);
    a.claim(straightPath(1, 0, 2), 1);
    b.claim(straightPath(1, 0, 2), 1);
    for (int i = 0; i < 7; ++i)
        a.tick();
    b.tick(7);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_DOUBLE_EQ(a.utilization(), b.utilization());
}

} // namespace
} // namespace qsurf::network
