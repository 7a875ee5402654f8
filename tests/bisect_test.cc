/**
 * @file
 * Bisection tests: balance invariants, cut quality on graphs with a
 * known optimal cut, determinism, disconnected inputs, a
 * parameterized sweep over sizes and target fractions, and side-for-
 * side agreement with the Graph-based reference bisection
 * (reference_bisect.h) on seeded random graphs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "partition/bisect.h"
#include "reference_bisect.h"

namespace qsurf::partition {
namespace {

/** Two k-cliques joined by a single light bridge edge. */
Graph
twoCliques(int k)
{
    Graph g(2 * k);
    for (int side = 0; side < 2; ++side)
        for (int i = 0; i < k; ++i)
            for (int j = i + 1; j < k; ++j)
                g.addEdge(side * k + i, side * k + j, 10);
    g.addEdge(0, k, 1); // the bridge
    return g;
}

TEST(Bisect, FindsTheObviousCut)
{
    Graph g = twoCliques(8);
    qsurf::Rng rng(42);
    Bisection b = bisect(g, rng);
    EXPECT_EQ(b.cut, 1) << "should cut only the bridge";
    // Each clique must land wholly on one side.
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(b.side[static_cast<size_t>(i)], b.side[0]);
    for (int i = 9; i < 16; ++i)
        EXPECT_EQ(b.side[static_cast<size_t>(i)], b.side[8]);
    EXPECT_NE(b.side[0], b.side[8]);
}

TEST(Bisect, SideVectorCoversAllVertices)
{
    Graph g = twoCliques(5);
    qsurf::Rng rng(1);
    Bisection b = bisect(g, rng);
    ASSERT_EQ(b.side.size(), 10u);
    for (int s : b.side)
        EXPECT_TRUE(s == 0 || s == 1);
}

TEST(Bisect, CutMatchesReportedAssignment)
{
    Graph g = twoCliques(6);
    qsurf::Rng rng(3);
    Bisection b = bisect(g, rng);
    EXPECT_EQ(b.cut, cutWeight(g, b.side));
}

TEST(Bisect, DeterministicForSameSeed)
{
    Graph g = twoCliques(7);
    qsurf::Rng r1(99), r2(99);
    Bisection a = bisect(g, r1);
    Bisection b = bisect(g, r2);
    EXPECT_EQ(a.side, b.side);
    EXPECT_EQ(a.cut, b.cut);
}

TEST(Bisect, HandlesTinyGraphs)
{
    qsurf::Rng rng(1);
    Graph g0(0);
    EXPECT_TRUE(bisect(g0, rng).side.empty());
    Graph g1(1);
    Bisection b1 = bisect(g1, rng);
    EXPECT_EQ(b1.side, std::vector<int>{0});
    EXPECT_EQ(b1.cut, 0);
}

TEST(Bisect, HandlesEdgelessGraph)
{
    Graph g(10);
    qsurf::Rng rng(5);
    Bisection b = bisect(g, rng);
    EXPECT_EQ(b.cut, 0);
    // Balance: 10 unit vertices should split near 5/5.
    EXPECT_GE(b.side0_weight, 3);
    EXPECT_LE(b.side0_weight, 7);
}

TEST(Bisect, HandlesDisconnectedComponents)
{
    Graph g(12);
    for (int base : {0, 4, 8})
        for (int i = 0; i < 3; ++i)
            g.addEdge(base + i, base + i + 1, 5);
    qsurf::Rng rng(7);
    Bisection b = bisect(g, rng);
    EXPECT_EQ(b.cut, cutWeight(g, b.side));
    EXPECT_GE(b.side0_weight, 4);
    EXPECT_LE(b.side0_weight, 8);
}

TEST(Bisect, RejectsBadTargetFraction)
{
    Graph g(4);
    qsurf::Rng rng(1);
    BisectOptions opts;
    opts.target_fraction = 0;
    EXPECT_THROW(bisect(g, rng, opts), qsurf::FatalError);
    opts.target_fraction = 1;
    EXPECT_THROW(bisect(g, rng, opts), qsurf::FatalError);
}

/** Parameterized balance sweep: (vertices, target fraction). */
class BisectBalance
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(BisectBalance, RespectsBalanceEnvelope)
{
    auto [n, target] = GetParam();
    // Ring graph: every vertex degree 2.
    Graph g(n);
    for (int i = 0; i < n; ++i)
        g.addEdge(i, (i + 1) % n, 1 + i % 3);
    qsurf::Rng rng(static_cast<uint64_t>(n * 1000 + target * 100));
    BisectOptions opts;
    opts.target_fraction = target;
    Bisection b = bisect(g, rng, opts);

    double want = n * target;
    // Envelope: epsilon share plus one max-weight vertex of slack.
    double slack = std::max(n * opts.imbalance, 1.0) + 1e-9;
    EXPECT_GE(b.side0_weight, want - slack - 1);
    EXPECT_LE(b.side0_weight, want + slack + 1);
    EXPECT_EQ(b.cut, cutWeight(g, b.side));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BisectBalance,
    ::testing::Combine(::testing::Values(8, 33, 64, 120, 257),
                       ::testing::Values(0.25, 0.5, 0.75)));

/** Property: multilevel cut quality beats a naive split on cliques. */
class BisectQuality : public ::testing::TestWithParam<int>
{
};

TEST_P(BisectQuality, CutBridgeOnly)
{
    int k = GetParam();
    Graph g = twoCliques(k);
    qsurf::Rng rng(static_cast<uint64_t>(k));
    Bisection b = bisect(g, rng);
    EXPECT_EQ(b.cut, 1) << "clique pair of size " << k;
}

INSTANTIATE_TEST_SUITE_P(CliqueSizes, BisectQuality,
                         ::testing::Values(4, 8, 16, 32, 64));

/** @return whether the refiner moves from gain buckets on @p g: the
 *  rule of refine.h, (2D + 1) x distinct vertex weights <= 4n. */
bool
bucketsChosen(const Graph &g)
{
    int64_t d = 0;
    std::vector<int64_t> weights;
    for (int v = 0; v < g.size(); ++v) {
        int64_t degree = 0;
        for (const auto &[u, w] : g.neighbors(v))
            degree += w;
        d = std::max(d, degree);
        weights.push_back(g.vertexWeight(v));
    }
    std::sort(weights.begin(), weights.end());
    auto classes = std::unique(weights.begin(), weights.end())
                 - weights.begin();
    return classes * (2 * d + 1) <= 4 * static_cast<int64_t>(g.size());
}

TEST(Bisect, MatchesReferenceOnSeededGraphs)
{
    Rng rng(1708);
    int bucket_graphs = 0, scan_graphs = 0;
    for (int trial = 0; trial < 320; ++trial) {
        // Mostly small graphs, as the grid layout's deep splits are,
        // with a tail up to ~600 vertices.
        int n = trial % 8 == 0 ? static_cast<int>(rng.below(601))
                               : static_cast<int>(rng.below(80));
        Graph g(n);
        const int64_t max_vw[] = {1, 1, 2, 8};
        int64_t vw = max_vw[rng.below(4)];
        for (int v = 0; v < n; ++v)
            if (vw > 1)
                g.setVertexWeight(v, rng.range(1, vw));
        // Edge weights from unit to 10^4, so both the bucket and the
        // scan refinement run; some graphs keep isolated vertices or
        // split into components.
        const int64_t max_ew[] = {1, 3, 10, 100, 10000};
        int64_t ew = max_ew[rng.below(5)];
        int components = 1 + static_cast<int>(rng.below(3));
        int64_t edges = n < 2 ? 0
                              : static_cast<int64_t>(rng.below(
                                    static_cast<uint64_t>(3 * n)));
        for (int64_t e = 0; e < edges; ++e) {
            auto a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
            auto b = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
            if (a != b && a % components == b % components)
                g.addEdge(a, b, rng.range(1, ew));
        }

        BisectOptions opts;
        opts.target_fraction = 0.05 + 0.9 * rng.uniform();
        opts.restarts = 1 + static_cast<int>(rng.below(4));
        opts.refine_passes = 1 + static_cast<int>(rng.below(6));
        opts.coarsen_threshold = rng.chance(0.5) ? 8 : 32;
        (bucketsChosen(g) ? bucket_graphs : scan_graphs) += n >= 2;

        uint64_t seed = rng.next();
        Rng r1(seed), r2(seed);
        Bisection got = bisect(g, r1, opts);
        std::vector<int> want = reference::referenceBisect(g, r2, opts);
        std::ostringstream what;
        what << "trial " << trial << ": n " << n << ", max vertex weight "
             << vw << ", max edge weight " << ew << ", " << components
             << " components, target " << opts.target_fraction
             << ", restarts " << opts.restarts << ", passes "
             << opts.refine_passes << ", threshold "
             << opts.coarsen_threshold;
        ASSERT_EQ(got.side, want) << what.str();
        EXPECT_EQ(got.cut, cutWeight(g, want)) << what.str();
        EXPECT_EQ(r1.next(), r2.next()) << "random draws differ: "
                                        << what.str();
    }
    // Both refinement paths ran at the finest level.
    EXPECT_GE(bucket_graphs, 60);
    EXPECT_GE(scan_graphs, 60);
}

} // namespace
} // namespace qsurf::partition
