/**
 * @file
 * Grid-layout tests: placement validity (a permutation into cells),
 * the interaction-aware layout beating the naive one on clustered
 * graphs (the Section 6.2 claim), cell-for-cell agreement with the
 * Graph-based placer and across threads, and grid shape selection.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "apps/apps.h"
#include "circuit/interaction.h"
#include "common/logging.h"
#include "common/rng.h"
#include "partition/layout.h"
#include "reference_bisect.h"
#include "service/artifact.h"

namespace qsurf::partition {
namespace {

/** Clusters of tightly linked vertices, lightly linked together. */
Graph
clusteredGraph(int clusters, int per_cluster)
{
    Graph g(clusters * per_cluster);
    for (int c = 0; c < clusters; ++c) {
        int base = c * per_cluster;
        for (int i = 0; i < per_cluster; ++i)
            for (int j = i + 1; j < per_cluster; ++j)
                g.addEdge(base + i, base + j, 20);
        if (c > 0)
            g.addEdge(base, base - per_cluster, 1);
    }
    return g;
}

void
expectValidPlacement(const GridLayout &layout, int n)
{
    ASSERT_EQ(static_cast<int>(layout.position.size()), n);
    std::set<std::pair<int, int>> used;
    for (int v = 0; v < n; ++v) {
        const Coord &c = layout.position[static_cast<size_t>(v)];
        EXPECT_GE(c.x, 0);
        EXPECT_LT(c.x, layout.width);
        EXPECT_GE(c.y, 0);
        EXPECT_LT(c.y, layout.height);
        EXPECT_TRUE(used.insert({c.x, c.y}).second)
            << "cell reused by vertex " << v;
        EXPECT_EQ(layout.at(c), v);
    }
}

TEST(NaiveLayout, RowMajorPlacement)
{
    GridLayout l = naiveLayout(6, 3, 2);
    expectValidPlacement(l, 6);
    EXPECT_EQ(l.position[0], (Coord{0, 0}));
    EXPECT_EQ(l.position[4], (Coord{1, 1}));
}

TEST(OptimizedLayout, IsValidPermutation)
{
    Graph g = clusteredGraph(4, 4);
    GridLayout l = layoutOnGrid(g, 4, 4, 7);
    expectValidPlacement(l, 16);
}

TEST(OptimizedLayout, BeatsNaiveOnClusteredGraph)
{
    Graph g = clusteredGraph(4, 9);
    GridLayout naive = naiveLayout(g.size(), 6, 6);
    GridLayout opt = layoutOnGrid(g, 6, 6, 11);
    EXPECT_LT(weightedManhattan(g, opt),
              weightedManhattan(g, naive))
        << "interaction-aware layout should shorten braid routes";
}

TEST(OptimizedLayout, DeterministicPerSeed)
{
    Graph g = clusteredGraph(3, 5);
    GridLayout a = layoutOnGrid(g, 4, 4, 5);
    GridLayout b = layoutOnGrid(g, 4, 4, 5);
    EXPECT_EQ(a.position, b.position);
}

TEST(OptimizedLayout, HandlesNonSquareAndSparseGrids)
{
    Graph g = clusteredGraph(2, 3);
    GridLayout l = layoutOnGrid(g, 7, 1, 3);
    expectValidPlacement(l, 6);
    GridLayout l2 = layoutOnGrid(g, 4, 4, 3); // 6 vertices, 16 cells
    expectValidPlacement(l2, 6);
}

TEST(OptimizedLayout, SingleVertex)
{
    Graph g(1);
    GridLayout l = layoutOnGrid(g, 1, 1, 1);
    expectValidPlacement(l, 1);
}

TEST(Layout, OverflowIsFatal)
{
    Graph g(5);
    EXPECT_THROW(layoutOnGrid(g, 2, 2, 1), qsurf::FatalError);
    EXPECT_THROW(naiveLayout(5, 2, 2), qsurf::FatalError);
}

TEST(Layout, WeightedManhattanOfKnownPlacement)
{
    Graph g(2);
    g.addEdge(0, 1, 3);
    GridLayout l = naiveLayout(2, 2, 1); // cells (0,0) and (1,0)
    EXPECT_DOUBLE_EQ(weightedManhattan(g, l), 3.0);
}

/** @return a mask over w x h with the given cells dead. */
CellMask
maskOf(int w, int h, std::initializer_list<Coord> dead)
{
    CellMask m(static_cast<size_t>(w * h), 0);
    for (const Coord &c : dead)
        m[static_cast<size_t>(c.y * w + c.x)] = 1;
    return m;
}

void
expectNoDeadPlacement(const GridLayout &layout, const CellMask &dead)
{
    for (const Coord &c : layout.position)
        EXPECT_FALSE(dead[static_cast<size_t>(
            c.y * layout.width + c.x)])
            << "vertex placed on dead cell " << c;
}

TEST(NaiveLayout, SkipsDeadCells)
{
    CellMask dead = maskOf(3, 2, {{1, 0}});
    GridLayout l = naiveLayout(5, 3, 2, dead);
    expectValidPlacement(l, 5);
    expectNoDeadPlacement(l, dead);
    // Row-major fill skips the hole: (0,0), (2,0), (0,1), ...
    EXPECT_EQ(l.position[0], (Coord{0, 0}));
    EXPECT_EQ(l.position[1], (Coord{2, 0}));
    EXPECT_EQ(l.position[2], (Coord{0, 1}));
    // 5 vertices into 5 live cells fits exactly; a 6th cannot.
    EXPECT_THROW(naiveLayout(6, 3, 2, dead), qsurf::FatalError);
}

TEST(OptimizedLayout, RelocatesOffDeadCells)
{
    Graph g = clusteredGraph(3, 4);
    CellMask dead = maskOf(4, 4, {{0, 0}, {2, 1}, {3, 3}});
    GridLayout l = layoutOnGrid(g, 4, 4, 7, dead);
    expectValidPlacement(l, 12);
    expectNoDeadPlacement(l, dead);
    // An empty mask is the exact unmasked layout.
    GridLayout unmasked = layoutOnGrid(g, 4, 4, 7);
    GridLayout empty_mask = layoutOnGrid(g, 4, 4, 7, CellMask{});
    EXPECT_EQ(unmasked.position, empty_mask.position);
}

TEST(EvictDeadCells, MovesToNearestLiveCell)
{
    GridLayout l = naiveLayout(2, 3, 2); // (0,0) and (1,0)
    CellMask dead = maskOf(3, 2, {{1, 0}});
    evictDeadCells(l, dead);
    EXPECT_EQ(l.position[0], (Coord{0, 0})) << "live cell untouched";
    EXPECT_EQ(l.position[1], (Coord{2, 0}))
        << "evicted vertex takes the nearest empty live cell";
    EXPECT_EQ(l.at(Coord{2, 0}), 1);
    // Nowhere to go: every cell dead or occupied.
    GridLayout full = naiveLayout(6, 3, 2);
    EXPECT_THROW(evictDeadCells(full, dead), qsurf::FatalError);
}

TEST(CorridorObjective, MaskedRefinementAvoidsDeadCells)
{
    Graph g = clusteredGraph(3, 4);
    CellMask dead = maskOf(4, 4, {{1, 1}, {3, 0}});
    GridLayout l = layoutOnGrid(g, 4, 4, 11, dead);
    double before = weightedCorridorLength(g, l);
    double after = refineForCorridors(g, l, 0, 8, dead);
    EXPECT_LE(after, before);
    expectValidPlacement(l, 12);
    expectNoDeadPlacement(l, dead);
    // The masked path with an empty mask is the unmasked path.
    GridLayout a = layoutOnGrid(g, 4, 4, 11);
    GridLayout b = layoutOnGrid(g, 4, 4, 11);
    refineForCorridors(g, a);
    refineForCorridors(g, b, 0, 8, CellMask{});
    EXPECT_EQ(a.position, b.position);
}

TEST(CorridorTiles, MatchesRoutingGeometry)
{
    // Adjacent patches merge through the shared boundary: one tile.
    EXPECT_EQ(corridorTiles(Coord{0, 0}, Coord{1, 0}), 1);
    EXPECT_EQ(corridorTiles(Coord{2, 3}, Coord{2, 4}), 1);
    // Diagonal pairs route at Manhattan length.
    EXPECT_EQ(corridorTiles(Coord{0, 0}, Coord{2, 3}), 5);
    EXPECT_EQ(corridorTiles(Coord{1, 1}, Coord{0, 3}), 3);
    // Collinear non-adjacent pairs detour around the patches between
    // them: one extra tile.
    EXPECT_EQ(corridorTiles(Coord{0, 0}, Coord{3, 0}), 4);
    EXPECT_EQ(corridorTiles(Coord{2, 1}, Coord{2, 4}), 4);
    EXPECT_EQ(corridorTiles(Coord{1, 1}, Coord{1, 1}), 0);
}

TEST(CorridorObjective, WeightedLengthOfKnownPlacement)
{
    Graph g(3);
    g.addEdge(0, 1, 2); // adjacent: 1 tile
    g.addEdge(0, 2, 5); // collinear non-adjacent: 2 + 1 tiles
    GridLayout l = naiveLayout(3, 3, 1);
    EXPECT_DOUBLE_EQ(weightedManhattan(g, l), 2.0 + 10.0);
    EXPECT_DOUBLE_EQ(weightedCorridorLength(g, l), 2.0 + 15.0);
}

TEST(CorridorObjective, RefinementImprovesAndStaysValid)
{
    Graph g = clusteredGraph(4, 9);
    GridLayout seed = layoutOnGrid(g, 6, 6, 11);
    double before = weightedCorridorLength(g, seed);

    GridLayout refined = seed;
    double after = refineForCorridors(g, refined);
    EXPECT_LE(after, before)
        << "greedy swaps must never worsen the corridor objective";
    EXPECT_DOUBLE_EQ(after, weightedCorridorLength(g, refined));
    expectValidPlacement(refined, g.size());

    // Deterministic: same seed layout refines to the same placement.
    GridLayout again = seed;
    refineForCorridors(g, again);
    EXPECT_EQ(refined.position, again.position);
}

TEST(CorridorObjective, RefinementUsesEmptyCells)
{
    // Two vertices stuck at opposite ends of a sparse row: moving one
    // into an empty middle cell is the only improving transformation.
    Graph g(2);
    g.addEdge(0, 1, 1);
    GridLayout l;
    l.width = 5;
    l.height = 1;
    l.position = {Coord{0, 0}, Coord{4, 0}};
    l.vertex_at = {0, -1, -1, -1, 1};
    double after = refineForCorridors(g, l);
    EXPECT_DOUBLE_EQ(after, 1.0);
    expectValidPlacement(l, 2);
}

/**
 * The unpruned refinement: every cell pair j > i in row-major order
 * scored exactly, the first strict improvement applied.  The pruned
 * refineForCorridors must reproduce it swap for swap.
 */
double
unprunedRefine(const Graph &g, GridLayout &layout, int lane_spacing,
               int max_passes, const CellMask &dead)
{
    auto moveDelta = [&](int v, const Coord &from, const Coord &to,
                         int exclude) {
        int64_t d = 0;
        for (const auto &[n, w] : g.neighbors(v)) {
            if (n == exclude)
                continue;
            const Coord &p = layout.position[static_cast<size_t>(n)];
            d += w * (corridorTiles(to, p, lane_spacing)
                      - corridorTiles(from, p, lane_spacing));
        }
        return d;
    };
    int cells = layout.width * layout.height;
    bool masked = !dead.empty();
    for (int pass = 0; pass < max_passes; ++pass) {
        bool improved = false;
        for (int i = 0; i < cells; ++i) {
            if (masked && dead[static_cast<size_t>(i)])
                continue;
            Coord ci = fromLinearIndex(i, layout.width);
            int u = layout.at(ci);
            for (int j = i + 1; j < cells; ++j) {
                if (masked && dead[static_cast<size_t>(j)])
                    continue;
                Coord cj = fromLinearIndex(j, layout.width);
                int v = layout.at(cj);
                if (u < 0 && v < 0)
                    continue;
                int64_t delta = 0;
                if (u >= 0)
                    delta += moveDelta(u, ci, cj, v);
                if (v >= 0)
                    delta += moveDelta(v, cj, ci, u);
                if (delta >= 0)
                    continue;
                if (u >= 0)
                    layout.position[static_cast<size_t>(u)] = cj;
                if (v >= 0)
                    layout.position[static_cast<size_t>(v)] = ci;
                layout.vertex_at[static_cast<size_t>(i)] = v;
                layout.vertex_at[static_cast<size_t>(j)] = u;
                u = v;
                improved = true;
            }
        }
        if (!improved)
            break;
    }
    return weightedCorridorLength(g, layout, lane_spacing);
}

/** Refine @p seed both ways and require identical placements and
 *  costs. */
void
expectMatchesUnpruned(const Graph &g, const GridLayout &seed,
                      int lane_spacing, int max_passes,
                      const CellMask &dead, const std::string &what)
{
    GridLayout pruned = seed;
    GridLayout oracle = seed;
    double got =
        refineForCorridors(g, pruned, lane_spacing, max_passes, dead);
    double want =
        unprunedRefine(g, oracle, lane_spacing, max_passes, dead);
    EXPECT_EQ(pruned.vertex_at, oracle.vertex_at) << what;
    EXPECT_EQ(pruned.position, oracle.position) << what;
    EXPECT_EQ(got, want) << what;
}

/** @return @p n vertices on the usable cells of a w x h grid in a
 *  seeded random order (so refinement has many swaps to make). */
GridLayout
shuffledLayout(int n, int w, int h, const CellMask &dead, Rng &rng)
{
    std::vector<int> live;
    for (int i = 0; i < w * h; ++i)
        if (dead.empty() || !dead[static_cast<size_t>(i)])
            live.push_back(i);
    for (size_t i = live.size(); i > 1; --i)
        std::swap(live[i - 1], live[rng.below(i)]);
    GridLayout l = naiveLayout(0, w, h);
    l.position.resize(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
        int cell = live[static_cast<size_t>(v)];
        l.position[static_cast<size_t>(v)] = fromLinearIndex(cell, w);
        l.vertex_at[static_cast<size_t>(cell)] = v;
    }
    return l;
}

TEST(CorridorRefinement, MatchesUnprunedScanOnRandomGraphs)
{
    Rng rng(2027);
    for (int trial = 0; trial < 240; ++trial) {
        int n = 2 + static_cast<int>(rng.below(48));
        bool dense = trial % 3 == 0;
        Graph g(n);
        int edges = dense ? n * (n - 1) / 4 : 2 * n;
        for (int e = 0; e < edges; ++e) {
            auto a = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
            auto b = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
            if (a != b)
                g.addEdge(a, b, rng.range(1, 3));
        }
        auto [w, h] = gridShape(n);
        // Spare cells: widen and heighten by up to two.
        w += static_cast<int>(rng.below(3));
        h += static_cast<int>(rng.below(3));
        CellMask dead;
        if (trial % 2 == 1) {
            dead.assign(static_cast<size_t>(w * h), 0);
            int spare = w * h - n;
            for (int i = 0; i < w * h && spare > 0; ++i)
                if (rng.chance(0.15)) {
                    dead[static_cast<size_t>(i)] = 1;
                    --spare;
                }
        }
        int lanes = static_cast<int>(rng.below(5));
        int passes = trial % 5 == 0 ? 1 + static_cast<int>(rng.below(3))
                                    : 8;
        GridLayout seed = trial % 3 == 2
            ? layoutOnGrid(g, w, h, static_cast<uint64_t>(trial), dead)
            : shuffledLayout(n, w, h, dead, rng);
        std::ostringstream what;
        what << "trial " << trial << ": " << n << " vertices on " << w
             << "x" << h << ", lanes " << lanes << ", passes " << passes
             << (dead.empty() ? "" : ", masked");
        expectMatchesUnpruned(g, seed, lanes, passes, dead, what.str());
    }
}

/** The compile-cold shape on @p n qubits: a chain of CNOT pairs in
 *  two layers plus sparse long-range chords, relabelled by @p rng. */
Graph
chainPlusChordGraph(int n, Rng &rng)
{
    std::vector<int> label(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q)
        label[static_cast<size_t>(q)] = q;
    for (size_t i = label.size(); i > 1; --i)
        std::swap(label[i - 1], label[rng.below(i)]);
    Graph g(n);
    auto cnot = [&](int a, int b) {
        g.addEdge(label[static_cast<size_t>(a)],
                  label[static_cast<size_t>(b % n)]);
    };
    for (int l = 0; l < 2; ++l)
        for (int q = l; q + 1 < n; q += 2)
            cnot(q, q + 1);
    for (int q = static_cast<int>(rng.below(16)); q < n; q += 16)
        cnot(q, q + n / 2);
    return g;
}

TEST(CorridorRefinement, MatchesUnprunedScanOnChainPlusChordGraphs)
{
    // The compile-cold shape, bisection seed.
    Rng rng(7919);
    for (int n : {192, 320, 511}) {
        Graph g = chainPlusChordGraph(n, rng);
        auto [w, h] = gridShape(n);
        for (int lanes : {0, 3}) {
            GridLayout seed = layoutOnGrid(g, w, h, rng.next());
            expectMatchesUnpruned(g, seed, lanes, 8, CellMask{},
                                  std::to_string(n) + " qubits, lanes "
                                      + std::to_string(lanes));
        }
    }
}

/**
 * The grid placer as it ran on Graph before the flat rewrite: each
 * split's induced subgraph built with Graph::addEdge and bisected by
 * the reference bisection, and vertex lists copied per split.
 * layoutOnGrid must reproduce it cell for cell.
 */
class GraphPlacer
{
  public:
    GraphPlacer(const Graph &g, GridLayout &layout, Rng &rng)
        : g(g), layout(layout), rng(rng) {}

    void
    place(std::vector<int> vertices, int x0, int y0, int x1, int y1)
    {
        int width = x1 - x0 + 1, height = y1 - y0 + 1;
        if (vertices.empty())
            return;
        if (width * height == 1) {
            int v = vertices.front();
            layout.position[static_cast<size_t>(v)] = Coord{x0, y0};
            layout.vertex_at[static_cast<size_t>(
                linearIndex(Coord{x0, y0}, layout.width))] = v;
            return;
        }
        int ax1 = x1, ay1 = y1, bx0 = x0, by0 = y0;
        if (width >= height)
            bx0 = (ax1 = x0 + (width - 1) / 2) + 1;
        else
            by0 = (ay1 = y0 + (height - 1) / 2) + 1;
        int cap_a = (ax1 - x0 + 1) * (ay1 - y0 + 1);
        int cap_b = (x1 - bx0 + 1) * (y1 - by0 + 1);
        auto [va, vb] = split(vertices, cap_a, cap_b);
        place(std::move(va), x0, y0, ax1, ay1);
        place(std::move(vb), bx0, by0, x1, y1);
    }

  private:
    std::pair<std::vector<int>, std::vector<int>>
    split(const std::vector<int> &vertices, int cap_a, int cap_b)
    {
        int n = static_cast<int>(vertices.size());
        std::vector<int> local(static_cast<size_t>(g.size()), -1);
        for (int i = 0; i < n; ++i)
            local[static_cast<size_t>(vertices[static_cast<size_t>(i)])] =
                i;
        Graph sub(n);
        for (int i = 0; i < n; ++i)
            for (const auto &[v, w] :
                 g.neighbors(vertices[static_cast<size_t>(i)])) {
                int j = local[static_cast<size_t>(v)];
                if (j > i)
                    sub.addEdge(i, j, w);
            }
        BisectOptions opts;
        opts.target_fraction = std::clamp(
            static_cast<double>(cap_a) / (cap_a + cap_b), 0.05, 0.95);
        std::vector<int> side = reference::referenceBisect(sub, rng, opts);
        auto spillWeakest = [&](int overfull) {
            int best = -1;
            int64_t best_att = 0;
            for (int i = 0; i < n; ++i) {
                if (side[static_cast<size_t>(i)] != overfull)
                    continue;
                int64_t att = 0;
                for (const auto &[j, w] : sub.neighbors(i))
                    if (side[static_cast<size_t>(j)] == overfull)
                        att += w;
                if (best < 0 || att < best_att) {
                    best = i;
                    best_att = att;
                }
            }
            side[static_cast<size_t>(best)] = 1 - overfull;
        };
        int na = 0;
        for (int i = 0; i < n; ++i)
            na += side[static_cast<size_t>(i)] == 0;
        for (; na > cap_a; --na)
            spillWeakest(0);
        for (; n - na > cap_b; ++na)
            spillWeakest(1);
        std::vector<int> va, vb;
        for (int i = 0; i < n; ++i)
            (side[static_cast<size_t>(i)] == 0 ? va : vb)
                .push_back(vertices[static_cast<size_t>(i)]);
        return {std::move(va), std::move(vb)};
    }

    const Graph &g;
    GridLayout &layout;
    Rng &rng;
};

GridLayout
graphPlacerLayout(const Graph &g, int width, int height, uint64_t seed)
{
    GridLayout out;
    out.width = width;
    out.height = height;
    out.position.assign(static_cast<size_t>(g.size()), Coord{});
    out.vertex_at.assign(static_cast<size_t>(width * height), -1);
    std::vector<int> all(static_cast<size_t>(g.size()));
    for (int v = 0; v < g.size(); ++v)
        all[static_cast<size_t>(v)] = v;
    Rng rng(seed);
    GraphPlacer(g, out, rng).place(std::move(all), 0, 0, width - 1,
                                   height - 1);
    return out;
}

/** Lay @p g out on @p w x @p h both ways and require identical
 *  placements. */
void
expectMatchesGraphPlacer(const Graph &g, int w, int h, uint64_t seed,
                         const std::string &what)
{
    GridLayout got = layoutOnGrid(g, w, h, seed);
    GridLayout want = graphPlacerLayout(g, w, h, seed);
    EXPECT_EQ(got.position, want.position) << what;
    EXPECT_EQ(got.vertex_at, want.vertex_at) << what;
}

TEST(BisectionLayout, MatchesGraphPlacerOnChainPlusChordGraphs)
{
    Rng rng(4242);
    for (int n : {192, 320, 511}) {
        Graph g = chainPlusChordGraph(n, rng);
        auto [w, h] = gridShape(n);
        for (int extra : {0, 1}) {
            uint64_t seed = rng.next();
            expectMatchesGraphPlacer(g, w + extra, h, seed,
                                     std::to_string(n) + " qubits on "
                                         + std::to_string(w + extra)
                                         + "x" + std::to_string(h));
        }
    }
}

/** The interaction graph of app @p kind, decomposed as sweeps
 *  decompose it. */
Graph
appGraph(apps::AppKind kind, const apps::GenOptions &gen)
{
    service::PrepareCache cache;
    auto program = service::cachedAppProgram(cache, kind, gen);
    circuit::InteractionGraph ig = circuit::interactionGraph(program->circ);
    Graph g(ig.num_qubits);
    for (const auto &[pair, w] : ig.edges)
        g.addEdge(pair.first, pair.second, static_cast<int64_t>(w));
    return g;
}

TEST(BisectionLayout, MatchesGraphPlacerOnHeavyEdgeApps)
{
    // GSE(40) and SQ(10,96), the sweep apps whose few qubits interact
    // thousands of times: the gain range 2D + 1 exceeds 4n, so FM
    // refinement takes its scan path on the whole graph.
    for (auto [kind, gen, name] :
         {std::tuple{apps::AppKind::GSE, apps::GenOptions{40, 0}, "GSE(40)"},
          std::tuple{apps::AppKind::SQ, apps::GenOptions{10, 96},
                     "SQ(10,96)"}}) {
        Graph g = appGraph(kind, gen);
        int64_t d = 0;
        for (int v = 0; v < g.size(); ++v) {
            int64_t degree = 0;
            for (const auto &[u, w] : g.neighbors(v))
                degree += w;
            d = std::max(d, degree);
        }
        EXPECT_GT(2 * d + 1, 4 * g.size()) << name;
        auto [w, h] = gridShape(g.size());
        for (uint64_t seed : {1, 7919, 1234})
            expectMatchesGraphPlacer(g, w, h, seed,
                                     std::string(name) + ", seed "
                                         + std::to_string(seed));
    }
}

TEST(BisectionLayout, ThreadsMatchSerial)
{
    // Sweep threads build machines side by side: a layout must not
    // depend on what another thread is laying out.
    Rng rng(31);
    std::vector<Graph> graphs;
    for (int n : {40, 97, 192, 256, 320, 400, 511, 64})
        graphs.push_back(chainPlusChordGraph(n, rng));
    auto layoutAll = [&](size_t first, std::vector<GridLayout> &out) {
        for (size_t k = 0; k < graphs.size(); ++k) {
            const Graph &g = graphs[(first + k) % graphs.size()];
            auto [w, h] = gridShape(g.size());
            out[(first + k) % graphs.size()] =
                layoutOnGrid(g, w, h, 17 + (first + k) % graphs.size());
        }
    };
    std::vector<GridLayout> serial(graphs.size());
    layoutAll(0, serial);
    std::vector<std::vector<GridLayout>> parallel(
        4, std::vector<GridLayout>(graphs.size()));
    std::vector<std::thread> threads;
    for (size_t t = 0; t < parallel.size(); ++t)
        threads.emplace_back(layoutAll, 2 * t, std::ref(parallel[t]));
    for (std::thread &t : threads)
        t.join();
    for (size_t t = 0; t < parallel.size(); ++t)
        for (size_t k = 0; k < graphs.size(); ++k) {
            EXPECT_EQ(parallel[t][k].position, serial[k].position)
                << "thread " << t << ", graph " << k;
            EXPECT_EQ(parallel[t][k].vertex_at, serial[k].vertex_at)
                << "thread " << t << ", graph " << k;
        }
}

TEST(CorridorObjective, NamesAndCheckedCast)
{
    EXPECT_STREQ(layoutObjectiveName(LayoutObjective::BraidManhattan),
                 "braid-manhattan");
    EXPECT_STREQ(layoutObjectiveName(LayoutObjective::Corridor),
                 "corridor");
    EXPECT_STREQ(layoutObjectiveName(LayoutObjective::CorridorLanes),
                 "corridor+lanes");
    EXPECT_EQ(layoutObjective(1), LayoutObjective::Corridor);
    EXPECT_THROW(layoutObjective(-1), qsurf::FatalError);
    EXPECT_THROW(layoutObjective(3), qsurf::FatalError);
}

TEST(GridShape, CoversRequestedCells)
{
    for (int n : {1, 2, 3, 4, 5, 10, 17, 100, 101}) {
        auto [w, h] = gridShape(n);
        EXPECT_GE(w * h, n) << n;
        EXPECT_LE(w * h, n + w) << "not wastefully large for " << n;
        EXPECT_LE(std::abs(w - h), 1) << "near-square for " << n;
    }
}

TEST(GridShape, RejectsZero)
{
    EXPECT_THROW(gridShape(0), qsurf::FatalError);
}

} // namespace
} // namespace qsurf::partition
