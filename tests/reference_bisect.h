/**
 * @file
 * The reference bisection for the partition tests: the bisection as
 * it ran on Graph before the flat rewrite, with Graph adjacency per
 * coarse level, a deque BFS, and an FM pass that scans every unlocked
 * vertex for every move.  bisect() must reproduce its side vectors
 * exactly, drawing the same random numbers (bisect_test), and
 * layoutOnGrid the placements it leads to (layout_test).
 */

#ifndef QSURF_TESTS_REFERENCE_BISECT_H
#define QSURF_TESTS_REFERENCE_BISECT_H

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "partition/bisect.h"

namespace qsurf::partition::reference {

struct RefLevel
{
    Graph graph;
    std::vector<int> fine_to_coarse;
};

inline RefLevel
refCoarsen(const Graph &g, Rng &rng)
{
    int n = g.size();
    std::vector<int> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i)
        std::swap(order[static_cast<size_t>(i)],
                  order[rng.below(static_cast<uint64_t>(i + 1))]);
    std::vector<int> match(static_cast<size_t>(n), -1);
    for (int v : order) {
        if (match[static_cast<size_t>(v)] >= 0)
            continue;
        int best = -1;
        int64_t best_w = 0;
        for (const auto &[u, w] : g.neighbors(v))
            if (match[static_cast<size_t>(u)] < 0 && w > best_w) {
                best_w = w;
                best = u;
            }
        if (best >= 0) {
            match[static_cast<size_t>(v)] = best;
            match[static_cast<size_t>(best)] = v;
        } else {
            match[static_cast<size_t>(v)] = v;
        }
    }
    RefLevel level;
    level.fine_to_coarse.assign(static_cast<size_t>(n), -1);
    int next = 0;
    for (int v = 0; v < n; ++v) {
        if (level.fine_to_coarse[static_cast<size_t>(v)] >= 0)
            continue;
        level.fine_to_coarse[static_cast<size_t>(v)] = next;
        level.fine_to_coarse[static_cast<size_t>(
            match[static_cast<size_t>(v)])] = next;
        ++next;
    }
    level.graph = Graph(next);
    std::vector<int64_t> cw(static_cast<size_t>(next), 0);
    for (int v = 0; v < n; ++v)
        cw[static_cast<size_t>(
            level.fine_to_coarse[static_cast<size_t>(v)])] +=
            g.vertexWeight(v);
    for (int c = 0; c < next; ++c)
        level.graph.setVertexWeight(c, cw[static_cast<size_t>(c)]);
    for (int u = 0; u < n; ++u)
        for (const auto &[v, w] : g.neighbors(u)) {
            int cu = level.fine_to_coarse[static_cast<size_t>(u)];
            int cv = level.fine_to_coarse[static_cast<size_t>(v)];
            if (u < v && cu != cv)
                level.graph.addEdge(cu, cv, w);
        }
    return level;
}

inline std::vector<int>
refInitialPartition(const Graph &g, Rng &rng, int64_t target_w0)
{
    int n = g.size();
    std::vector<int> side(static_cast<size_t>(n), 1);
    if (n == 0)
        return side;
    std::vector<char> visited(static_cast<size_t>(n), 0);
    int64_t w0 = 0;
    std::deque<int> frontier;
    auto seed_from = [&](int v) {
        visited[static_cast<size_t>(v)] = 1;
        frontier.push_back(v);
    };
    seed_from(static_cast<int>(rng.below(static_cast<uint64_t>(n))));
    while (w0 < target_w0) {
        if (frontier.empty()) {
            int fresh = -1;
            for (int v = 0; v < n && fresh < 0; ++v)
                if (!visited[static_cast<size_t>(v)])
                    fresh = v;
            if (fresh < 0)
                break;
            seed_from(fresh);
            continue;
        }
        int v = frontier.front();
        frontier.pop_front();
        side[static_cast<size_t>(v)] = 0;
        w0 += g.vertexWeight(v);
        for (const auto &[u, w] : g.neighbors(v))
            if (!visited[static_cast<size_t>(u)])
                seed_from(u);
    }
    return side;
}

inline BalanceConstraint
refBalance(const Graph &g, const BisectOptions &opts)
{
    auto total = static_cast<double>(g.totalVertexWeight());
    double target = total * opts.target_fraction;
    double eps = total * opts.imbalance;
    int64_t max_vw = 1;
    for (int v = 0; v < g.size(); ++v)
        max_vw = std::max(max_vw, g.vertexWeight(v));
    auto slack = std::max<int64_t>(static_cast<int64_t>(eps), max_vw);
    BalanceConstraint b;
    b.min_side0 = std::max<int64_t>(
        0, static_cast<int64_t>(target) - slack);
    b.max_side0 = std::min<int64_t>(
        static_cast<int64_t>(total),
        static_cast<int64_t>(target) + slack);
    return b;
}

/** One FM pass, each move chosen by scanning every vertex. */
inline bool
refFmPass(const Graph &g, std::vector<int> &side,
          const BalanceConstraint &balance, int64_t &side0_weight)
{
    int n = g.size();
    std::vector<int64_t> gain(static_cast<size_t>(n), 0);
    std::vector<char> locked(static_cast<size_t>(n), 0);
    for (int v = 0; v < n; ++v)
        for (const auto &[u, w] : g.neighbors(v))
            gain[static_cast<size_t>(v)] +=
                side[static_cast<size_t>(u)]
                        != side[static_cast<size_t>(v)]
                    ? w
                    : -w;
    std::vector<std::pair<int, int64_t>> sequence;
    int64_t w0 = side0_weight;
    for (int step = 0; step < n; ++step) {
        int best = -1;
        int64_t best_gain = std::numeric_limits<int64_t>::min();
        for (int v = 0; v < n; ++v) {
            if (locked[static_cast<size_t>(v)])
                continue;
            int64_t vw = g.vertexWeight(v);
            int64_t new_w0 =
                side[static_cast<size_t>(v)] == 0 ? w0 - vw : w0 + vw;
            if (new_w0 < balance.min_side0 || new_w0 > balance.max_side0)
                continue;
            if (gain[static_cast<size_t>(v)] > best_gain) {
                best_gain = gain[static_cast<size_t>(v)];
                best = v;
            }
        }
        if (best < 0)
            break;
        int old_side = side[static_cast<size_t>(best)];
        side[static_cast<size_t>(best)] = 1 - old_side;
        w0 += old_side == 0 ? -g.vertexWeight(best)
                            : g.vertexWeight(best);
        locked[static_cast<size_t>(best)] = 1;
        sequence.emplace_back(best, best_gain);
        for (const auto &[u, w] : g.neighbors(best)) {
            if (locked[static_cast<size_t>(u)])
                continue;
            if (side[static_cast<size_t>(u)]
                == side[static_cast<size_t>(best)])
                gain[static_cast<size_t>(u)] -= 2 * w;
            else
                gain[static_cast<size_t>(u)] += 2 * w;
        }
    }
    int64_t running = 0, best_total = 0;
    size_t best_prefix = 0;
    for (size_t i = 0; i < sequence.size(); ++i) {
        running += sequence[i].second;
        if (running > best_total) {
            best_total = running;
            best_prefix = i + 1;
        }
    }
    for (size_t i = sequence.size(); i > best_prefix; --i) {
        int v = sequence[i - 1].first;
        int cur = side[static_cast<size_t>(v)];
        side[static_cast<size_t>(v)] = 1 - cur;
        w0 += cur == 0 ? -g.vertexWeight(v) : g.vertexWeight(v);
    }
    side0_weight = w0;
    return best_total > 0;
}

inline int64_t
refFmRefine(const Graph &g, std::vector<int> &side,
            const BalanceConstraint &balance, int passes)
{
    int64_t w0 = 0;
    for (int v = 0; v < g.size(); ++v)
        if (side[static_cast<size_t>(v)] == 0)
            w0 += g.vertexWeight(v);
    for (int p = 0; p < passes; ++p)
        if (!refFmPass(g, side, balance, w0))
            break;
    return cutWeight(g, side);
}

/** The reference bisection: the side of every vertex. */
inline std::vector<int>
referenceBisect(const Graph &g, Rng &rng, const BisectOptions &opts)
{
    int n = g.size();
    if (n <= 1)
        return std::vector<int>(static_cast<size_t>(n), 0);
    std::vector<RefLevel> levels;
    const Graph *cur = &g;
    while (cur->size() > opts.coarsen_threshold) {
        RefLevel level = refCoarsen(*cur, rng);
        if (level.graph.size() >= cur->size())
            break;
        levels.push_back(std::move(level));
        cur = &levels.back().graph;
    }
    const Graph &coarsest = levels.empty() ? g : levels.back().graph;
    auto target_w0 = static_cast<int64_t>(
        static_cast<double>(coarsest.totalVertexWeight())
        * opts.target_fraction);
    BalanceConstraint cb = refBalance(coarsest, opts);
    std::vector<int> best_side;
    int64_t best_cut = -1;
    for (int r = 0; r < std::max(1, opts.restarts); ++r) {
        std::vector<int> side =
            refInitialPartition(coarsest, rng, target_w0);
        int64_t cut = refFmRefine(coarsest, side, cb, opts.refine_passes);
        if (best_cut < 0 || cut < best_cut) {
            best_cut = cut;
            best_side = std::move(side);
        }
    }
    for (size_t li = levels.size(); li > 0; --li) {
        const RefLevel &level = levels[li - 1];
        const Graph &fine = li >= 2 ? levels[li - 2].graph : g;
        std::vector<int> fine_side(static_cast<size_t>(fine.size()));
        for (int v = 0; v < fine.size(); ++v)
            fine_side[static_cast<size_t>(v)] = best_side[
                static_cast<size_t>(
                    level.fine_to_coarse[static_cast<size_t>(v)])];
        refFmRefine(fine, fine_side, refBalance(fine, opts),
                    opts.refine_passes);
        best_side = std::move(fine_side);
    }
    return best_side;
}

} // namespace qsurf::partition::reference

#endif // QSURF_TESTS_REFERENCE_BISECT_H
