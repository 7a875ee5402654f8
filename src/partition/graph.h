/**
 * @file
 * Weighted undirected graph for the layout optimizer.
 *
 * Section 6.2 represents each logical qubit as a vertex on a graph of
 * qubit interactions and calls a partitioning library (METIS in the
 * paper; src/partition is our from-scratch equivalent) to separate
 * qubits into balanced halves with small crossing weight.
 */

#ifndef QSURF_PARTITION_GRAPH_H
#define QSURF_PARTITION_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace qsurf::partition {

/** One undirected weighted edge. */
struct Edge
{
    int u = 0;
    int v = 0;
    int64_t w = 1;
};

/** Compressed adjacency representation of a weighted graph. */
class Graph
{
  public:
    Graph() = default;

    /** @param n vertex count; vertices are 0..n-1. */
    explicit Graph(int n);

    /**
     * Add weight to the undirected edge (u, v); parallel additions
     * accumulate.  Self-loops are rejected.
     */
    void addEdge(int u, int v, int64_t w = 1);

    /** Vertex weight (defaults to 1); used for balance constraints. */
    void setVertexWeight(int v, int64_t w);

    /** @return vertex count. */
    int size() const { return static_cast<int>(vweight.size()); }

    /** @return weight of vertex @p v. */
    int64_t vertexWeight(int v) const
    {
        return vweight[static_cast<size_t>(v)];
    }

    /** @return total vertex weight. */
    int64_t totalVertexWeight() const;

    /** @return neighbours of @p v as (vertex, edge weight) pairs. */
    const std::vector<std::pair<int, int64_t>> &
    neighbors(int v) const
    {
        return adj[static_cast<size_t>(v)];
    }

    /** @return all unique edges (u < v). */
    std::vector<Edge> edges() const;

    /** @return sum of all edge weights. */
    int64_t totalEdgeWeight() const;

  private:
    std::vector<int64_t> vweight;
    std::vector<std::vector<std::pair<int, int64_t>>> adj;
};

/**
 * @return total weight of edges crossing the 0/1 assignment @p side
 * (the objective the bisection minimizes).
 */
int64_t cutWeight(const Graph &g, const std::vector<int> &side);

/**
 * A Graph in compressed sparse row form, for the bisection's inner
 * loops: vertex v's arcs are to[i] / weight[i] for i in
 * [offset[v], offset[v + 1]), in the order Graph::neighbors lists
 * them.  Heavy-edge matching and the BFS initial partition read that
 * order, so all code that fills a FlatGraph keeps Graph::addEdge's.
 * The arrays keep their capacity when a FlatGraph is rebuilt, so a
 * reused one allocates only when a graph outgrows all earlier ones.
 */
struct FlatGraph
{
    std::vector<int> offset;      ///< n + 1 arc offsets.
    std::vector<int> to;          ///< Arc heads.
    std::vector<int64_t> weight;  ///< Arc weights.
    std::vector<int64_t> vweight; ///< Vertex weights.

    /** @return vertex count. */
    int size() const { return static_cast<int>(vweight.size()); }

    /** Rebuild as a copy of @p g. */
    void assign(const Graph &g);
};

/** @return the cut weight of @p side on @p g (see above). */
int64_t cutWeight(const FlatGraph &g, const std::vector<int> &side);

} // namespace qsurf::partition

#endif // QSURF_PARTITION_GRAPH_H
