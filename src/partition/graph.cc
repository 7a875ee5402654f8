#include "partition/graph.h"

#include "common/logging.h"

namespace qsurf::partition {

Graph::Graph(int n)
{
    fatalIf(n < 0, "negative vertex count ", n);
    vweight.assign(static_cast<size_t>(n), 1);
    adj.resize(static_cast<size_t>(n));
}

void
Graph::addEdge(int u, int v, int64_t w)
{
    fatalIf(u < 0 || u >= size() || v < 0 || v >= size(),
            "edge (", u, ",", v, ") out of range for ", size(),
            " vertices");
    fatalIf(u == v, "self-loop on vertex ", u);
    fatalIf(w <= 0, "edge weight must be positive, got ", w);

    for (auto &[n2, w2] : adj[static_cast<size_t>(u)]) {
        if (n2 == v) {
            w2 += w;
            for (auto &[n3, w3] : adj[static_cast<size_t>(v)])
                if (n3 == u)
                    w3 += w;
            return;
        }
    }
    adj[static_cast<size_t>(u)].emplace_back(v, w);
    adj[static_cast<size_t>(v)].emplace_back(u, w);
}

void
Graph::setVertexWeight(int v, int64_t w)
{
    fatalIf(v < 0 || v >= size(), "vertex ", v, " out of range");
    fatalIf(w <= 0, "vertex weight must be positive, got ", w);
    vweight[static_cast<size_t>(v)] = w;
}

int64_t
Graph::totalVertexWeight() const
{
    int64_t sum = 0;
    for (int64_t w : vweight)
        sum += w;
    return sum;
}

std::vector<Edge>
Graph::edges() const
{
    std::vector<Edge> out;
    for (int u = 0; u < size(); ++u)
        for (const auto &[v, w] : neighbors(u))
            if (u < v)
                out.push_back(Edge{u, v, w});
    return out;
}

int64_t
Graph::totalEdgeWeight() const
{
    int64_t sum = 0;
    for (const Edge &e : edges())
        sum += e.w;
    return sum;
}

int64_t
cutWeight(const Graph &g, const std::vector<int> &side)
{
    panicIf(static_cast<int>(side.size()) != g.size(),
            "side assignment size mismatch");
    int64_t cut = 0;
    for (int u = 0; u < g.size(); ++u)
        for (const auto &[v, w] : g.neighbors(u))
            if (u < v && side[static_cast<size_t>(u)]
                             != side[static_cast<size_t>(v)])
                cut += w;
    return cut;
}

void
FlatGraph::assign(const Graph &g)
{
    int n = g.size();
    vweight.resize(static_cast<size_t>(n));
    offset.resize(static_cast<size_t>(n) + 1);
    size_t arcs = 0;
    for (int v = 0; v < n; ++v)
        arcs += g.neighbors(v).size();
    to.clear();
    weight.clear();
    to.reserve(arcs);
    weight.reserve(arcs);
    offset[0] = 0;
    for (int v = 0; v < n; ++v) {
        vweight[static_cast<size_t>(v)] = g.vertexWeight(v);
        for (const auto &[u, w] : g.neighbors(v)) {
            to.push_back(u);
            weight.push_back(w);
        }
        offset[static_cast<size_t>(v) + 1] = static_cast<int>(to.size());
    }
}

int64_t
cutWeight(const FlatGraph &g, const std::vector<int> &side)
{
    panicIf(static_cast<int>(side.size()) != g.size(),
            "side assignment size mismatch");
    int64_t cut = 0;
    for (int u = 0; u < g.size(); ++u)
        for (int a = g.offset[static_cast<size_t>(u)];
             a < g.offset[static_cast<size_t>(u) + 1]; ++a) {
            int v = g.to[static_cast<size_t>(a)];
            if (u < v && side[static_cast<size_t>(u)]
                             != side[static_cast<size_t>(v)])
                cut += g.weight[static_cast<size_t>(a)];
        }
    return cut;
}

} // namespace qsurf::partition
