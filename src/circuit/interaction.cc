#include "circuit/interaction.h"

#include <algorithm>

namespace qsurf::circuit {

uint64_t
InteractionGraph::degree(int32_t q) const
{
    uint64_t sum = 0;
    for (const auto &[pair, w] : edges)
        if (pair.first == q || pair.second == q)
            sum += w;
    return sum;
}

uint64_t
InteractionGraph::totalWeight() const
{
    uint64_t sum = 0;
    for (const auto &[pair, w] : edges)
        sum += w;
    return sum;
}

InteractionGraph
interactionGraph(const Circuit &circ)
{
    InteractionGraph g;
    g.num_qubits = circ.numQubits();
    auto bump = [&g](int32_t a, int32_t b) {
        auto key = std::minmax(a, b);
        ++g.edges[{key.first, key.second}];
    };
    for (const Gate &gate : circ) {
        auto ops = gate.operands();
        for (size_t i = 0; i < ops.size(); ++i)
            for (size_t j = i + 1; j < ops.size(); ++j)
                bump(ops[i], ops[j]);
    }
    return g;
}

partition::Graph
toPartitionGraph(const InteractionGraph &ig)
{
    partition::Graph g(ig.num_qubits);
    for (const auto &[pair, w] : ig.edges)
        g.addEdge(pair.first, pair.second, static_cast<int64_t>(w));
    return g;
}

} // namespace qsurf::circuit
