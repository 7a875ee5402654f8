/**
 * @file
 * Qubit-interaction graph extraction.
 *
 * Section 6.2 maps each logical qubit to a vertex and weights each
 * edge by how often the two qubits interact (2-qubit gates).  The
 * partitioner consumes this graph to produce the interaction-aware
 * tile layout.
 */

#ifndef QSURF_CIRCUIT_INTERACTION_H
#define QSURF_CIRCUIT_INTERACTION_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "partition/graph.h"

namespace qsurf::circuit {

/** Sparse weighted undirected qubit-interaction graph. */
struct InteractionGraph
{
    int num_qubits = 0;
    /** (lo, hi) qubit pair -> number of 2-qubit gates between them. */
    std::map<std::pair<int32_t, int32_t>, uint64_t> edges;

    /** @return total interaction weight incident to @p q. */
    uint64_t degree(int32_t q) const;

    /** @return total weight across all edges. */
    uint64_t totalWeight() const;
};

/**
 * Build the interaction graph of @p circ.  Toffolis contribute weight
 * to all three operand pairs (they decompose into CNOTs among them).
 */
InteractionGraph interactionGraph(const Circuit &circ);

/**
 * @return @p ig as a partitioner graph: one vertex per qubit and one
 * edge per interacting pair, weighted by its gate count — the input
 * of the interaction-aware layout (Section 6.2).
 */
partition::Graph toPartitionGraph(const InteractionGraph &ig);

} // namespace qsurf::circuit

#endif // QSURF_CIRCUIT_INTERACTION_H
