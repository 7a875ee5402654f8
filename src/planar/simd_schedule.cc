#include "planar/simd_schedule.h"

#include <algorithm>
#include <vector>

#include "circuit/dag.h"
#include "circuit/gates.h"
#include "circuit/schedule.h"
#include "common/logging.h"

namespace qsurf::planar {

namespace {

using circuit::GateKind;

/** Gates of one kind scheduled together in one region. */
struct KindGroup
{
    GateKind kind;
    std::vector<int> gate_indices;
};

} // namespace

SimdSchedule
scheduleSimd(const circuit::Circuit &circ, const SimdArch &arch)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");

    circuit::Dag dag(circ);
    circuit::LevelSchedule levels = circuit::levelize(dag);

    // Distributed memory (Figure 3a): every qubit lives in a fixed
    // home memory region, spread round-robin.  Operating on a qubit
    // teleports it to the elected compute region for the step and
    // back to its memory afterwards; only the outbound trip is
    // counted as a TeleportEvent (the return rides the same EPR
    // budget and is folded into the event).
    std::vector<int> home(static_cast<size_t>(circ.numQubits()));
    for (int q = 0; q < circ.numQubits(); ++q)
        home[static_cast<size_t>(q)] = q % arch.numRegions();

    SimdSchedule out;
    out.depth = levels.depth;
    int k = arch.numRegions();

    // Bucket gates by level once (gate order stays ascending), so
    // each level touches only its own gates: a per-level rescan of
    // the whole circuit would be quadratic for deep serial circuits.
    std::vector<std::vector<int>> level_gates(
        static_cast<size_t>(levels.depth));
    for (int i = 0; i < circ.size(); ++i)
        level_gates[static_cast<size_t>(
                        levels.asap[static_cast<size_t>(i)])]
            .push_back(i);

    // Per-kind group slots, reused across levels, in kind enum
    // order.
    std::vector<KindGroup> kind_groups(circuit::num_gate_kinds);
    std::vector<KindGroup *> order;
    order.reserve(kind_groups.size());
    std::vector<int> votes(static_cast<size_t>(k), 0);

    for (int level = 0; level < levels.depth; ++level) {
        // Collect this level's gates by kind.
        for (KindGroup &grp : kind_groups)
            grp.gate_indices.clear();
        for (int i : level_gates[static_cast<size_t>(level)]) {
            auto kind_index = static_cast<size_t>(circ.gate(i).kind);
            kind_groups[kind_index].kind = circ.gate(i).kind;
            kind_groups[kind_index].gate_indices.push_back(i);
        }

        // Largest groups pick their region first; the stable sort
        // breaks size ties in kind order, deterministically.
        order.clear();
        for (KindGroup &grp : kind_groups)
            if (!grp.gate_indices.empty())
                order.push_back(&grp);
        if (order.empty())
            continue;
        std::stable_sort(order.begin(), order.end(),
                         [](const KindGroup *a, const KindGroup *b) {
                             return a->gate_indices.size()
                                 > b->gate_indices.size();
                         });

        // A level with more kinds than regions serializes into
        // ceil(kinds / k) sub-steps; capacity splits add more.
        int sub_steps = (static_cast<int>(order.size()) + k - 1) / k;
        int gates_this_level = 0;

        for (KindGroup *grp : order) {
            // Locality-based assignment: the region already holding
            // the most operand qubits of this group wins.
            std::fill(votes.begin(), votes.end(), 0);
            for (int gi : grp->gate_indices)
                for (int32_t q : circ.gate(gi).operands())
                    ++votes[static_cast<size_t>(
                        home[static_cast<size_t>(q)])];
            int region = static_cast<int>(
                std::max_element(votes.begin(), votes.end())
                - votes.begin());

            // Capacity check: oversized groups serialize.
            int operands = 0;
            for (int gi : grp->gate_indices)
                operands += circ.gate(gi).arity();
            if (operands > arch.capacity())
                sub_steps = std::max(
                    sub_steps,
                    (operands + arch.capacity() - 1) / arch.capacity());

            // Emit teleports for operands whose memory home is not
            // the elected compute region.
            bool teleported = false;
            for (int gi : grp->gate_indices) {
                for (int32_t q : circ.gate(gi).operands()) {
                    int cur = home[static_cast<size_t>(q)];
                    if (cur != region) {
                        out.teleports.push_back(TeleportEvent{
                            out.steps, cur, region, q});
                        teleported = true;
                    }
                }
                ++gates_this_level;
            }
            if (teleported)
                ++out.steps_with_teleports;
        }

        out.steps += sub_steps;
        out.serialization_steps += sub_steps - 1;
        out.gates_per_step.push_back(gates_this_level);
        for (int s = 1; s < sub_steps; ++s)
            out.gates_per_step.push_back(0);
    }

    return out;
}

} // namespace qsurf::planar
