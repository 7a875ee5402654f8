/**
 * @file
 * Locality-based SIMD scheduling (Section 5.4, after [35]).
 *
 * Levelizes the circuit, packs each level's gates into SIMD regions
 * by operation kind (a region broadcasts one operation type per
 * step), and assigns kind-groups to the regions where most of their
 * operands' memory homes live — the mapping-level communication
 * reduction that "reduces unnecessary teleportations between
 * regions".  Operands homed elsewhere teleport to the elected
 * compute region, producing the teleport event stream the EPR
 * pipeline consumes.
 */

#ifndef QSURF_PLANAR_SIMD_SCHEDULE_H
#define QSURF_PLANAR_SIMD_SCHEDULE_H

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "planar/simd_arch.h"

namespace qsurf::planar {

/** One qubit movement between regions at a given logical step. */
struct TeleportEvent
{
    int step = 0;       ///< Logical timestep of first use at dst.
    int src_region = 0; ///< Where the qubit currently lives.
    int dst_region = 0; ///< Where its next gate executes.
    int32_t qubit = 0;  ///< The moved qubit (for tracing).
};

/** Output of the SIMD scheduler. */
struct SimdSchedule
{
    /** Levelized circuit depth, in levels. */
    int depth = 0;

    /** Number of logical timesteps (>= depth). */
    int steps = 0;

    /** Gates executed at each step. */
    std::vector<int> gates_per_step;

    /** All qubit movements, ordered by step. */
    std::vector<TeleportEvent> teleports;

    /** Steps that had at least one teleport into them. */
    int steps_with_teleports = 0;

    /**
     * Sub-steps added because a level had more distinct gate kinds
     * than regions, or a kind-group exceeded region capacity.
     */
    int serialization_steps = 0;

    /** @return teleports per executed gate. */
    double
    teleportRate() const
    {
        uint64_t total = 0;
        for (int g : gates_per_step)
            total += static_cast<uint64_t>(g);
        return total ? static_cast<double>(teleports.size())
                / static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Schedule @p circ (already decomposed to Clifford+T) onto the
 * Multi-SIMD machine @p arch.
 */
SimdSchedule scheduleSimd(const circuit::Circuit &circ,
                          const SimdArch &arch);

} // namespace qsurf::planar

#endif // QSURF_PLANAR_SIMD_SCHEDULE_H
