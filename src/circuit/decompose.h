/**
 * @file
 * Decomposition of non-native gates to the fault-tolerant Clifford+T
 * basis, run before backend mapping (the "Module Flattening /
 * Logical Op. Estimate" stage of Figure 4).
 *
 * - Toffoli  -> the standard 15-gate Clifford+T network (7 T gates).
 * - Swap     -> 3 CNOTs.
 * - Rz(θ)    -> a Solovay-Kitaev/gridsynth-style H/T string whose
 *               length is a model parameter (default 40 gates for
 *               1e-10 precision; see DecomposeConfig).
 */

#ifndef QSURF_CIRCUIT_DECOMPOSE_H
#define QSURF_CIRCUIT_DECOMPOSE_H

#include "circuit/circuit.h"
#include "common/fields.h"

namespace qsurf::circuit {

/** Tunables for gate decomposition. */
struct DecomposeConfig
{
    /**
     * Number of gates in the Clifford+T approximation of one Rz.
     * Gridsynth-style synthesis needs ~3 log2(1/eps) T gates plus
     * interleaved H/S; 40 total corresponds to eps ~ 1e-4, adequate
     * for the workload studies here.
     */
    int rz_sequence_length = 40;

    /** Fraction of an Rz sequence that is T/Tdag (rest is H/S). */
    double rz_t_fraction = 0.5;

    /** Expand Swap into 3 CNOTs (backends treat Swap natively if not). */
    bool expand_swap = true;
};

/** The field list of DecomposeConfig (see common/fields.h). */
template <FieldsOf<DecomposeConfig> T, typename Visit>
void
forEachField(T &d, Visit &&visit)
{
    auto &[rz_sequence_length, rz_t_fraction, expand_swap] = d;
    visit("rz_sequence_length", rz_sequence_length);
    visit("rz_t_fraction", rz_t_fraction);
    visit("expand_swap", expand_swap);
}

/**
 * @return a new circuit in which every Toffoli, Rz (and optionally
 * Swap) has been replaced by its Clifford+T expansion.  Gate order of
 * untouched gates is preserved.
 */
Circuit decompose(const Circuit &circ, const DecomposeConfig &cfg = {});

/**
 * @return exact number of gates decompose() will produce, without
 * materializing the result (used by the resource estimator on large
 * inputs).
 */
uint64_t decomposedSize(const Circuit &circ, const DecomposeConfig &cfg = {});

} // namespace qsurf::circuit

#endif // QSURF_CIRCUIT_DECOMPOSE_H
