/**
 * @file
 * The analytic lattice-surgery backend ("planar/surgery-model", the
 * Section 8.2 model) and the surgery machine's qubit accounting.
 * The simulated surgery backend ("planar/surgery-sim") is the hybrid
 * scheduler pinned to merge/split chains; it registers with the
 * hybrid backend (hybrid/backend.h).
 */

#ifndef QSURF_SURGERY_BACKEND_H
#define QSURF_SURGERY_BACKEND_H

#include "engine/registry.h"

namespace qsurf::surgery {

/**
 * Register the analytic surgery backend into @p registry (called by
 * engine::registerBuiltinBackends; exposed for private-registry
 * tests).
 */
void registerSurgeryModel(engine::Registry &registry);

/**
 * @return total physical qubits of a surgery machine holding
 * @p logical_qubits patches at distance @p d: planar tiles plus
 * boundary-ancilla strips (@p tile_factor), with the double-defect
 * architectural overhead (factories but no EPR machinery).
 */
double surgeryPhysicalQubits(double logical_qubits, int d,
                             double tile_factor = 1.2);

} // namespace qsurf::surgery

#endif // QSURF_SURGERY_BACKEND_H
