/**
 * @file
 * The surgery machine's qubit accounting.  The analytic
 * lattice-surgery backend ("planar/surgery-model", the Section 8.2
 * model) is one of the engine's model backends (engine/builtin.cc);
 * the simulated one ("planar/surgery-sim") is the hybrid scheduler
 * pinned to merge/split chains and registers with the hybrid backend
 * (hybrid/backend.h).
 */

#ifndef QSURF_SURGERY_BACKEND_H
#define QSURF_SURGERY_BACKEND_H

namespace qsurf::surgery {

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
