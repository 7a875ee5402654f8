/**
 * @file
 * The lattice-surgery engine backends: the cycle-accurate chain
 * simulator ("planar/surgery-sim") and the analytic Section 8.2
 * model ("planar/surgery-model"), both plugging into the engine
 * registry so the toolflow, the sweep driver and the figure benches
 * drive surgery exactly like the braid and Multi-SIMD backends.
 */

#ifndef QSURF_SURGERY_BACKEND_H
#define QSURF_SURGERY_BACKEND_H

#include <memory>
#include <string>

#include "engine/registry.h"
#include "surgery/patch_arch.h"

namespace qsurf::surgery {

/**
 * Register the surgery backends into @p registry (called by
 * engine::registerBuiltinBackends; exposed for private-registry
 * tests).
 */
void registerSurgeryBackends(engine::Registry &registry);

/**
 * The cacheable patch-machine artifact.  The surgery-sim and hybrid
 * backends derive identical PatchArchOptions from a WorkItem, so
 * they share this one type (and one cache entry per key): a sweep
 * running both backends over the same grid point builds the machine
 * once.
 */
class PatchArtifact final : public engine::PreparedArtifact
{
  public:
    PatchArtifact(const circuit::Circuit &circ,
                  const PatchArchOptions &opts)
        : prep(circ, opts)
    {
    }

    PatchPrepared prep;
};

/**
 * @return the shared artifact key of @p item's patch machine —
 * circuit fingerprint, seed, layout flavor (optimized = policy >=
 * 2), objective, lane spacing, factory ratio and fabric damage; not
 * the distance, which the machine never reads.  The surgery and
 * hybrid backends both return exactly this from artifactKey().
 */
std::string patchArtifactKey(const engine::WorkItem &item);

/** Build the PatchArtifact patchArtifactKey(@p item) names. */
std::shared_ptr<const engine::PreparedArtifact>
buildPatchArtifact(const engine::WorkItem &item);

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
