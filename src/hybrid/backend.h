/**
 * @file
 * The engine backends on the patch machine, both run by the hybrid
 * scheduler and sharing one cached machine per grid point:
 *
 *  - "hybrid/mixed-sim": braid tracks, EPR-teleport channels and
 *    merge/split chains arbitrated per operation
 *    (RunConfig::hybrid_arbiter);
 *  - "planar/surgery-sim": the lattice-surgery chain simulation of
 *    Section 8.2, the scheduler pinned to ArbiterKind::ForceSurgery.
 *
 * They plug into the engine registry so the toolflow, the sweep
 * driver and the figure benches drive them exactly like the other
 * backends.
 */

#ifndef QSURF_HYBRID_BACKEND_H
#define QSURF_HYBRID_BACKEND_H

#include "engine/registry.h"

namespace qsurf::hybrid {

/**
 * Register the two patch-machine simulators into @p registry (called
 * by engine::registerBuiltinBackends; exposed for private-registry
 * tests).
 */
void registerHybridBackends(engine::Registry &registry);

} // namespace qsurf::hybrid

#endif // QSURF_HYBRID_BACKEND_H
