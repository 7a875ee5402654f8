#include "surgery/backend.h"

#include "qec/code.h"

namespace qsurf::surgery {

double
surgeryPhysicalQubits(double logical_qubits, int d,
                      double tile_factor)
{
    // Planar patches plus boundary-ancilla strips, with the
    // double-defect architectural overhead (factory patches, no EPR
    // buffers/channels) — the same accounting as
    // estimate::estimateSurgery.
    return logical_qubits
        * qec::spaceOverheadFactor(qec::CodeKind::DoubleDefect)
        * tile_factor
        * static_cast<double>(qec::planarTileQubits(d));
}

} // namespace qsurf::surgery
