#include "qec/code.h"

#include <cmath>

#include "common/logging.h"

namespace qsurf::qec {

const char *
codeKindName(CodeKind kind)
{
    return kind == CodeKind::Planar ? "planar" : "double-defect";
}

CodeKind
parseCodeKind(std::string_view name)
{
    for (CodeKind kind : {CodeKind::Planar, CodeKind::DoubleDefect})
        if (name == codeKindName(kind))
            return kind;
    fatal("unknown code kind '", name, "'");
}

double
CodeModel::logicalErrorPerOp(double p_physical, int d)
{
    fatalIf(d < 1, "code distance must be >= 1, got ", d);
    double exponent = (d + 1) / 2.0;
    return scale_a * std::pow(p_physical / threshold, exponent);
}

double
CodeModel::targetLogicalError(double logical_ops)
{
    fatalIf(logical_ops < 1, "computation size must be >= 1, got ",
            logical_ops);
    return 0.5 / logical_ops;
}

int
CodeModel::chooseDistance(double p_physical, double logical_ops)
{
    fatalIf(p_physical >= threshold,
            "physical error rate ", p_physical,
            " is at or above the surface-code threshold ", threshold,
            "; no code distance can help");
    double target = targetLogicalError(logical_ops);
    for (int d = min_distance; d <= max_distance; d += 2)
        if (logicalErrorPerOp(p_physical, d) <= target)
            return d;
    fatal("no code distance up to ", max_distance,
          " reaches per-op error ", target, " at pP=", p_physical);
}

uint64_t
planarTileQubits(int d)
{
    auto side = static_cast<uint64_t>(2 * d - 1);
    return side * side;
}

uint64_t
doubleDefectTileQubits(int d)
{
    return 2 * planarTileQubits(d);
}

uint64_t
tileQubits(CodeKind kind, int d)
{
    return kind == CodeKind::Planar ? planarTileQubits(d)
                                    : doubleDefectTileQubits(d);
}

double
spaceOverheadFactor(CodeKind kind)
{
    // 1:4 ancilla-factory:data ratio (Section 4.3) for both codes.
    double factories = 0.25;
    if (kind == CodeKind::Planar) {
        // Teleport buffers around each region plus swap-channel dummy
        // qubits (Section 4.4) add roughly another quarter.
        return 1.0 + factories + 0.25;
    }
    // Braid channels between tiles are part of the monolithic lattice
    // and already counted in the double-defect tile footprint.
    return 1.0 + factories;
}

} // namespace qsurf::qec
