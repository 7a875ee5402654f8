/**
 * @file
 * Surface-code sizing: the logical/physical error-rate gap model of
 * Section 2.2 and the planar vs double-defect tile footprints of
 * Section 2.3.1 (Figure 1).
 */

#ifndef QSURF_QEC_CODE_H
#define QSURF_QEC_CODE_H

#include <cstdint>
#include <string_view>

#include "qec/technology.h"

namespace qsurf::qec {

/** The two surface-code flavors compared throughout the paper. */
enum class CodeKind : uint8_t
{
    Planar,       ///< One lattice per logical qubit (Fig 1a).
    DoubleDefect, ///< Defect pairs in a monolithic lattice (Fig 1b).
};

/** @return "planar" or "double-defect". */
const char *codeKindName(CodeKind kind);

/** @return the kind codeKindName() names @p name; fatal()s on any
 *  other name. */
CodeKind parseCodeKind(std::string_view name);

/**
 * Surface-code strength model.
 *
 * Per-logical-op error at distance d:
 *     pl(d) = A * (pP / pth)^((d+1)/2)
 * with threshold pth = 1e-2 and A = 0.03 (Fowler's standard fit,
 * Section 2.3 [27]).  An application executing KQ logical operations
 * needs KQ * pl(d) <= 1/2 for the paper's 50% success target.
 */
class CodeModel
{
  public:
    /** Surface-code threshold error rate. */
    static constexpr double threshold = 1e-2;

    /** Prefactor of the logical-error fit. */
    static constexpr double scale_a = 0.03;

    /** Smallest code distance considered (d=3 detects one error). */
    static constexpr int min_distance = 3;

    /** Upper bound on the search; beyond this we report failure. */
    static constexpr int max_distance = 201;

    /** @return per-op logical error rate at distance @p d. */
    static double logicalErrorPerOp(double p_physical, int d);

    /**
     * Pick the smallest odd distance d so that a computation of
     * @p logical_ops operations succeeds with probability >= 1/2.
     *
     * @throws FatalError when p_physical is at/above threshold or no
     *         distance up to max_distance suffices.
     */
    static int chooseDistance(double p_physical, double logical_ops);

    /** @return pL target (error per op) for @p logical_ops. */
    static double targetLogicalError(double logical_ops);
};

/**
 * Physical qubits in one planar logical tile at distance @p d:
 * a (2d-1) x (2d-1) lattice of interleaved data and syndrome qubits
 * (Fig 1a: d^2 data + (d^2 - 1) ancilla).
 */
uint64_t planarTileQubits(int d);

/**
 * Physical qubits in one double-defect logical tile: two defect
 * regions plus the surrounding monolithic lattice, twice the planar
 * footprint (Fig 1b; the paper: "planar encoding uses fewer physical
 * qubits for the same encoding strength").
 */
uint64_t doubleDefectTileQubits(int d);

/** @return per-tile footprint for @p kind. */
uint64_t tileQubits(CodeKind kind, int d);

/**
 * Architectural space overhead multiplier on top of data tiles:
 * ancilla factories at the 1:4 factory:data ratio of Section 4.3,
 * plus, for planar, teleport buffers and EPR-channel dummy qubits
 * (Section 4.4).
 */
double spaceOverheadFactor(CodeKind kind);

} // namespace qsurf::qec

#endif // QSURF_QEC_CODE_H
