/**
 * @file
 * Superconducting technology parameters (Section 2.4) — the single
 * source of truth for physical timing and error-rate assumptions.
 *
 * Defaults follow the paper's stated assumptions: 2-qubit gates at
 * ~10 MHz, single-qubit operations 10x faster (Figure 7 caption),
 * measurement on the order of a gate.
 */

#ifndef QSURF_QEC_TECHNOLOGY_H
#define QSURF_QEC_TECHNOLOGY_H

namespace qsurf::qec {

/** Physical device characteristics fed into the backend (Figure 4). */
struct Technology
{
    /** Physical error rate pP per operation. */
    double p_physical = 1e-5;

    /** Two-qubit gate duration in nanoseconds (~10 MHz). */
    double t_two_qubit_ns = 100.0;

    /** Single-qubit gates are this factor faster (Fig 7: 10x). */
    double single_qubit_speedup = 10.0;

    /** Measurement duration in nanoseconds. */
    double t_measure_ns = 100.0;

    /** @return single-qubit gate duration in nanoseconds. */
    double tSingleQubitNs() const;

    /**
     * @return one surface-code error-correction cycle in nanoseconds.
     *
     * A cycle interacts each ancilla with its four data neighbours
     * (4 two-qubit gates), applies basis changes (2 single-qubit
     * steps) and measures the ancilla.
     */
    double surfaceCycleNs() const;

    /**
     * @return physical swap-chain latency across one tile of code
     * distance @p d, in surface-code cycles.  A swap is 3 CNOTs and
     * a tile is ~2d physical sites wide, so crossing one tile costs
     * 2d * 3 * t2q, expressed in cycles.
     */
    double swapHopCycles(int d) const;

    /** Validate ranges; fatal() on nonsense (negative times etc.). */
    void check() const;
};

/** Paper-named technology design points for the sensitivity sweep. */
namespace tech_points {

/** Current technology, pP = 1e-3 (Section 7.3 [70, 71]). */
Technology current();

/** Future optimistic, pP = 1e-8 (Figures 7 and 8). */
Technology futureOptimistic();

} // namespace tech_points

} // namespace qsurf::qec

#endif // QSURF_QEC_TECHNOLOGY_H
