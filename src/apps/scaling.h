/**
 * @file
 * Closed-form application scaling models.
 *
 * Figures 7-9 sweep "size of computation" (1/pL = total logical ops,
 * KQ) over up to 24 decades — far beyond what any circuit can be
 * materialized at.  Following the paper's methodology, the
 * design-space sweeps use closed-form scaling relations derived from
 * the generators in this module (and cross-checked against generated
 * circuits in the test suite): how logical qubit count, ideal
 * parallelism and gate mix evolve with computation size.
 */

#ifndef QSURF_APPS_SCALING_H
#define QSURF_APPS_SCALING_H

#include "apps/apps.h"

namespace qsurf::apps {

/**
 * Scaling relations for one application, all parameterized by the
 * computation size KQ (total logical operations after Clifford+T
 * decomposition; the paper's 1/pL axis).
 */
class AppScaling
{
  public:
    explicit AppScaling(AppKind kind) : kind_(kind) {}

    /** @return application kind. */
    AppKind kind() const { return kind_; }

    /**
     * @return the problem size n at which the generated program
     * executes ~@p kq logical ops (inverse of opsForProblemSize).
     */
    double problemSize(double kq) const;

    /** @return total logical ops for problem size @p n. */
    double opsForProblemSize(double n) const;

    /** @return logical data qubits for a computation of @p kq ops. */
    double logicalQubits(double kq) const;

    /**
     * @return ideal parallelism factor at computation size @p kq.
     * Constant for GSE/SQ/SHA-1; grows with the chain length for
     * the Ising variants (the layer width is ~n/2 sites).
     */
    double parallelism(double kq) const;

    /** @return fraction of ops that are 2-qubit (comm-generating). */
    double twoQubitFraction() const;

    /** @return fraction of ops that consume a magic state. */
    double tFraction() const;

  private:
    AppKind kind_;
};

} // namespace qsurf::apps

#endif // QSURF_APPS_SCALING_H
