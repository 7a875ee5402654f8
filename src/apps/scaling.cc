#include "apps/scaling.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace qsurf::apps {

namespace {

// Per-app constants, derived from the generators with the default
// Rz expansion (40 gates) and Toffoli expansion (15 gates); the
// scaling test suite cross-checks them against generated circuits.

// GSE: m iterations x m terms x ~(3 gates + Rz expansion / term).
constexpr double gse_ops_coeff = 45.0;   // KQ ~ 45 m^2
// SQ: ~64n decomposed ops per Grover round, (pi/4) 2^(n/2) rounds.
constexpr double sq_ops_per_bit = 64.0;
// SHA-1: ~130 decomposed ops per round per word bit, 80 rounds,
// with message length scaling the word width n: KQ ~ 1e4 n^2.
constexpr double sha1_ops_coeff = 1.0e4;
constexpr double sha1_words = 11.0;      // register-file words.
constexpr double sha1_par = 0.9;         // parallelism ~ word width.
// Ising: ~86n decomposed ops per Trotter step, n steps.
constexpr double im_ops_coeff_semi = 94.0;
constexpr double im_ops_coeff_full = 86.0;
// Layer-width coefficients: parallelism = coeff * n.
constexpr double im_par_semi = 0.45;
constexpr double im_par_full = 0.66;

} // namespace

double
AppScaling::opsForProblemSize(double n) const
{
    switch (kind_) {
      case AppKind::GSE:
        return gse_ops_coeff * n * n;
      case AppKind::SQ:
        return sq_ops_per_bit * n * 0.785398 * std::pow(2.0, n / 2.0);
      case AppKind::SHA1:
        return sha1_ops_coeff * n * n;
      case AppKind::IsingSemi:
        return im_ops_coeff_semi * n * n;
      case AppKind::IsingFull:
        return im_ops_coeff_full * n * n;
    }
    panic("unknown AppKind");
}

double
AppScaling::problemSize(double kq) const
{
    fatalIf(kq < 1, "computation size must be >= 1, got ", kq);
    switch (kind_) {
      case AppKind::GSE:
        return std::sqrt(kq / gse_ops_coeff);
      case AppKind::SQ: {
        // Invert kq = 64 n (pi/4) 2^(n/2) by bisection.
        double lo = 1, hi = 512;
        for (int i = 0; i < 200; ++i) {
            double mid = 0.5 * (lo + hi);
            (opsForProblemSize(mid) < kq ? lo : hi) = mid;
        }
        return 0.5 * (lo + hi);
      }
      case AppKind::SHA1:
        return std::sqrt(kq / sha1_ops_coeff);
      case AppKind::IsingSemi:
        return std::sqrt(kq / im_ops_coeff_semi);
      case AppKind::IsingFull:
        return std::sqrt(kq / im_ops_coeff_full);
    }
    panic("unknown AppKind");
}

double
AppScaling::logicalQubits(double kq) const
{
    double n = problemSize(kq);
    switch (kind_) {
      case AppKind::GSE:
        return std::max(2.0, n + 1);          // system + readout.
      case AppKind::SQ:
        return std::max(3.0, 2 * n + 1);      // input + work + flag.
      case AppKind::SHA1:
        return std::max(3.0, sha1_words * n); // register file.
      case AppKind::IsingSemi:
        return std::max(2.0, n + n / 3.0);    // sites + ancilla pool.
      case AppKind::IsingFull:
        return std::max(2.0, n);              // sites only.
    }
    panic("unknown AppKind");
}

double
AppScaling::parallelism(double kq) const
{
    switch (kind_) {
      case AppKind::GSE:
        return 1.2;
      case AppKind::SQ:
        return 1.5;
      case AppKind::SHA1:
        // Bitwise word parallelism: ~29 at the real 32-bit width.
        // The message schedule keeps several words in flight even
        // at narrow widths, so parallelism never drops below ~8.
        return std::max(8.0, sha1_par * problemSize(kq));
      case AppKind::IsingSemi:
        return std::max(1.0, im_par_semi * problemSize(kq));
      case AppKind::IsingFull:
        return std::max(1.0, im_par_full * problemSize(kq));
    }
    panic("unknown AppKind");
}

double
AppScaling::twoQubitFraction() const
{
    switch (kind_) {
      case AppKind::GSE:
        return 0.10; // CNOT pairs around each Rz expansion.
      case AppKind::SQ:
        return 0.40; // Toffoli-dominated oracle (6 CNOTs of 15).
      case AppKind::SHA1:
        return 0.45; // wide CNOT/Toffoli word layers.
      case AppKind::IsingSemi:
        return 0.10;
      case AppKind::IsingFull:
        return 0.05; // Rz expansions dominate the op count.
    }
    panic("unknown AppKind");
}

double
AppScaling::tFraction() const
{
    switch (kind_) {
      case AppKind::GSE:
        return 0.45; // Rz-expansion T gates dominate.
      case AppKind::SQ:
        return 0.30; // 7 of 15 Toffoli-expansion gates.
      case AppKind::SHA1:
        return 0.30;
      case AppKind::IsingSemi:
        return 0.45;
      case AppKind::IsingFull:
        return 0.45;
    }
    panic("unknown AppKind");
}

} // namespace qsurf::apps
