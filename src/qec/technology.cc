#include "qec/technology.h"

#include "common/logging.h"

namespace qsurf::qec {

double
Technology::tSingleQubitNs() const
{
    return t_two_qubit_ns / single_qubit_speedup;
}

double
Technology::surfaceCycleNs() const
{
    return 4 * t_two_qubit_ns + 2 * tSingleQubitNs() + t_measure_ns;
}

double
Technology::swapHopCycles(int d) const
{
    double swap_ns = 3.0 * t_two_qubit_ns;
    return 2.0 * d * swap_ns / surfaceCycleNs();
}

void
Technology::check() const
{
    fatalIf(p_physical <= 0 || p_physical >= 1,
            "physical error rate must be in (0,1), got ", p_physical);
    fatalIf(t_two_qubit_ns <= 0, "two-qubit gate time must be positive");
    fatalIf(single_qubit_speedup <= 0, "speedup must be positive");
    fatalIf(t_measure_ns <= 0, "measurement time must be positive");
}

namespace tech_points {

Technology
current()
{
    Technology t;
    t.p_physical = 1e-3;
    return t;
}

Technology
futureOptimistic()
{
    Technology t;
    t.p_physical = 1e-8;
    return t;
}

} // namespace tech_points

} // namespace qsurf::qec
