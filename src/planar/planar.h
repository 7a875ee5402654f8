/**
 * @file
 * End-to-end planar (Multi-SIMD) backend: SIMD scheduling plus
 * pipelined EPR distribution, producing the planar side of the
 * paper's comparisons.
 */

#ifndef QSURF_PLANAR_PLANAR_H
#define QSURF_PLANAR_PLANAR_H

#include "circuit/circuit.h"
#include "planar/epr.h"
#include "planar/simd_arch.h"
#include "planar/simd_schedule.h"
#include "qec/technology.h"

namespace qsurf::planar {

/** Configuration of one planar-backend run. */
struct PlanarOptions
{
    /** Code distance d (logical timestep = d cycles). */
    int code_distance = 5;

    /** SIMD region count (machine geometry adapts to the circuit). */
    int num_regions = 4;

    /** Per-region broadcast capacity. */
    int region_capacity = 1024;

    /** EPR lookahead window in steps; <= 0 means prefetch-all. */
    int epr_window_steps = 32;

    /** Concurrent EPR transports the channels sustain; 0 means use
     *  the architecture's channelLinks(). */
    int epr_bandwidth = 0;

    /** Technology for the swap-chain latency model. */
    qec::Technology tech;

    /** Structured-event trace hook; null disables tracing (see
     *  obs/trace.h).  Never changes results. */
    obs::TraceRecorder *trace = nullptr;
};

/** Combined result of one planar-backend run. */
struct PlanarResult
{
    /** Total schedule length in surface-code cycles. */
    uint64_t schedule_cycles = 0;

    /** Dependence-limited lower bound (depth x d). */
    uint64_t critical_path_cycles = 0;

    /** Logical timesteps executed. */
    int steps = 0;

    /** Qubit movements between regions. */
    uint64_t teleports = 0;

    /** Cycles stalled waiting for EPR arrivals. */
    uint64_t stall_cycles = 0;

    /** Peak live EPR pairs (space cost of prefetching). */
    uint64_t peak_live_eprs = 0;

    /** Time-averaged live EPR pairs. */
    double avg_live_eprs = 0;

    /** Teleports per gate. */
    double teleport_rate = 0;

    /** @return schedule / critical-path ratio. */
    double
    ratio() const
    {
        return critical_path_cycles
            ? static_cast<double>(schedule_cycles)
                / static_cast<double>(critical_path_cycles)
            : 0.0;
    }
};

/**
 * The expensive prepare artifact of the planar backend: the SIMD
 * machine geometry and the level-scheduled SimdSchedule (which
 * carries the levelized circuit depth).  Neither depends on the code
 * distance or the EPR knobs, so one PlanarPrepared serves every (d,
 * window, bandwidth) point of a sweep; handing runPlanar() one is
 * bit-identical to building it inline.
 */
struct PlanarPrepared
{
    SimdArch arch;
    SimdSchedule sched;

    PlanarPrepared(const circuit::Circuit &circ,
                   const PlanarOptions &opts);
};

/**
 * Run the planar backend on @p circ (must already be decomposed to
 * Clifford+T).
 */
PlanarResult runPlanar(const circuit::Circuit &circ,
                       const PlanarOptions &opts = {});

/**
 * Same run, reusing @p prepared (built for this circuit with the
 * same num_regions / region_capacity);
 * bit-identical to the inline path.
 */
PlanarResult runPlanar(const circuit::Circuit &circ,
                       const PlanarOptions &opts,
                       const PlanarPrepared &prepared);

} // namespace qsurf::planar

#endif // QSURF_PLANAR_PLANAR_H
