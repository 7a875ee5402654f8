#include "planar/planar.h"

#include "common/logging.h"

namespace qsurf::planar {

namespace {

SimdArchOptions
makeArchOptions(const circuit::Circuit &circ,
                const PlanarOptions &opts)
{
    SimdArchOptions arch_opts;
    arch_opts.num_regions = opts.num_regions;
    arch_opts.region_capacity = opts.region_capacity;
    arch_opts.num_qubits = circ.numQubits();
    return arch_opts;
}

} // namespace

PlanarPrepared::PlanarPrepared(const circuit::Circuit &circ,
                               const PlanarOptions &opts)
    : arch(makeArchOptions(circ, opts)),
      sched(scheduleSimd(circ, arch))
{
}

PlanarResult
runPlanar(const circuit::Circuit &circ, const PlanarOptions &opts)
{
    fatalIf(circ.empty(), "cannot run the planar backend on an empty "
                          "circuit");
    PlanarPrepared prepared(circ, opts);
    return runPlanar(circ, opts, prepared);
}

PlanarResult
runPlanar(const circuit::Circuit &circ, const PlanarOptions &opts,
          const PlanarPrepared &prepared)
{
    fatalIf(circ.empty(), "cannot run the planar backend on an empty "
                          "circuit");
    fatalIf(opts.code_distance < 1, "code distance must be >= 1");
    opts.tech.check();

    EprOptions epr_opts;
    epr_opts.window_steps = opts.epr_window_steps;
    epr_opts.bandwidth = opts.epr_bandwidth;
    epr_opts.code_distance = opts.code_distance;
    epr_opts.swap_hop_cycles =
        opts.tech.swapHopCycles(opts.code_distance);
    epr_opts.trace = opts.trace;
    EprResult epr =
        simulateEpr(prepared.sched, prepared.arch, epr_opts);

    PlanarResult out;
    out.schedule_cycles = epr.schedule_cycles;
    out.critical_path_cycles =
        static_cast<uint64_t>(prepared.sched.depth)
        * static_cast<uint64_t>(opts.code_distance);
    out.steps = prepared.sched.steps;
    out.teleports = epr.teleports;
    out.stall_cycles = epr.stall_cycles;
    out.peak_live_eprs = epr.peak_live_eprs;
    out.avg_live_eprs = epr.avg_live_eprs;
    out.teleport_rate = prepared.sched.teleportRate();
    return out;
}

} // namespace qsurf::planar
