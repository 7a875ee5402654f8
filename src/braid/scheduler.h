/**
 * @file
 * Braid scheduling via message passing (Sections 6.1 and 6.3).
 *
 * The 3-D space-time braid volume is overconstrained to a 2-D
 * circuit-switched routing problem: each 2-qubit logical operation
 * becomes two braid segments (Figure 5's part 1 / part 2) that claim
 * an entire route atomically, hold it for d stabilization cycles and
 * release it; each T gate becomes one braid to a magic-state factory
 * tile.  A dependence-driven ready queue issues braids greedily each
 * cycle; the priority Policies 0-6 of Section 6.3 order the queue.
 *
 * The simulation discovers a static schedule that is replayed at
 * execution time, so the routing heuristics need not be deadlock- or
 * livelock-free (Section 6.1): a braid that cannot be placed simply
 * retries, adapts its route (XY -> YX -> breadth-first detour) and is
 * eventually dropped/re-injected at the back of the queue.
 */

#ifndef QSURF_BRAID_SCHEDULER_H
#define QSURF_BRAID_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "braid/tiled_arch.h"
#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/interaction.h"
#include "obs/trace.h"

namespace qsurf::braid {

/** The braid prioritization policies of Section 6.3. */
enum class Policy : int
{
    ProgramOrder = 0, ///< No optimization; events in program order.
    Interleave = 1,   ///< Events interleave; ops in program order.
    Layout = 2,       ///< Interleave + interaction-aware layout.
    Criticality = 3,  ///< + sort by highest criticality first.
    Length = 4,       ///< + sort by longest braid first.
    Type = 5,         ///< + sort closing braids before opening.
    Combined = 6,     ///< All of the above (see Section 6.3).
};

/** All policies in order, for sweeps. */
inline constexpr int num_policies = 7;

/** @return "Policy N". */
const char *policyName(Policy policy);

/** Simulation knobs. */
struct BraidOptions
{
    /** Code distance d: braid stabilization time in cycles. */
    int code_distance = 5;

    /** Data tiles per magic-state factory tile. */
    int tiles_per_factory = 8;

    /** Cycles an op waits before trying the YX route. */
    int adapt_timeout = 4;

    /** Cycles before falling back to the adaptive BFS detour. */
    int bfs_timeout = 8;

    /** Cycles before the op is dropped and re-injected. */
    int drop_timeout = 16;

    /** Cap on failed placement attempts per cycle. */
    int max_attempts_per_cycle = 64;

    /**
     * Cycles a factory needs to distill one magic state; 0 means
     * production is never the bottleneck (Section 4.3's factories
     * sized off the critical path).  Non-zero values expose the
     * space-vs-time factory tradeoff as an ablation.
     */
    int magic_production_cycles = 0;

    /** Distilled states a factory can buffer. */
    int magic_buffer_capacity = 2;

    /** Safety bound on simulated cycles. */
    uint64_t max_cycles = 100'000'000;

    /**
     * Event-driven time skipping: when a placement pass claims
     * nothing, jump straight to the next retirement / escalation
     * threshold / factory replenishment instead of ticking one cycle
     * at a time, and replay provably repeated failed attempts from
     * their memos (engine::FailMemos).  Results are bit-identical
     * either way; disabling reproduces the original loop for A/B
     * perf measurement.
     */
    bool fast_forward = true;

    /** Layout RNG seed. */
    uint64_t seed = 1;

    /** Fabric damage recipe (see fabric/defect.h).  The default is
     *  the perfect mesh every run assumed before defect awareness. */
    fabric::DefectParams defects;

    /** Structured-event trace hook; null disables tracing (see
     *  obs/trace.h).  Never changes results. */
    obs::TraceRecorder *trace = nullptr;
};

/** Results of one braid-scheduling run (one Figure 6 bar). */
struct BraidResult
{
    /** Total cycles to complete the program. */
    uint64_t schedule_cycles = 0;

    /** Dependence-limited lower bound (unbounded resources). */
    uint64_t critical_path_cycles = 0;

    /** Average fraction of mesh links busy (Figure 6 red curve). */
    double mesh_utilization = 0;

    /** Braid segments successfully placed. */
    uint64_t braids_placed = 0;

    /** Failed placement attempts (route conflicts). */
    uint64_t placement_failures = 0;

    /** Placements that needed the YX fallback. */
    uint64_t yx_fallbacks = 0;

    /** Placements that needed the BFS detour. */
    uint64_t bfs_detours = 0;

    /** Drop/re-inject events. */
    uint64_t drops = 0;

    /** T placements refused because no factory had a state ready. */
    uint64_t magic_starvations = 0;

    /** Interaction-weighted layout cost (Section 6.2 objective). */
    double layout_cost = 0;

    /** Cycles elided by the event-driven fast-forward. */
    uint64_t ff_skipped_cycles = 0;

    /** Fraction of fabric tiles dead (0 on a perfect fabric). */
    double defect_dead_fraction = 0;

    /** Mean per-tile error-rate multiplier over live tiles (1 on a
     *  perfect fabric). */
    double defect_avg_multiplier = 1;

    /** Permanently defective mesh routers. */
    uint64_t defective_nodes = 0;

    /** Permanently defective mesh links. */
    uint64_t defective_links = 0;

    /** @return schedule length / critical path (Figure 6 blue bar). */
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
 * The expensive prepare artifact of braid scheduling: everything the
 * simulator derives from the circuit and the seeded layout alone —
 * the dependence DAG, the interaction graph, the tiled machine and
 * the per-gate criticality.  Immutable once built and shared across
 * concurrent runs; scheduleBraids() handed one skips straight to the
 * cycle loop, and building it inline is bit-identical.
 */
struct BraidPrepared
{
    circuit::Dag dag;
    circuit::InteractionGraph graph;
    TiledArch arch;
    std::vector<int> crit;

    BraidPrepared(const circuit::Circuit &circ,
                  const TiledArchOptions &arch_opts);
};

/**
 * @return the TiledArchOptions (@p policy, @p opts) resolve to — the
 * layout inputs a cached BraidPrepared must have been built with
 * (Policies 2+ use the interaction-aware layout).
 */
TiledArchOptions braidArchOptions(Policy policy,
                                  const BraidOptions &opts);

/**
 * Dependence-limited critical path of @p circ in braid cycles, using
 * the same latency model as the simulator: 1-qubit ops d, T gates
 * d+1 (factory braid), 2-qubit ops 2d+2 (two braid segments).
 * @p dag is @p circ's dependence DAG (e.g. BraidPrepared::dag),
 * built once and shared.
 */
uint64_t braidCriticalPath(const circuit::Circuit &circ,
                           const circuit::Dag &dag, int d);

/**
 * Simulate braid scheduling of @p circ (which must already be
 * decomposed to Clifford+T) under @p policy.
 */
BraidResult scheduleBraids(const circuit::Circuit &circ, Policy policy,
                           const BraidOptions &opts = {});

/**
 * Same simulation, reusing @p prepared (built for this circuit with
 * braidArchOptions(policy, opts)); bit-identical to the inline path.
 */
BraidResult scheduleBraids(const circuit::Circuit &circ, Policy policy,
                           const BraidOptions &opts,
                           const BraidPrepared &prepared);

} // namespace qsurf::braid

#endif // QSURF_BRAID_SCHEDULER_H
