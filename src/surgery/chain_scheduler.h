/**
 * @file
 * Lattice-surgery chain scheduling (Section 8.2, simulated).
 *
 * Each 2-qubit logical operation becomes one merge/split chain: the
 * corridor of patches between the two operands is claimed
 * exclusively, the boundary syndromes stabilize for d cycles per
 * merge/split round, and the chain releases when the split
 * completes.  A chain across L patch tiles therefore holds its
 * whole corridor for ~rounds_per_hop * d * L cycles — unlike a
 * braid, whose route is claimed for d cycles regardless of length,
 * and unlike a teleport, whose EPR halves travel ahead of need.
 * T gates merge with a magic-state factory patch through the same
 * fabric.
 *
 * The simulator reuses the engine's deterministic primitives — a
 * criticality-ordered ReadyQueue, the ExpiryQueue, the
 * ChainClaimer's corridor-route escalation and LiveIntervalProfile
 * accounting — so runs are bit-identical for a fixed (circuit,
 * options) at any sweep thread count.
 */

#ifndef QSURF_SURGERY_CHAIN_SCHEDULER_H
#define QSURF_SURGERY_CHAIN_SCHEDULER_H

#include <cstdint>

#include "circuit/circuit.h"
#include "obs/trace.h"
#include "surgery/patch_arch.h"

namespace qsurf::surgery {

/** Simulation knobs. */
struct SurgeryOptions
{
    /** Code distance d: cycles per merge/split stabilization round. */
    int code_distance = 5;

    /** Merge + split rounds per chain tile (2 = one merge + one
     *  split), matching estimate::SurgeryConstants. */
    double rounds_per_hop = 2.0;

    /** Data patches per magic-state factory patch. */
    int patches_per_factory = 8;

    /** Use the interaction-aware layout. */
    bool optimized_layout = true;

    /** Patch-layout objective (refines the bisection seed against
     *  the corridor metric; CorridorLanes also reserves dedicated
     *  ancilla lanes in the mesh). */
    partition::LayoutObjective layout_objective =
        partition::LayoutObjective::BraidManhattan;

    /** Patch rows/columns between dedicated ancilla lanes. */
    int lane_spacing = 4;

    /** Cycles an op waits before trying the transposed corridor. */
    int adapt_timeout = 4;

    /** Cycles before falling back to the adaptive BFS corridor. */
    int bfs_timeout = 8;

    /** Cycles before the op is dropped and re-injected. */
    int drop_timeout = 16;

    /** Cap on failed placement attempts per cycle. */
    int max_attempts_per_cycle = 64;

    /**
     * Cycles a factory patch needs to distill one magic state; 0
     * means production is never the bottleneck (Section 4.3's
     * factories sized off the critical path).  Non-zero values make
     * T-gate merges wait on supply, exposing the same factory
     * space-vs-time tradeoff as the braid backend.
     */
    int magic_production_cycles = 0;

    /** Distilled states a factory patch can buffer. */
    int magic_buffer_capacity = 2;

    /** Safety bound on simulated cycles. */
    uint64_t max_cycles = 100'000'000;

    /**
     * Event-driven time skipping: when a placement pass claims
     * nothing, jump straight to the next chain retirement or
     * escalation threshold instead of ticking one cycle at a time,
     * and replay provably repeated failed attempts from their memos
     * (engine::FailMemos).  Results are bit-identical either way;
     * disabling reproduces the original loop for A/B perf
     * measurement.
     */
    bool fast_forward = true;

    /**
     * Use the pre-optimization claim paths (double-walk claims,
     * per-detour BFS allocation); identical results, original cost.
     * Together with fast_forward = false this reproduces the
     * pre-change simulator for honest baseline measurement.
     */
    bool legacy_paths = false;

    /** Layout RNG seed. */
    uint64_t seed = 1;

    /** Fabric damage recipe (see fabric/defect.h).  The default is
     *  the perfect mesh every run assumed before defect awareness. */
    fabric::DefectParams defects;

    /** Structured-event trace hook; null disables tracing (see
     *  obs/trace.h).  Never changes results. */
    obs::TraceRecorder *trace = nullptr;
};

/** Results of one chain-scheduling run. */
struct SurgeryResult
{
    /** Total cycles to complete the program. */
    uint64_t schedule_cycles = 0;

    /** Dependence-limited lower bound (ideal corridors, no
     *  contention). */
    uint64_t critical_path_cycles = 0;

    /** Average fraction of mesh links busy. */
    double mesh_utilization = 0;

    /** Merge/split chains successfully placed. */
    uint64_t chains_placed = 0;

    /** Failed placement attempts (corridor conflicts). */
    uint64_t placement_failures = 0;

    /** Placements that needed the transposed corridor. */
    uint64_t transpose_fallbacks = 0;

    /** Placements that needed the BFS corridor detour. */
    uint64_t bfs_detours = 0;

    /** Drop/re-inject events. */
    uint64_t drops = 0;

    /** T placements refused because no factory had a state ready. */
    uint64_t magic_starvations = 0;

    /** Sum of chain lengths, in patch tiles. */
    uint64_t total_chain_tiles = 0;

    /** Longest chain placed, in patch tiles. */
    uint64_t max_chain_tiles = 0;

    /** Peak simultaneously-live chains. */
    uint64_t peak_live_chains = 0;

    /** Time-averaged live chains. */
    double avg_live_chains = 0;

    /** Interaction-weighted layout cost (Manhattan tiles). */
    double layout_cost = 0;

    /** Interaction-weighted corridor cost (around-patch tiles). */
    double corridor_cost = 0;

    /** Mesh area relative to the lane-free machine (>= 1; the
     *  ancilla space the dedicated lanes cost). */
    double lane_area_factor = 1;

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

    /** @return schedule length / critical path. */
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
 * @return the merge/split cost of a chain across @p tiles patch
 * tiles, in cycles: rounds_per_hop boundary-stabilization rounds of
 * d cycles per tile.  The one formula both the pure surgery
 * scheduler and the hybrid backend's surgery arm price and hold
 * corridors with.
 */
uint64_t chainCycles(double rounds_per_hop, int code_distance,
                     int tiles);

/**
 * Dependence-limited critical path of @p circ on @p arch in cycles,
 * with ideal (uncontended, Manhattan-length) corridors: 1-qubit ops
 * d, 2-qubit ops and T gates rounds_per_hop * d per patch tile of
 * their shortest chain.  @p dag is @p circ's dependence DAG (e.g.
 * PatchPrepared::dag), built once and shared.
 */
uint64_t surgeryCriticalPath(const circuit::Circuit &circ,
                             const circuit::Dag &dag,
                             const PatchArch &arch,
                             const SurgeryOptions &opts);

/**
 * @return the PatchArchOptions @p opts resolves to — the layout
 * inputs a cached PatchPrepared must have been built with.  The
 * hybrid scheduler derives the *same* options from its own knobs
 * (hybrid::patchArchOptions), which is what lets the two backends
 * share one artifact.
 */
PatchArchOptions patchArchOptions(const SurgeryOptions &opts);

/**
 * Simulate lattice-surgery scheduling of @p circ (which must
 * already be decomposed to Clifford+T).
 */
SurgeryResult scheduleSurgery(const circuit::Circuit &circ,
                              const SurgeryOptions &opts = {});

/**
 * Same simulation, reusing @p prepared (built for this circuit with
 * patchArchOptions(opts)); bit-identical to the inline path.
 */
SurgeryResult scheduleSurgery(const circuit::Circuit &circ,
                              const SurgeryOptions &opts,
                              const PatchPrepared &prepared);

} // namespace qsurf::surgery

#endif // QSURF_SURGERY_CHAIN_SCHEDULER_H
