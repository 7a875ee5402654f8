/**
 * @file
 * Mixed-scheme scheduling: braid tracks, EPR-teleport channels and
 * merge/split chains on *one* shared patch machine, with the
 * communication scheme chosen per operation by a pluggable Arbiter.
 *
 * The machine is the lattice-surgery patch grid (surgery::PatchArch):
 * logical qubits live in planar patches, and the corridor fabric
 * between patches carries both defect tracks and merge/split chains.
 * The two mesh-borne schemes claim corridors through one
 * engine::ChainClaimer, so a braid track and a surgery corridor
 * contend for the same nodes and links — they congest against each
 * other exactly as they would on real hardware — while teleports
 * ride an off-mesh swap-channel overlay (engine::ChannelPool) that
 * is bandwidth-limited but never blocks on corridor ownership.
 *
 * Per-scheme occupancy asymmetry (the paper's Table 2 tradeoff):
 *
 *  - a braid track holds its corridor 2d+2 cycles regardless of
 *    length (fast movement, exclusive);
 *  - a merge/split chain holds its corridor rounds_per_hop * d
 *    cycles *per tile* (cheapest adjacent, worst over length);
 *  - a teleport pays tiles * swap_hop_cycles of transport plus the
 *    fixed teleport cost, queued on the channel overlay
 *    (prefetch-friendly, distance-sensitive, off-mesh).
 *
 * Pinned to ArbiterKind::ForceSurgery this is the pure
 * lattice-surgery machine of Section 8.2: every 2-qubit op and every
 * T gate becomes one merge/split chain, the corridor between its
 * operands (or to a factory patch) is claimed exclusively for the
 * whole merge and split, and the chain statistics of HybridResult
 * describe those holds.  The "planar/surgery-sim" backend runs
 * exactly that.
 *
 * The simulator reuses the engine's deterministic primitives —
 * ReadyQueue, ExpiryQueue, ChainClaimer, ChannelPool,
 * MagicFactoryPool, LiveIntervalProfile and the FastForward planner
 * (whose jump targets cover all three schemes' wake events) — so
 * runs are bit-identical for a fixed (circuit, options) at any sweep
 * thread count and with fast-forward on or off.
 */

#ifndef QSURF_HYBRID_SCHEDULER_H
#define QSURF_HYBRID_SCHEDULER_H

#include <cstdint>

#include "circuit/circuit.h"
#include "hybrid/arbiter.h"
#include "obs/trace.h"
#include "partition/layout.h"
#include "surgery/patch_arch.h"

namespace qsurf::hybrid {

/** Simulation knobs. */
struct HybridOptions
{
    /** Code distance d. */
    int code_distance = 5;

    /** Scheme arbitration policy. */
    ArbiterKind arbiter = ArbiterKind::CostGreedy;

    /** Merge + split rounds per chain tile (surgery cost). */
    double rounds_per_hop = 2.0;

    /** Swap-chain latency per patch-tile hop, in cycles. */
    double swap_hop_cycles = 5.0;

    /** Braid open/close overhead per CNOT (braid cost). */
    double braid_overhead_cycles = 2.0;

    /** Fixed teleport cost once the EPR halves are resident
     *  (estimate::ModelConstants::teleport_cycles; rounded to whole
     *  cycles when the simulator schedules completions). */
    double teleport_overhead_cycles = 3.0;

    /**
     * Mesh load fraction where exclusive corridors saturate (the
     * arbiter's congestion-inflation knee; estimate::
     * ModelConstants::dd_max_utilization).
     */
    double mesh_saturation = 0.08;

    /**
     * Concurrent EPR transports the channel overlay sustains; 0
     * sizes it from the machine (patch-grid width + height).
     */
    int epr_bandwidth = 0;

    /** Data patches per magic-state factory patch. */
    int patches_per_factory = 8;

    /** Use the interaction-aware layout. */
    bool optimized_layout = true;

    /** Patch-layout objective (shared with the surgery backend:
     *  corridor-aware refinement and optional dedicated lanes). */
    partition::LayoutObjective layout_objective =
        partition::LayoutObjective::BraidManhattan;

    /** Patch rows/columns between dedicated ancilla lanes. */
    int lane_spacing = 4;

    /** Cycles an op waits before trying the transposed corridor. */
    int adapt_timeout = 4;

    /** Cycles before falling back to the adaptive BFS corridor. */
    int bfs_timeout = 8;

    /** Cycles before the op is dropped and re-injected (the
     *  congestion-reactive arbiter's teleport-fallback trigger). */
    int drop_timeout = 16;

    /** Cap on failed placement attempts per cycle. */
    int max_attempts_per_cycle = 64;

    /**
     * Cycles a factory patch needs to distill one magic state; 0
     * means supply is never the bottleneck.  All three schemes
     * consume from the same engine::MagicFactoryPool.
     */
    int magic_production_cycles = 0;

    /** Distilled states a factory patch can buffer. */
    int magic_buffer_capacity = 2;

    /** Safety bound on simulated cycles. */
    uint64_t max_cycles = 100'000'000;

    /** Event-driven time skipping and failure memos
     *  (bit-identical either way). */
    bool fast_forward = true;

    /** Layout RNG seed. */
    uint64_t seed = 1;

    /** Fabric damage recipe (see fabric/defect.h).  The default is
     *  the perfect mesh every run assumed before defect awareness. */
    fabric::DefectParams defects;

    /** Cost penalty per unit of per-route defect exposure on the
     *  mesh-borne schemes (ArbiterCosts::defect_penalty). */
    double defect_penalty = 2.0;

    /** Structured-event trace hook; null disables tracing (see
     *  obs/trace.h).  Never changes results. */
    obs::TraceRecorder *trace = nullptr;
};

/** Results of one hybrid-scheduling run. */
struct HybridResult
{
    /** Total cycles to complete the program. */
    uint64_t schedule_cycles = 0;

    /** Dependence-limited lower bound: every op at its cheapest
     *  allowed scheme, uncontended. */
    uint64_t critical_path_cycles = 0;

    /** Average fraction of mesh links busy. */
    double mesh_utilization = 0;

    /** Peak simultaneously claimed mesh links. */
    uint64_t peak_busy_links = 0;

    /** Ops routed per scheme (the scheme-choice histogram). */
    uint64_t braid_ops = 0;
    uint64_t teleport_ops = 0;
    uint64_t surgery_ops = 0;

    /** Patch-local 1-qubit ops (no communication). */
    uint64_t local_ops = 0;

    /** Dropped ops the reactive arbiter re-routed to teleport. */
    uint64_t arbiter_fallbacks = 0;

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

    /** Peak live (launched, unconsumed) EPR pairs. */
    uint64_t peak_live_eprs = 0;

    /** Time-averaged live EPR pairs. */
    double avg_live_eprs = 0;

    /** Sum of merge/split chain lengths, in patch tiles. */
    uint64_t total_chain_tiles = 0;

    /** Longest merge/split chain placed, in patch tiles. */
    uint64_t max_chain_tiles = 0;

    /** Peak simultaneously live merge/split chains. */
    uint64_t peak_live_chains = 0;

    /** Time-averaged live merge/split chains. */
    double avg_live_chains = 0;

    /** Interaction-weighted layout cost (Manhattan tiles). */
    double layout_cost = 0;

    /** Interaction-weighted corridor cost (around-patch tiles). */
    double corridor_cost = 0;

    /** Mesh area relative to the lane-free machine (>= 1). */
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

    /** @return communicating ops (braid + teleport + surgery). */
    uint64_t
    commOps() const
    {
        return braid_ops + teleport_ops + surgery_ops;
    }
};

/**
 * @return the PatchArchOptions @p opts resolves to — the layout
 * inputs a cached surgery::PatchPrepared must have been built with.
 * The arbiter is not among them, so every arbiter (and with it the
 * surgery-sim backend) shares one artifact.
 */
surgery::PatchArchOptions patchArchOptions(const HybridOptions &opts);

/**
 * Simulate mixed-scheme scheduling of @p circ (which must already
 * be decomposed to Clifford+T).
 */
HybridResult scheduleHybrid(const circuit::Circuit &circ,
                            const HybridOptions &opts = {});

/**
 * Same simulation, reusing @p prepared (built for this circuit with
 * patchArchOptions(opts)); bit-identical to the inline path.
 */
HybridResult scheduleHybrid(const circuit::Circuit &circ,
                            const HybridOptions &opts,
                            const surgery::PatchPrepared &prepared);

} // namespace qsurf::hybrid

#endif // QSURF_HYBRID_SCHEDULER_H
