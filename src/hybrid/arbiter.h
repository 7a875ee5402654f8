/**
 * @file
 * Per-operation communication-scheme arbitration for the hybrid
 * backend.
 *
 * The paper's central result (Figures 8/9, Table 2) is that no
 * single communication scheme wins everywhere: braids are
 * distance-insensitive but hold their whole track exclusively,
 * teleportation is cheap at the point of use but pays swap-chain
 * transport that grows with distance and code distance, and a
 * merge/split chain is the cheapest thing possible between adjacent
 * patches yet the worst over length.  A machine that runs all three
 * on one fabric can therefore pick per CNOT: the Arbiter is that
 * decision, priced from the same estimate:: constants the analytic
 * design-space models use, so the simulated arbitration and the
 * closed-form crossover analysis share one cost vocabulary.
 */

#ifndef QSURF_HYBRID_ARBITER_H
#define QSURF_HYBRID_ARBITER_H

#include <cstdint>
#include <memory>

namespace qsurf::hybrid {

/** The three communication schemes a hybrid op can ride. */
enum class Scheme : uint8_t
{
    Braid,    ///< Defect track: constant-time, exclusive corridor.
    Teleport, ///< EPR channel overlay: off-mesh, bandwidth-limited.
    Surgery,  ///< Merge/split chain: per-tile d-cycle rounds.
};

/** Number of schemes (histogram sizing). */
inline constexpr int num_schemes = 3;

/** The built-in arbitration policies (RunConfig::hybrid_arbiter). */
enum class ArbiterKind : int
{
    CostGreedy = 0,          ///< Min modeled latency, load-aware.
    CongestionReactive = 1,  ///< Greedy + teleport fallback on drop.
    ForceBraid = 2,          ///< Pure braid on the hybrid machine.
    ForceTeleport = 3,       ///< Pure teleport on the hybrid machine.
    ForceSurgery = 4,        ///< Pure surgery on the hybrid machine.
};

/** All arbiter kinds in order, for sweeps. */
inline constexpr int num_arbiters = 5;

/** @return a short stable name, e.g. "greedy" or "force-braid". */
const char *arbiterName(ArbiterKind kind);

/**
 * The cost constants one arbitration decision is priced from, all
 * sourced from estimate:: (ModelConstants / SurgeryConstants) plus
 * the technology's swap-chain latency.
 */
struct ArbiterCosts
{
    /** Code distance d. */
    int code_distance = 5;

    /** Merge + split rounds per chain tile (estimate::
     *  SurgeryConstants::rounds_per_hop). */
    double rounds_per_hop = 2.0;

    /** Braid open/close overhead per CNOT (estimate::
     *  ModelConstants::braid_overhead_cycles). */
    double braid_overhead_cycles = 2.0;

    /** Teleport cost once the EPR halves are resident (estimate::
     *  ModelConstants::teleport_cycles). */
    double teleport_cycles = 3.0;

    /** Swap-chain latency per patch-tile hop, in cycles
     *  (qec::Technology::swapHopCycles). */
    double swap_hop_cycles = 5.0;

    /**
     * Mesh load fraction at which exclusive (braid / surgery)
     * corridors start paying congestion inflation (estimate::
     * ModelConstants::dd_max_utilization: circuit-switched tracks
     * saturate early because nothing buffers).
     */
    double mesh_saturation = 0.08;

    /**
     * Cost penalty per unit of defect exposure on the mesh-borne
     * schemes: a corridor whose bounding box is fraction f dead
     * costs (1 + defect_penalty * f) times its clean price — dead
     * tiles force detours and narrow the set of claimable routes.
     * The teleport overlay is off-mesh and never pays it.
     */
    double defect_penalty = 2.0;
};

/** One decision's inputs, gathered by the scheduler per attempt. */
struct OpContext
{
    /** Ideal corridor length between the endpoints, in patch tiles. */
    int tiles = 1;

    /** Fraction of mesh links claimed right now, in [0, 1]. */
    double mesh_load = 0;

    /**
     * Cycles the EPR channel pool would delay a transport launched
     * now (queueing only, not the transport itself).
     */
    uint64_t channel_backlog = 0;

    /** True for a T gate (factory merge/track/teleport). */
    bool t_gate = false;

    /**
     * Dead-tile fraction of the corridor's bounding box (see
     * PatchArch::defectExposure), in [0, 1]; 0 on a perfect fabric,
     * so defect-free arbitration is bit-identical to before the
     * fabric could be damaged.
     */
    double defect_exposure = 0;
};

/**
 * A communication-scheme arbiter.  Implementations must be pure
 * functions of (costs, context) — the scheduler re-evaluates
 * decisions during stalls and relies on identical answers while the
 * machine state is frozen, which is what keeps the event-driven
 * fast-forward bit-identical to the stepped loop.
 */
class Arbiter
{
  public:
    virtual ~Arbiter() = default;

    /** @return the scheme to try for the op described by @p ctx. */
    virtual Scheme choose(const OpContext &ctx) const = 0;

    /**
     * @return true when a dropped op (corridor contended past
     * drop_timeout) should fall back to the teleport overlay
     * instead of re-queueing on its chosen scheme.
     */
    virtual bool fallbackToTeleport() const { return false; }

    /** @return the kind this arbiter implements. */
    virtual ArbiterKind kind() const = 0;
};

/**
 * Modeled completion latency of one op under each scheme, exposed
 * for tests and the crossover bench.  All in cycles:
 *
 *  - braid: two segments at d+1 each plus the open/close overhead,
 *    distance-insensitive, times the congestion inflation of the
 *    current mesh load;
 *  - teleport: swap transport of tiles * swap_hop_cycles (plus the
 *    channel queue backlog), then the fixed teleport cost and the
 *    op's own d rounds — none of it touches the mesh;
 *  - surgery: rounds_per_hop * d per corridor tile, inflated like
 *    the braid (chains congest identically).
 *
 * Both mesh-borne schemes additionally pay the defect surcharge
 * (1 + defect_penalty * ctx.defect_exposure); the off-mesh teleport
 * never does — which is exactly the mechanism that shifts hybrid
 * arbitration toward the overlay as the fabric degrades.
 */
double braidCost(const ArbiterCosts &k, const OpContext &ctx);
double teleportCost(const ArbiterCosts &k, const OpContext &ctx);
double surgeryCost(const ArbiterCosts &k, const OpContext &ctx);

/** @return the arbiter implementing @p kind over @p costs. */
std::unique_ptr<Arbiter> makeArbiter(ArbiterKind kind,
                                     const ArbiterCosts &costs);

} // namespace qsurf::hybrid

#endif // QSURF_HYBRID_ARBITER_H
