#include "hybrid/scheduler.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "common/logging.h"
#include "surgery/patch_arch.h"

namespace qsurf::hybrid {

namespace {

using engine::OpClass;

/** Merge/split cost of a chain across @p tiles patch tiles, in
 *  cycles: rounds_per_hop boundary-stabilization rounds of d cycles
 *  per tile. */
uint64_t
chainCycles(const HybridOptions &opts, int tiles)
{
    return static_cast<uint64_t>(std::llround(
        opts.rounds_per_hop * static_cast<double>(opts.code_distance)
        * static_cast<double>(std::max(1, tiles))));
}

/** Corridor hold time of a braid track, length-insensitive. */
uint64_t
braidHold(const HybridOptions &opts, OpClass cls)
{
    auto d = static_cast<uint64_t>(opts.code_distance);
    if (cls == OpClass::TGate)
        return d + 1; // One segment: open + d rounds.
    return 2 * d
        + static_cast<uint64_t>(
               std::llround(opts.braid_overhead_cycles));
}

/** Swap-chain transport time of @p tiles patch hops, in cycles. */
uint64_t
transportCycles(const HybridOptions &opts, int tiles)
{
    return static_cast<uint64_t>(
        std::ceil(static_cast<double>(std::max(1, tiles))
                  * opts.swap_hop_cycles));
}

/** Teleport completion once transport lands: fixed cost + d. */
uint64_t
teleportTail(const HybridOptions &opts)
{
    return static_cast<uint64_t>(
               std::llround(opts.teleport_overhead_cycles))
        + static_cast<uint64_t>(opts.code_distance);
}

ArbiterCosts
makeCosts(const HybridOptions &opts)
{
    ArbiterCosts k;
    k.code_distance = opts.code_distance;
    k.rounds_per_hop = opts.rounds_per_hop;
    k.braid_overhead_cycles = opts.braid_overhead_cycles;
    k.teleport_cycles = opts.teleport_overhead_cycles;
    k.swap_hop_cycles = opts.swap_hop_cycles;
    k.mesh_saturation = opts.mesh_saturation;
    k.defect_penalty = opts.defect_penalty;
    return k;
}

/** Ideal (uncontended, unqueued) latency of one op per scheme. */
uint64_t
idealLatency(const HybridOptions &opts, Scheme scheme, OpClass cls,
             int tiles)
{
    switch (scheme) {
      case Scheme::Braid:
        return braidHold(opts, cls);
      case Scheme::Teleport:
        return transportCycles(opts, tiles) + teleportTail(opts);
      case Scheme::Surgery:
        return chainCycles(opts, tiles) + 1;
    }
    panic("bad Scheme");
}

/** The schemes @p kind may choose from. */
const std::vector<Scheme> &
allowedSchemes(ArbiterKind kind)
{
    static const std::vector<Scheme> braid_only{Scheme::Braid};
    static const std::vector<Scheme> teleport_only{Scheme::Teleport};
    static const std::vector<Scheme> surgery_only{Scheme::Surgery};
    static const std::vector<Scheme> all{
        Scheme::Braid, Scheme::Teleport, Scheme::Surgery};
    switch (kind) {
      case ArbiterKind::ForceBraid:
        return braid_only;
      case ArbiterKind::ForceTeleport:
        return teleport_only;
      case ArbiterKind::ForceSurgery:
        return surgery_only;
      default:
        return all;
    }
}

/** Cheapest allowed ideal latency of one op. */
uint64_t
bestIdealLatency(const HybridOptions &opts, OpClass cls, int tiles)
{
    uint64_t best = UINT64_MAX;
    for (Scheme s : allowedSchemes(opts.arbiter))
        best = std::min(best, idealLatency(opts, s, cls, tiles));
    return best;
}

/** The critical path of @p circ, whose dependence DAG is @p dag, on
 *  @p arch with each op at its cheapest allowed ideal latency. */
uint64_t
criticalPathOn(const circuit::Circuit &circ, const circuit::Dag &dag,
               const surgery::PatchArch &arch,
               const HybridOptions &opts)
{
    std::vector<uint64_t> finish(static_cast<size_t>(circ.size()),
                                 0);
    // Nearest-factory distance per qubit, computed on first use —
    // T-heavy circuits would otherwise re-sort the factory list for
    // every gate.
    std::vector<int> factory_tiles(
        static_cast<size_t>(circ.numQubits()), -1);
    auto tgate_tiles = [&](int32_t q) {
        int &tiles = factory_tiles[static_cast<size_t>(q)];
        if (tiles < 0) {
            int f = arch.factoriesByDistance(q).front();
            tiles = manhattan(arch.patchOf(q), arch.factoryPatch(f));
        }
        return tiles;
    };

    uint64_t best = 0;
    for (int i = 0; i < circ.size(); ++i) {
        uint64_t start = 0;
        for (int p : dag.preds(i))
            start = std::max(start, finish[static_cast<size_t>(p)]);

        const circuit::Gate &g = circ.gate(i);
        uint64_t lat;
        switch (engine::classify(g, "hybrid")) {
          case OpClass::Local:
            lat = static_cast<uint64_t>(opts.code_distance);
            break;
          case OpClass::TGate:
            lat = bestIdealLatency(opts, OpClass::TGate,
                                   tgate_tiles(g.qubit[0]));
            break;
          case OpClass::TwoQ:
            lat = bestIdealLatency(
                opts, OpClass::TwoQ,
                manhattan(arch.patchOf(g.qubit[0]),
                          arch.patchOf(g.qubit[1])));
            break;
        }
        finish[static_cast<size_t>(i)] = start + lat;
        best = std::max(best, finish[static_cast<size_t>(i)]);
    }
    return best;
}

struct HybridOp : engine::LoopOp
{
    Scheme scheme = Scheme::Braid; ///< Valid when scheme_set.
    bool scheme_set = false;
    int est_tiles = 0; ///< Ideal corridor length, in patch tiles.
};

/** The hybrid scheme of the shared loop. */
class HybridSim
    : public engine::Loop<HybridSim, HybridOp, surgery::PatchPrepared,
                          engine::ChainClaimer>
{
    using Base = engine::Loop<HybridSim, HybridOp,
                              surgery::PatchPrepared,
                              engine::ChainClaimer>;
    friend Base;

  public:
    HybridSim(const circuit::Circuit &circ, const HybridOptions &opts,
              const surgery::PatchPrepared &prep)
        : Base("hybrid", circ, prep, opts, false), hybrid_opts(opts),
          corridors(arch),
          arbiter(makeArbiter(opts.arbiter, makeCosts(opts))),
          channels(channelSlots(opts, arch))
    {
        for (const Coord &terminal : arch.reservedTerminals())
            claimer.reserveTerminal(terminal);
        for (HybridOp &op : ops)
            op.est_tiles = estimateTiles(op);
    }

    HybridResult
    run()
    {
        loop();
        HybridResult out;
        report(out);
        out.critical_path_cycles =
            criticalPathOn(circ, dag, arch, hybrid_opts);
        out.peak_busy_links =
            static_cast<uint64_t>(mesh.peakBusyLinks());
        out.braid_ops = braid_ops;
        out.teleport_ops = teleport_ops;
        out.surgery_ops = surgery_ops;
        out.local_ops = local_ops;
        out.arbiter_fallbacks = arbiter_fallbacks;
        out.transpose_fallbacks = claimer.transposeFallbacks();
        out.total_chain_tiles = total_chain_tiles;
        out.max_chain_tiles = max_chain_tiles;
        auto chains = live_chains.summarize(cycle);
        out.peak_live_chains = chains.peak;
        out.avg_live_chains = chains.average;
        auto live = live_eprs.summarize(cycle);
        out.peak_live_eprs = live.peak;
        out.avg_live_eprs = live.average;
        out.corridor_cost = arch.corridorCost(graph);
        out.lane_area_factor = arch.laneAreaFactor();
        return out;
    }

  private:
    static int
    channelSlots(const HybridOptions &opts,
                 const surgery::PatchArch &arch)
    {
        if (opts.epr_bandwidth > 0)
            return opts.epr_bandwidth;
        return arch.patchWidth() + arch.patchHeight();
    }

    /** Ideal (Manhattan) corridor length of @p op, in patch tiles. */
    int
    estimateTiles(const HybridOp &op) const
    {
        switch (op.cls) {
          case OpClass::Local:
            return 0;
          case OpClass::TGate: {
            int f = factory_order[static_cast<size_t>(op.qa)]
                        .front();
            return manhattan(arch.patchOf(op.qa),
                             arch.factoryPatch(f));
          }
          case OpClass::TwoQ:
            return manhattan(arch.patchOf(op.qa),
                             arch.patchOf(op.qb));
        }
        panic("bad OpClass");
    }

    /** Criticality-first, short-corridor tie-break (like surgery:
     *  nothing releases early, so keep corridors turning over). */
    engine::ReadyEntry
    key(int i) const
    {
        engine::ReadyEntry e;
        e.id = i;
        e.k1 = -crit[static_cast<size_t>(i)];
        e.k2 = ops[static_cast<size_t>(i)].est_tiles;
        return e;
    }

    /** The decision inputs of op @p op right now. */
    OpContext
    contextFor(const HybridOp &op) const
    {
        OpContext ctx;
        ctx.tiles = op.est_tiles;
        ctx.mesh_load = mesh.loadNow();
        ctx.channel_backlog = channels.earliestStart(cycle) - cycle;
        ctx.t_gate = op.cls == OpClass::TGate;
        // Under rate-limited production the state may have to come
        // from a farther, stocked factory — price the transport the
        // op would actually pay, not the ideal one.
        if (ctx.t_gate && factories.limited()) {
            int fac = firstStockedFactory(op.qa);
            if (fac >= 0)
                ctx.tiles = manhattan(arch.patchOf(op.qa),
                                      arch.factoryPatch(fac));
        }
        // Dead-tile fraction around the corridor: 0 on a perfect
        // fabric, so clean-machine arbitration is unchanged.
        ctx.defect_exposure = arch.defectExposure(
            op.qa, op.qb >= 0 ? op.qb : op.qa);
        return ctx;
    }

    std::optional<engine::FailKind>
    claim(int i, HybridOp &op)
    {
        // The scheme is decided once per queue epoch (re-arbitrated
        // after a drop), from the machine state at the first
        // attempt.  During a stall the mesh and channels are frozen,
        // so a per-attempt re-decision would answer identically —
        // which is what keeps fast-forward elision exact.  A failure
        // memo never outlives its epoch (a drop forgets it), so no
        // replayed attempt skips a decision.
        if (!op.scheme_set) {
            OpContext ctx = contextFor(op);
            op.scheme = arbiter->choose(ctx);
            op.scheme_set = true;
            if (trace)
                trace->record({cycle,
                               obs::EventKind::ArbiterDecision, i,
                               static_cast<int64_t>(op.scheme),
                               ctx.tiles});
        }
        return op.scheme == Scheme::Teleport ? placeTeleport(i, op)
                                             : placeCorridor(i, op);
    }

    /**
     * Teleport placement: consume a factory state for T gates,
     * queue the EPR halves on the channel overlay, and complete
     * after transport + teleport cost + d.  Never touches the mesh,
     * so the only way to fail is magic-state starvation.
     */
    std::optional<engine::FailKind>
    placeTeleport(int i, const HybridOp &op)
    {
        int tiles = op.est_tiles;
        if (op.cls == OpClass::TGate) {
            int fac = firstStockedFactory(op.qa);
            if (fac < 0)
                return engine::FailKind::Starved;
            factories.consume(fac);
            tiles = manhattan(arch.patchOf(op.qa),
                              arch.factoryPatch(fac));
        }
        uint64_t transport = transportCycles(hybrid_opts, tiles);
        uint64_t start = channels.acquire(cycle, transport);
        uint64_t arrival = start + transport;
        live_eprs.add(cycle, arrival);
        ++teleport_ops;
        if (trace) {
            trace->record({cycle, obs::EventKind::TeleportChannel, i,
                           static_cast<int64_t>(start),
                           static_cast<int64_t>(arrival)});
            if (start > cycle)
                trace->record({cycle, obs::EventKind::TeleportStall,
                               i,
                               static_cast<int64_t>(start - cycle)});
        }
        issue(i, arrival - cycle + teleportTail(hybrid_opts), 2);
        return std::nullopt;
    }

    /** @return the nearest factory with a state, or -1. */
    int
    firstStockedFactory(int32_t q) const
    {
        for (int fac : factory_order[static_cast<size_t>(q)])
            if (factories.hasState(fac))
                return fac;
        return -1;
    }

    /**
     * Mesh placement (braid track or merge/split chain): claim a
     * corridor through the shared claimer — braid tracks and
     * surgery corridors contend for the same fabric — and hold it
     * for the scheme's occupancy time.
     */
    std::optional<engine::FailKind>
    placeCorridor(int i, const HybridOp &op)
    {
        if (!destinations(op))
            return engine::FailKind::Starved;
        Coord src = arch.terminal(op.qa);
        network::Blockers *blockers = memos.blockers();
        for (const auto &[dst, factory] : dsts) {
            // A held terminal fails every stage: build no corridor.
            if (claimer.endpointHeld(src, dst, i, blockers))
                continue;
            const surgery::CorridorRouter::Routes &routes =
                corridors.routes(src, dst);
            auto chain = claimer.tryClaim(routes.primary,
                                          routes.fallback, i,
                                          op.wait, blockers);
            if (!chain)
                continue;
            claimed(i, *chain, claimer.lastStage(), factory);
            placed(i, op, std::move(*chain));
            return std::nullopt;
        }
        return engine::FailKind::Denied;
    }

    /** Hold a claimed corridor for its scheme's occupancy time. */
    void
    placed(int i, const HybridOp &op, network::Path &&chain)
    {
        if (op.scheme == Scheme::Braid) {
            ++braid_ops;
            hold(i, std::move(chain), braidHold(hybrid_opts, op.cls),
                 1);
            return;
        }
        ++surgery_ops;
        int tiles = surgery::PatchArch::chainTiles(chain.hops());
        // One cycle to turn the boundary measurements on, then the
        // merge/split rounds across the whole corridor.
        uint64_t duration = chainCycles(hybrid_opts, tiles) + 1;
        total_chain_tiles += static_cast<uint64_t>(tiles);
        max_chain_tiles =
            std::max(max_chain_tiles, static_cast<uint64_t>(tiles));
        live_chains.add(cycle, cycle + duration);
        if (trace)
            trace->record({cycle, obs::EventKind::ChainHold, i, tiles,
                           static_cast<int64_t>(duration)});
        hold(i, std::move(chain), duration, 3);
    }

    /** The congestion-reactive arbiter re-routes a dropped op onto
     *  the teleport overlay; others re-arbitrate fresh. */
    void
    dropped(int i, HybridOp &op)
    {
        if (op.scheme_set && op.scheme != Scheme::Teleport
            && arbiter->fallbackToTeleport()) {
            op.scheme = Scheme::Teleport;
            ++arbiter_fallbacks;
            if (trace)
                trace->record({cycle, obs::EventKind::ArbiterDecision,
                               i,
                               static_cast<int64_t>(Scheme::Teleport),
                               op.est_tiles, 1});
        } else {
            op.scheme_set = false;
        }
    }

    const HybridOptions &hybrid_opts;
    surgery::CorridorRouter corridors;
    std::unique_ptr<Arbiter> arbiter;
    engine::ChannelPool channels;
    engine::LiveIntervalProfile live_eprs;
    engine::LiveIntervalProfile live_chains;

    uint64_t braid_ops = 0;
    uint64_t teleport_ops = 0;
    uint64_t surgery_ops = 0;
    uint64_t arbiter_fallbacks = 0;
    uint64_t total_chain_tiles = 0;
    uint64_t max_chain_tiles = 0;
};

} // namespace

surgery::PatchArchOptions
patchArchOptions(const HybridOptions &opts)
{
    surgery::PatchArchOptions a;
    a.optimized_layout = opts.optimized_layout;
    a.layout_objective = opts.layout_objective;
    a.lane_spacing = opts.lane_spacing;
    a.seed = opts.seed;
    a.defects = opts.defects;
    return a;
}

HybridResult
scheduleHybrid(const circuit::Circuit &circ, const HybridOptions &opts)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    surgery::PatchPrepared prepared(circ, patchArchOptions(opts));
    return scheduleHybrid(circ, opts, prepared);
}

HybridResult
scheduleHybrid(const circuit::Circuit &circ, const HybridOptions &opts,
               const surgery::PatchPrepared &prepared)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    fatalIf(opts.code_distance < 1, "code distance must be >= 1");
    fatalIf(opts.rounds_per_hop <= 0,
            "rounds_per_hop must be > 0, got ", opts.rounds_per_hop);
    fatalIf(opts.swap_hop_cycles <= 0,
            "swap_hop_cycles must be > 0, got ",
            opts.swap_hop_cycles);
    return HybridSim(circ, opts, prepared).run();
}

} // namespace qsurf::hybrid
