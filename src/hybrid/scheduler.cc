#include "hybrid/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "common/logging.h"
#include "engine/sim.h"
#include "surgery/patch_arch.h"

namespace qsurf::hybrid {

namespace {

using circuit::GateKind;

/** How an op uses the machine. */
enum class OpClass : uint8_t
{
    Local, ///< 1-qubit non-T gate: patch-local, d cycles.
    TGate, ///< T/Tdag: sources a state from a factory patch.
    TwoQ,  ///< 2-qubit gate: one arbitrated communication op.
};

struct OpRec
{
    OpClass cls = OpClass::Local;
    int32_t qa = -1;
    int32_t qb = -1;
    int pending_preds = 0;
    int wait = 0;      ///< Cycles spent failing to place.
    int est_tiles = 0; ///< Ideal corridor length, in patch tiles.
    Scheme scheme = Scheme::Braid; ///< Valid when scheme_set.
    bool scheme_set = false;
    network::Path route; ///< Currently claimed corridor (mesh
                         ///< schemes only; teleports claim nothing).
};

OpClass
classify(const circuit::Gate &g)
{
    if (consumesMagicState(g.kind))
        return OpClass::TGate;
    int arity = g.arity();
    fatalIf(arity > 2, "gate ", circuit::gateName(g.kind),
            " must be decomposed before hybrid scheduling");
    return arity == 2 ? OpClass::TwoQ : OpClass::Local;
}

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
        switch (classify(g)) {
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

/** The simulator. */
class Simulator
{
  public:
    Simulator(const circuit::Circuit &circ, const HybridOptions &opts,
              const surgery::PatchPrepared &prep)
        : circ(circ), opts(opts), dag(prep.dag), graph(prep.graph),
          arch(prep.arch), mesh(arch.makeMesh()),
          claim_opts(makeClaimOptions(opts)),
          claimer(mesh, claim_opts), corridors(arch),
          arbiter(makeArbiter(opts.arbiter, makeCosts(opts))),
          channels(channelSlots(opts, arch)), crit(prep.crit),
          memos(circ.size(), opts.fast_forward), trace(opts.trace)
    {
        if (trace) {
            trace->meshDims(mesh.width(), mesh.height());
            obs::traceMeshDefects(trace, mesh);
        }
        for (const Coord &terminal : arch.reservedTerminals())
            claimer.reserveTerminal(terminal);
        factory_order.resize(
            static_cast<size_t>(graph.num_qubits));
        for (int q = 0; q < graph.num_qubits; ++q)
            factory_order[static_cast<size_t>(q)] =
                arch.factoriesByDistance(q);
        buildOps();
        factories.configure(arch.numFactories(),
                            opts.magic_production_cycles,
                            opts.magic_buffer_capacity);
        factories.setTrace(trace);
    }

    HybridResult
    run()
    {
        seedReady();
        uint64_t completed = 0;
        auto total = static_cast<uint64_t>(circ.size());

        while (completed < total) {
            fatalIf(cycle > opts.max_cycles,
                    "hybrid simulation exceeded ", opts.max_cycles,
                    " cycles; likely a configuration problem");
            factories.replenish(cycle);
            placementPhase();
            if (opts.fast_forward)
                fastForwardPhase();
            mesh.tick();
            ++cycle;
            completed += completionPhase();
        }

        HybridResult out;
        out.schedule_cycles = cycle;
        out.critical_path_cycles =
            criticalPathOn(circ, dag, arch, opts);
        out.mesh_utilization = mesh.utilization();
        out.peak_busy_links =
            static_cast<uint64_t>(mesh.peakBusyLinks());
        out.braid_ops = braid_ops;
        out.teleport_ops = teleport_ops;
        out.surgery_ops = surgery_ops;
        out.local_ops = local_ops;
        out.arbiter_fallbacks = arbiter_fallbacks;
        out.placement_failures = placement_failures;
        out.transpose_fallbacks = claimer.transposeFallbacks();
        out.bfs_detours = claimer.bfsDetours();
        out.drops = drops;
        out.magic_starvations = magic_starvations;
        out.total_chain_tiles = total_chain_tiles;
        out.max_chain_tiles = max_chain_tiles;
        auto chains = live_chains.summarize(cycle);
        out.peak_live_chains = chains.peak;
        out.avg_live_chains = chains.average;
        auto live = live_eprs.summarize(cycle);
        out.peak_live_eprs = live.peak;
        out.avg_live_eprs = live.average;
        out.layout_cost = arch.layoutCost(graph);
        out.corridor_cost = arch.corridorCost(graph);
        out.lane_area_factor = arch.laneAreaFactor();
        out.ff_skipped_cycles = ff.skipped();
        out.defect_dead_fraction = arch.defects().deadFraction();
        out.defect_avg_multiplier =
            arch.defects().avgErrorMultiplier();
        out.defective_nodes =
            static_cast<uint64_t>(mesh.numDefectiveNodes());
        out.defective_links =
            static_cast<uint64_t>(mesh.numDefectiveLinks());
        return out;
    }

  private:
    static engine::RouteClaimOptions
    makeClaimOptions(const HybridOptions &opts)
    {
        engine::RouteClaimOptions c;
        c.adapt_timeout = opts.adapt_timeout;
        c.bfs_timeout = opts.bfs_timeout;
        return c;
    }

    static int
    channelSlots(const HybridOptions &opts,
                 const surgery::PatchArch &arch)
    {
        if (opts.epr_bandwidth > 0)
            return opts.epr_bandwidth;
        return arch.patchWidth() + arch.patchHeight();
    }

    void
    buildOps()
    {
        ops.resize(static_cast<size_t>(circ.size()));
        for (int i = 0; i < circ.size(); ++i) {
            const circuit::Gate &g = circ.gate(i);
            OpRec &op = ops[static_cast<size_t>(i)];
            op.cls = classify(g);
            op.qa = g.qubit[0];
            op.qb = g.arity() == 2 ? g.qubit[1] : -1;
            op.pending_preds =
                static_cast<int>(dag.preds(i).size());
            op.est_tiles = estimateTiles(op);
        }
    }

    /** Ideal (Manhattan) corridor length of @p op, in patch tiles. */
    int
    estimateTiles(const OpRec &op) const
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

    void
    seedReady()
    {
        for (int i = 0; i < circ.size(); ++i)
            if (ops[static_cast<size_t>(i)].pending_preds == 0)
                makeReady(i);
    }

    void
    makeReady(int i)
    {
        ops[static_cast<size_t>(i)].wait = 0;
        memos.forget(i);
        ready.insert(makeEntry(i));
        if (trace)
            trace->record({cycle, obs::EventKind::OpReady, i});
    }

    /** Criticality-first, short-corridor tie-break (like surgery:
     *  nothing releases early, so keep corridors turning over). */
    engine::ReadyEntry
    makeEntry(int i)
    {
        const OpRec &op = ops[static_cast<size_t>(i)];
        engine::ReadyEntry e;
        e.id = i;
        e.k1 = -crit[static_cast<size_t>(i)];
        e.k2 = op.est_tiles;
        return e;
    }

    /** The decision inputs of op @p i right now. */
    OpContext
    contextFor(const OpRec &op) const
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

    bool
    tryPlace(int i)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        if (op.cls == OpClass::Local) {
            ++local_ops;
            if (trace)
                trace->record({cycle, obs::EventKind::OpIssue, i, 0,
                               opts.code_distance});
            activate(i, static_cast<uint64_t>(opts.code_distance));
            return true;
        }

        // The scheme is decided once per queue epoch (re-arbitrated
        // after a drop), from the machine state at the first
        // attempt.  During a stall the mesh and channels are frozen,
        // so a per-attempt re-decision would answer identically —
        // which is what keeps fast-forward elision exact.
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
        uint64_t stock =
            op.cls == OpClass::TGate ? factories.version() : 0;
        if (auto repeat = memos.replay(
                i, mesh, stock,
                engine::escalationStage(op.wait, claim_opts)))
            return stalled(i, *repeat);
        return op.scheme == Scheme::Teleport ? placeTeleport(i)
                                             : placeCorridor(i);
    }

    /**
     * Account a failed attempt of op @p i, real or replayed from its
     * memo — one path, so the two cannot drift apart.
     * @return false, for tryPlace() to return.
     */
    bool
    stalled(int i, engine::FailKind kind)
    {
        if (kind == engine::FailKind::Starved) {
            ++magic_starvations;
            ++pass_starved;
        }
        engine::traceStall(trace, cycle, i,
                           ops[static_cast<size_t>(i)].wait, kind,
                           claim_opts);
        return false;
    }

    /**
     * Teleport placement: consume a factory state for T gates,
     * queue the EPR halves on the channel overlay, and complete
     * after transport + teleport cost + d.  Never touches the mesh,
     * so the only way to fail is magic-state starvation.
     */
    bool
    placeTeleport(int i)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        int tiles = op.est_tiles;
        if (op.cls == OpClass::TGate) {
            int fac = firstStockedFactory(op.qa);
            if (fac < 0)
                return stalled(i, memos.fail(i, mesh,
                                             engine::FailKind::Starved));
            factories.consume(fac);
            tiles = manhattan(arch.patchOf(op.qa),
                              arch.factoryPatch(fac));
        }
        uint64_t transport = transportCycles(opts, tiles);
        uint64_t start = channels.acquire(cycle, transport);
        uint64_t arrival = start + transport;
        live_eprs.add(cycle, arrival);
        ++teleport_ops;
        uint64_t duration = arrival - cycle + teleportTail(opts);
        if (trace) {
            trace->record({cycle, obs::EventKind::TeleportChannel, i,
                           static_cast<int64_t>(start),
                           static_cast<int64_t>(arrival)});
            if (start > cycle)
                trace->record({cycle, obs::EventKind::TeleportStall,
                               i,
                               static_cast<int64_t>(start - cycle)});
            trace->record({cycle, obs::EventKind::OpIssue, i, 2,
                           static_cast<int64_t>(duration)});
        }
        activate(i, duration);
        return true;
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
    bool
    placeCorridor(int i)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        Coord src = arch.terminal(op.qa);
        std::vector<std::pair<Coord, int>> &dsts = dsts_scratch;
        dsts.clear();
        if (op.cls == OpClass::TwoQ) {
            dsts.emplace_back(arch.terminal(op.qb), -1);
        } else if (!engine::appendStockedFactories(
                       factories,
                       factory_order[static_cast<size_t>(op.qa)],
                       op.wait, opts.adapt_timeout, dsts,
                       [this](int f) {
                           return arch.factoryTerminal(f);
                       })) {
            return stalled(
                i, memos.fail(i, mesh, engine::FailKind::Starved));
        }

        uint64_t transpose_before = 0;
        uint64_t bfs_before = 0;
        if (trace) {
            transpose_before = claimer.transposeFallbacks();
            bfs_before = claimer.bfsDetours();
        }
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
            if (chain) {
                if (trace) {
                    int64_t stage = 0;
                    if (claimer.bfsDetours() != bfs_before)
                        stage = 2;
                    else if (claimer.transposeFallbacks()
                             != transpose_before)
                        stage = 1;
                    trace->record({cycle, obs::EventKind::RouteClaim,
                                   i, stage, chain->hops(), factory});
                    if (stage > 0)
                        trace->record({cycle,
                                       obs::EventKind::RouteFallback,
                                       i, stage});
                }
                factories.consume(factory);
                placed(i, std::move(*chain));
                return true;
            }
        }
        return stalled(i, memos.fail(i, mesh, engine::FailKind::Denied));
    }

    /** Record a successful corridor placement. */
    void
    placed(int i, network::Path chain)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        uint64_t duration;
        int64_t lane;
        int64_t tiles_held = 0;
        if (op.scheme == Scheme::Braid) {
            ++braid_ops;
            duration = braidHold(opts, op.cls);
            lane = 1;
        } else {
            ++surgery_ops;
            int tiles = surgery::PatchArch::chainTiles(chain.hops());
            // One cycle to turn the boundary measurements on, then
            // the merge/split rounds across the whole corridor.
            duration = chainCycles(opts, tiles) + 1;
            lane = 3;
            tiles_held = tiles;
            total_chain_tiles += static_cast<uint64_t>(tiles);
            max_chain_tiles = std::max(max_chain_tiles,
                                       static_cast<uint64_t>(tiles));
            live_chains.add(cycle, cycle + duration);
        }
        op.route = std::move(chain);
        if (trace) {
            if (op.scheme == Scheme::Surgery)
                trace->record({cycle, obs::EventKind::ChainHold, i,
                               tiles_held,
                               static_cast<int64_t>(duration)});
            trace->routeHeld(op.route, cycle, duration);
            trace->record({cycle, obs::EventKind::OpIssue, i, lane,
                           static_cast<int64_t>(duration)});
        }
        activate(i, duration);
    }

    void
    activate(int i, uint64_t duration)
    {
        memos.forget(i);
        expiry.schedule(cycle + duration, i);
    }

    /** Greedy placement, criticality-ordered. */
    void
    placementPhase()
    {
        pass_placed = 0;
        pass_dropped = 0;
        pass_starved = 0;
        attempted.clear();

        int failures = 0;
        dropped_scratch.clear();
        auto it = ready.begin();
        while (it != ready.end()
               && failures < opts.max_attempts_per_cycle) {
            int i = it->id;
            int wait_used = ops[static_cast<size_t>(i)].wait;
            if (tryPlace(i)) {
                ++pass_placed;
                it = ready.erase(it);
                continue;
            }
            ++failures;
            ++placement_failures;
            OpRec &op = ops[static_cast<size_t>(i)];
            ++op.wait;
            if (op.wait >= opts.drop_timeout) {
                // Drop and re-inject.  The congestion-reactive
                // arbiter re-routes the contended op onto the
                // teleport overlay; others re-arbitrate fresh.
                ++drops;
                ++pass_dropped;
                if (trace)
                    trace->record(
                        {cycle, obs::EventKind::RouteDrop, i});
                op.wait = 0;
                memos.forget(i);
                if (op.scheme_set && op.scheme != Scheme::Teleport
                    && arbiter->fallbackToTeleport()) {
                    op.scheme = Scheme::Teleport;
                    ++arbiter_fallbacks;
                    if (trace)
                        trace->record(
                            {cycle, obs::EventKind::ArbiterDecision,
                             i,
                             static_cast<int64_t>(Scheme::Teleport),
                             op.est_tiles, 1});
                } else {
                    op.scheme_set = false;
                }
                it = ready.erase(it);
                dropped_scratch.push_back(i);
                continue;
            }
            attempted.push_back({i, wait_used});
            ++it;
        }
        for (int i : dropped_scratch)
            ready.insert(makeEntry(i));
    }

    /**
     * After a pass that placed and dropped nothing, jump to the
     * next interesting event of *any* scheme: the earliest expiry
     * (braid release, chain split, teleport completion — all
     * retire through the one queue), a stalled op's escalation
     * threshold, or a factory replenishment.
     */
    void
    fastForwardPhase()
    {
        if (pass_placed > 0 || pass_dropped > 0)
            return;
        uint64_t skip = engine::fastForwardAfterStall(
            ff, expiry, mesh, cycle, opts.max_cycles + 1, attempted,
            [this](int i) -> int & {
                return ops[static_cast<size_t>(i)].wait;
            },
            claim_opts, opts.drop_timeout, placement_failures,
            [this](engine::FastForward &planner) {
                factories.registerEvents(planner);
            });
        if (trace && skip > 0)
            trace->record({cycle, obs::EventKind::FastForwardSkip, -1,
                           static_cast<int64_t>(skip)});
        cycle += skip;
        magic_starvations += pass_starved * skip;
    }

    /** Retire expired ops; returns number completed. */
    uint64_t
    completionPhase()
    {
        uint64_t completed = 0;
        while (auto ripe = expiry.popRipe(cycle)) {
            int i = *ripe;
            OpRec &op = ops[static_cast<size_t>(i)];
            if (!op.route.empty()) {
                claimer.release(op.route, i);
                op.route = network::Path{};
            }
            if (trace)
                trace->record({cycle, obs::EventKind::OpRetire, i});
            ++completed;
            for (int s : dag.succs(i))
                if (--ops[static_cast<size_t>(s)].pending_preds == 0)
                    makeReady(s);
        }
        return completed;
    }

    const circuit::Circuit &circ;
    const HybridOptions &opts;
    const circuit::Dag &dag;
    const circuit::InteractionGraph &graph;
    const surgery::PatchArch &arch;
    network::Mesh mesh;
    engine::RouteClaimOptions claim_opts;
    engine::ChainClaimer claimer;
    surgery::CorridorRouter corridors;
    std::unique_ptr<Arbiter> arbiter;
    engine::ChannelPool channels;
    engine::MagicFactoryPool factories;

    std::vector<OpRec> ops;
    const std::vector<int> &crit;
    engine::FailMemos memos;
    obs::TraceRecorder *trace;
    std::vector<std::vector<int>> factory_order; ///< Per qubit.
    engine::ReadyQueue ready;
    engine::ExpiryQueue expiry;
    engine::LiveIntervalProfile live_eprs;
    engine::LiveIntervalProfile live_chains;
    engine::FastForward ff;
    uint64_t cycle = 0;

    /** Per-pass bookkeeping feeding fastForwardPhase(). */
    uint64_t pass_placed = 0;
    uint64_t pass_dropped = 0;
    uint64_t pass_starved = 0;
    std::vector<std::pair<int, int>> attempted; ///< (id, wait used).
    std::vector<int> dropped_scratch;
    std::vector<std::pair<Coord, int>> dsts_scratch;

    uint64_t braid_ops = 0;
    uint64_t teleport_ops = 0;
    uint64_t surgery_ops = 0;
    uint64_t local_ops = 0;
    uint64_t arbiter_fallbacks = 0;
    uint64_t placement_failures = 0;
    uint64_t drops = 0;
    uint64_t magic_starvations = 0;
    uint64_t total_chain_tiles = 0;
    uint64_t max_chain_tiles = 0;
};

} // namespace

surgery::PatchArchOptions
patchArchOptions(const HybridOptions &opts)
{
    surgery::PatchArchOptions a;
    a.patches_per_factory = opts.patches_per_factory;
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
    return Simulator(circ, opts, prepared).run();
}

} // namespace qsurf::hybrid
