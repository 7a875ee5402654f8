#include "surgery/chain_scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "common/arena.h"
#include "common/logging.h"
#include "engine/sim.h"

namespace qsurf::surgery {

namespace {

using circuit::GateKind;

/** How an op uses the machine. */
enum class OpClass : uint8_t
{
    Local, ///< 1-qubit non-T gate: patch-local, d cycles.
    TGate, ///< T/Tdag: one chain to a factory patch.
    TwoQ,  ///< 2-qubit gate: one merge/split chain.
};

struct OpRec
{
    OpClass cls = OpClass::Local;
    int32_t qa = -1;
    int32_t qb = -1;
    int pending_preds = 0;
    int wait = 0;        ///< Cycles spent failing to place.
    int est_tiles = 0;   ///< Ideal chain length, in patch tiles.
    bool done = false;
    network::Path route; ///< Currently claimed corridor.
};

OpClass
classify(const circuit::Gate &g)
{
    if (consumesMagicState(g.kind))
        return OpClass::TGate;
    int arity = g.arity();
    fatalIf(arity > 2, "gate ", circuit::gateName(g.kind),
            " must be decomposed before surgery scheduling");
    return arity == 2 ? OpClass::TwoQ : OpClass::Local;
}

/** Merge/split cost of an @p tiles-tile chain under @p opts. */
uint64_t
chainCycles(const SurgeryOptions &opts, int tiles)
{
    return surgery::chainCycles(opts.rounds_per_hop,
                                opts.code_distance, tiles);
}

/** The simulator. */
class Simulator
{
  public:
    Simulator(const circuit::Circuit &circ,
              const SurgeryOptions &opts, const PatchPrepared &prep)
        : circ(circ), opts(opts), dag(prep.dag), graph(prep.graph),
          arch(prep.arch), mesh(arch.makeMesh()),
          claim_opts(makeClaimOptions(opts)),
          claimer(mesh, claim_opts), corridors(arch),
          crit(prep.crit), memos(circ.size(), opts.fast_forward),
          trace(opts.trace)
    {
        if (trace) {
            trace->meshDims(mesh.width(), mesh.height());
            obs::traceMeshDefects(trace, mesh);
        }
        for (const Coord &terminal : arch.reservedTerminals())
            claimer.reserveTerminal(terminal);
        // Factory preference orders are a pure function of the
        // static layout; memoize them per qubit so a stalled T gate
        // doesn't re-sort the factory list every failed attempt.
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

    SurgeryResult
    run()
    {
        seedReady();
        uint64_t completed = 0;
        auto total = static_cast<uint64_t>(circ.size());

        while (completed < total) {
            fatalIf(cycle > opts.max_cycles,
                    "surgery simulation exceeded ", opts.max_cycles,
                    " cycles; likely a configuration problem");
            factories.replenish(cycle);
            placementPhase();
            if (opts.fast_forward)
                fastForwardPhase();
            mesh.tick();
            ++cycle;
            completed += completionPhase();
        }

        SurgeryResult out;
        out.schedule_cycles = cycle;
        out.critical_path_cycles =
            surgeryCriticalPath(circ, dag, arch, opts);
        out.mesh_utilization = mesh.utilization();
        out.chains_placed = chains_placed;
        out.placement_failures = placement_failures;
        out.transpose_fallbacks = claimer.transposeFallbacks();
        out.bfs_detours = claimer.bfsDetours();
        out.drops = drops;
        out.magic_starvations = magic_starvations;
        out.total_chain_tiles = total_chain_tiles;
        out.max_chain_tiles = max_chain_tiles;
        auto live = live_chains.summarize(cycle);
        out.peak_live_chains = live.peak;
        out.avg_live_chains = live.average;
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
    makeClaimOptions(const SurgeryOptions &opts)
    {
        engine::RouteClaimOptions c;
        c.adapt_timeout = opts.adapt_timeout;
        c.bfs_timeout = opts.bfs_timeout;
        c.legacy_paths = opts.legacy_paths;
        return c;
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

    /** Ideal (Manhattan) chain length of @p op, in patch tiles. */
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

    /**
     * Chains release nothing until the whole merge/split completes,
     * so the queue works off criticality (longest dependence tail
     * first) and breaks ties short-chain-first to keep corridors
     * turning over.
     */
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

    bool
    tryPlace(int i)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        if (op.cls == OpClass::Local) {
            if (trace)
                trace->record({cycle, obs::EventKind::OpIssue, i, 0,
                               opts.code_distance});
            activate(i, static_cast<uint64_t>(opts.code_distance));
            return true;
        }

        uint64_t stock =
            op.cls == OpClass::TGate ? factories.version() : 0;
        if (auto repeat = memos.replay(
                i, mesh, stock,
                engine::escalationStage(op.wait, claim_opts)))
            return stalled(i, *repeat);
        network::Blockers *blockers = memos.blockers();

        Coord src = arch.terminal(op.qa);
        // Candidate destinations: (terminal, factory index or -1).
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
        for (const auto &[dst, factory] : dsts) {
            // A held terminal fails every stage: build no corridor.
            if (claimer.endpointHeld(src, dst, i, blockers))
                continue;
            std::optional<network::Path> chain;
            if (opts.legacy_paths) {
                // Pre-change behavior: rebuild both corridor
                // geometries on every attempt.
                network::Path primary =
                    arch.corridorRoute(src, dst, false);
                network::Path fallback =
                    arch.corridorRoute(src, dst, true);
                chain = claimer.tryClaim(primary, fallback, i,
                                         op.wait, blockers);
            } else {
                const CorridorRouter::Routes &routes =
                    corridors.routes(src, dst);
                chain = claimer.tryClaim(routes.primary,
                                         routes.fallback, i,
                                         op.wait, blockers);
            }
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

    /** Record a successful placement on a claimed corridor. */
    void
    placed(int i, network::Path chain)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        auto tiles = static_cast<uint64_t>(
            PatchArch::chainTiles(chain.hops()));
        op.route = std::move(chain);
        ++chains_placed;
        total_chain_tiles += tiles;
        max_chain_tiles = std::max(max_chain_tiles, tiles);
        // One cycle to turn the boundary measurements on, then the
        // merge/split rounds across the whole corridor.
        uint64_t duration =
            chainCycles(opts, static_cast<int>(tiles)) + 1;
        if (trace) {
            trace->record({cycle, obs::EventKind::ChainHold, i,
                           static_cast<int64_t>(tiles),
                           static_cast<int64_t>(duration)});
            trace->routeHeld(op.route, cycle, duration);
            trace->record({cycle, obs::EventKind::OpIssue, i,
                           op.cls == OpClass::TGate ? 1 : 2,
                           static_cast<int64_t>(duration)});
        }
        live_chains.add(cycle, cycle + duration);
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
                // Drop and re-inject at the back of the queue.
                ++drops;
                ++pass_dropped;
                if (trace)
                    trace->record(
                        {cycle, obs::EventKind::RouteDrop, i});
                op.wait = 0;
                memos.forget(i);
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
     * When the pass above placed nothing (and dropped nothing, so
     * the ready queue kept its order), every iteration until the
     * next interesting event is a pure repetition: same failed
     * attempts, wait counters +1 each.  Jump there, accounting the
     * elided iterations in bulk.
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
                // A replenishment that raises a stock can change a
                // T gate's candidate factories.
                factories.registerEvents(planner);
            });
        if (trace && skip > 0)
            trace->record({cycle, obs::EventKind::FastForwardSkip, -1,
                           static_cast<int64_t>(skip)});
        cycle += skip;
        magic_starvations += pass_starved * skip;
    }

    /** Retire expired chains; returns number of ops completed. */
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
            op.done = true;
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
    const SurgeryOptions &opts;
    const circuit::Dag &dag;
    const circuit::InteractionGraph &graph;
    const PatchArch &arch;
    network::Mesh mesh;
    engine::RouteClaimOptions claim_opts;
    engine::ChainClaimer claimer;
    CorridorRouter corridors;

    std::vector<OpRec> ops;
    const std::vector<int> &crit;
    std::vector<std::vector<int>> factory_order; ///< Per qubit.
    engine::ReadyQueue ready;
    engine::ExpiryQueue expiry;
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

    engine::MagicFactoryPool factories;
    engine::FailMemos memos;
    obs::TraceRecorder *trace;

    uint64_t chains_placed = 0;
    uint64_t placement_failures = 0;
    uint64_t drops = 0;
    uint64_t magic_starvations = 0;
    uint64_t total_chain_tiles = 0;
    uint64_t max_chain_tiles = 0;
};

} // namespace

uint64_t
chainCycles(double rounds_per_hop, int code_distance, int tiles)
{
    return static_cast<uint64_t>(std::llround(
        rounds_per_hop * static_cast<double>(code_distance)
        * static_cast<double>(std::max(1, tiles))));
}

uint64_t
surgeryCriticalPath(const circuit::Circuit &circ,
                    const circuit::Dag &dag,
                    const PatchArch &arch,
                    const SurgeryOptions &opts)
{
    fatalIf(opts.code_distance < 1,
            "code distance must be >= 1, got ", opts.code_distance);
    std::vector<uint64_t, ArenaAllocator<uint64_t>> finish(
        static_cast<size_t>(circ.size()), 0);
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
          case OpClass::TGate: {
            int f = arch.factoriesByDistance(g.qubit[0]).front();
            lat = chainCycles(opts,
                              manhattan(arch.patchOf(g.qubit[0]),
                                        arch.factoryPatch(f)))
                + 1;
            break;
          }
          case OpClass::TwoQ:
            lat = chainCycles(opts,
                              manhattan(arch.patchOf(g.qubit[0]),
                                        arch.patchOf(g.qubit[1])))
                + 1;
            break;
        }
        finish[static_cast<size_t>(i)] = start + lat;
        best = std::max(best, finish[static_cast<size_t>(i)]);
    }
    return best;
}

PatchArchOptions
patchArchOptions(const SurgeryOptions &opts)
{
    PatchArchOptions a;
    a.patches_per_factory = opts.patches_per_factory;
    a.optimized_layout = opts.optimized_layout;
    a.layout_objective = opts.layout_objective;
    a.lane_spacing = opts.lane_spacing;
    a.seed = opts.seed;
    a.defects = opts.defects;
    return a;
}

SurgeryResult
scheduleSurgery(const circuit::Circuit &circ,
                const SurgeryOptions &opts)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    PatchPrepared prepared(circ, patchArchOptions(opts));
    return scheduleSurgery(circ, opts, prepared);
}

SurgeryResult
scheduleSurgery(const circuit::Circuit &circ,
                const SurgeryOptions &opts,
                const PatchPrepared &prepared)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    fatalIf(opts.code_distance < 1, "code distance must be >= 1");
    fatalIf(opts.rounds_per_hop <= 0,
            "rounds_per_hop must be > 0, got ", opts.rounds_per_hop);
    return Simulator(circ, opts, prepared).run();
}

} // namespace qsurf::surgery
