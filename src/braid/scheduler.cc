#include "braid/scheduler.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "common/logging.h"
#include "engine/sim.h"
#include "network/route.h"

namespace qsurf::braid {

const char *
policyName(Policy policy)
{
    static const char *names[num_policies] = {
        "Policy 0", "Policy 1", "Policy 2", "Policy 3",
        "Policy 4", "Policy 5", "Policy 6",
    };
    auto i = static_cast<size_t>(policy);
    panicIf(i >= num_policies, "bad policy ", static_cast<int>(policy));
    return names[i];
}

namespace {

using circuit::GateKind;

/** How an op uses the machine. */
enum class OpClass : uint8_t
{
    Local, ///< 1-qubit non-T gate: tile-local, d cycles.
    TGate, ///< T/Tdag: one braid to a factory, d+1 cycles.
    TwoQ,  ///< 2-qubit gate: two braid segments, 2d+2 cycles.
};

/** Progress of one op through its stages. */
enum class Stage : uint8_t
{
    Blocked,    ///< Dependencies outstanding.
    Ready,      ///< First segment (or local body) may start.
    Seg1Active, ///< First braid segment stabilizing.
    Seg2Ready,  ///< Second segment may start (closing braid).
    Seg2Active, ///< Second braid segment stabilizing.
    Done,
};

struct OpRec
{
    OpClass cls = OpClass::Local;
    Stage stage = Stage::Blocked;
    int32_t qa = -1;
    int32_t qb = -1;
    int pending_preds = 0;
    int wait = 0;          ///< Cycles spent failing to place.
    int est_len = 0;       ///< Manhattan estimate for Policy 4/6.
    network::Path route;   ///< Currently claimed route.
};

OpClass
classify(const circuit::Gate &g)
{
    if (consumesMagicState(g.kind))
        return OpClass::TGate;
    int arity = g.arity();
    fatalIf(arity > 2, "gate ", circuit::gateName(g.kind),
            " must be decomposed before braid scheduling");
    return arity == 2 ? OpClass::TwoQ : OpClass::Local;
}

uint64_t
opLatency(OpClass cls, int d)
{
    switch (cls) {
      case OpClass::Local:
        return static_cast<uint64_t>(d);
      case OpClass::TGate:
        return static_cast<uint64_t>(d) + 1;
      case OpClass::TwoQ:
        return 2 * static_cast<uint64_t>(d) + 2;
    }
    panic("bad OpClass");
}

/** The simulator. */
class Simulator
{
  public:
    Simulator(const circuit::Circuit &circ, Policy policy,
              const BraidOptions &opts, const BraidPrepared &prep)
        : circ(circ), policy(policy), opts(opts), dag(prep.dag),
          graph(prep.graph), arch(prep.arch), mesh(arch.makeMesh()),
          claim_opts(makeClaimOptions(opts)),
          claimer(mesh, claim_opts), crit(prep.crit),
          memos(circ.size(), opts.fast_forward), trace(opts.trace)
    {
        if (trace) {
            trace->meshDims(mesh.width(), mesh.height());
            obs::traceMeshDefects(trace, mesh);
        }
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
        // Policy 6 treats the top criticality quartile as "highest
        // criticality" (short-first); the rest go long-first.
        std::vector<int> sorted_crit = crit;
        std::sort(sorted_crit.begin(), sorted_crit.end());
        crit_threshold = sorted_crit.empty()
            ? 0
            : sorted_crit[sorted_crit.size() * 3 / 4];
    }

    BraidResult
    run()
    {
        seedReady();
        uint64_t completed = 0;
        auto total = static_cast<uint64_t>(circ.size());

        while (completed < total) {
            fatalIf(cycle > opts.max_cycles,
                    "braid simulation exceeded ", opts.max_cycles,
                    " cycles; likely a configuration problem");
            factories.replenish(cycle);
            placementPhase();
            if (opts.fast_forward)
                fastForwardPhase();
            mesh.tick();
            ++cycle;
            completed += completionPhase();
        }

        BraidResult out;
        out.schedule_cycles = cycle;
        out.critical_path_cycles =
            braidCriticalPath(circ, dag, opts.code_distance);
        out.mesh_utilization = mesh.utilization();
        out.braids_placed = braids_placed;
        out.placement_failures = placement_failures;
        out.yx_fallbacks = claimer.transposeFallbacks();
        out.bfs_detours = claimer.bfsDetours();
        out.drops = drops;
        out.magic_starvations = magic_starvations;
        out.layout_cost = arch.layoutCost(graph);
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
    makeClaimOptions(const BraidOptions &opts)
    {
        engine::RouteClaimOptions c;
        c.adapt_timeout = opts.adapt_timeout;
        c.bfs_timeout = opts.bfs_timeout;
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
            op.est_len = estimateLength(op);
        }
    }

    int
    estimateLength(const OpRec &op) const
    {
        switch (op.cls) {
          case OpClass::Local:
            return 0;
          case OpClass::TGate: {
            int f = factory_order[static_cast<size_t>(op.qa)]
                        .front();
            return manhattan(arch.terminal(op.qa),
                             arch.factoryTerminal(f));
          }
          case OpClass::TwoQ:
            return manhattan(arch.terminal(op.qa),
                             arch.terminal(op.qb));
        }
        panic("bad OpClass");
    }

    void
    seedReady()
    {
        for (int i = 0; i < circ.size(); ++i)
            if (ops[static_cast<size_t>(i)].pending_preds == 0)
                makeReady(i, Stage::Ready);
    }

    void
    makeReady(int i, Stage stage)
    {
        ops[static_cast<size_t>(i)].stage = stage;
        ops[static_cast<size_t>(i)].wait = 0;
        // The closing segment routes YX-first: a new geometry.
        memos.forget(i);
        ready.insert(makeEntry(i));
        if (trace)
            trace->record({cycle, obs::EventKind::OpReady, i,
                           stage == Stage::Seg2Ready ? 1 : 0});
    }

    /** Build the policy-specific sort key (Section 6.3). */
    engine::ReadyEntry
    makeEntry(int i)
    {
        const OpRec &op = ops[static_cast<size_t>(i)];
        engine::ReadyEntry e;
        e.id = i;
        bool closing = op.stage == Stage::Seg2Ready;
        switch (policy) {
          case Policy::ProgramOrder:
          case Policy::Interleave:
          case Policy::Layout:
            // FIFO by readiness.
            break;
          case Policy::Criticality:
            e.k1 = -crit[static_cast<size_t>(i)];
            break;
          case Policy::Length:
            e.k1 = -op.est_len;
            break;
          case Policy::Type:
            e.k1 = closing ? 0 : 1;
            break;
          case Policy::Combined:
            e.k1 = closing ? 0 : 1;
            e.k2 = -crit[static_cast<size_t>(i)];
            e.k3 = crit[static_cast<size_t>(i)] >= crit_threshold
                ? op.est_len   // highest criticality: short first.
                : -op.est_len; // lower criticality: long first.
            break;
        }
        return e;
    }

    /**
     * Try to claim a route for op @p i (stage-appropriate segment)
     * via the engine's shared XY -> YX -> BFS escalation.
     */
    bool
    tryPlace(int i)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        if (op.cls == OpClass::Local) {
            if (trace)
                trace->record({cycle, obs::EventKind::OpIssue, i, 0,
                               opts.code_distance});
            activate(i, opts.code_distance);
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
        // Candidate destinations: (router, factory index or -1).
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

        // Figure 5: the two segments take different geometries; we
        // open part 1 XY-first and part 2 YX-first.
        bool closing = op.stage == Stage::Seg2Ready;
        uint64_t transpose_before = 0;
        uint64_t bfs_before = 0;
        if (trace) {
            transpose_before = claimer.transposeFallbacks();
            bfs_before = claimer.bfsDetours();
        }
        for (const auto &[dst, factory] : dsts) {
            auto path = claimer.tryClaim(src, dst, i, op.wait,
                                         closing, blockers);
            if (path) {
                factories.consume(factory);
                if (trace) {
                    int64_t stage =
                        claimer.bfsDetours() > bfs_before ? 2
                        : claimer.transposeFallbacks()
                                > transpose_before
                            ? 1
                            : 0;
                    trace->record({cycle,
                                   obs::EventKind::RouteClaim, i,
                                   stage, path->hops(), factory});
                    if (stage > 0)
                        trace->record(
                            {cycle, obs::EventKind::RouteFallback,
                             i, stage});
                    trace->routeHeld(
                        *path, cycle,
                        static_cast<uint64_t>(opts.code_distance)
                            + 1);
                    trace->record(
                        {cycle, obs::EventKind::OpIssue, i,
                         op.cls == OpClass::TGate ? 1 : 2,
                         opts.code_distance + 1});
                }
                placed(i, std::move(*path));
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

    /** Record a successful placement on an already-claimed route. */
    void
    placed(int i, network::Path path)
    {
        OpRec &op = ops[static_cast<size_t>(i)];
        op.route = std::move(path);
        ++braids_placed;
        // Braid open consumes one cycle, then d stabilization rounds.
        activate(i, opts.code_distance + 1);
    }

    void
    activate(int i, int duration)
    {
        memos.forget(i);
        OpRec &op = ops[static_cast<size_t>(i)];
        op.stage = op.stage == Stage::Seg2Ready ? Stage::Seg2Active
                                                : Stage::Seg1Active;
        expiry.schedule(cycle + static_cast<uint64_t>(duration), i);
    }

    /** Greedy placement, policy-ordered; Policy 0 is one-at-a-time. */
    void
    placementPhase()
    {
        pass_placed = 0;
        pass_dropped = 0;
        pass_starved = 0;
        attempted.clear();

        if (policy == Policy::ProgramOrder) {
            programOrderPlacement();
            return;
        }

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
                op.wait = 0;
                memos.forget(i);
                it = ready.erase(it);
                dropped_scratch.push_back(i);
                if (trace)
                    trace->record(
                        {cycle, obs::EventKind::RouteDrop, i});
                continue;
            }
            attempted.push_back({i, wait_used});
            ++it;
        }
        for (int i : dropped_scratch)
            ready.insert(makeEntry(i));
    }

    /**
     * Policy 0: only the program-order-next event may start, at most
     * one per cycle; nothing may bypass a blocked event.
     */
    void
    programOrderPlacement()
    {
        auto head = ready.end();
        for (auto it = ready.begin(); it != ready.end(); ++it)
            if (head == ready.end() || it->id < head->id)
                head = it;
        if (head == ready.end())
            return;

        int i = head->id;
        int wait_used = ops[static_cast<size_t>(i)].wait;
        if (tryPlace(i)) {
            ++pass_placed;
            ready.erase(head);
            return;
        }
        ++placement_failures;
        OpRec &op = ops[static_cast<size_t>(i)];
        ++op.wait;
        if (op.wait >= opts.drop_timeout) {
            // Dropping is meaningless under strict order; keep the
            // route-adaptivity escalation armed and count the event.
            ++drops;
            ++pass_dropped;
            op.wait = opts.bfs_timeout;
            memos.forget(i);
            if (trace)
                trace->record({cycle, obs::EventKind::RouteDrop, i});
        }
        attempted.push_back({i, wait_used});
    }

    /**
     * When the pass above placed nothing (and dropped nothing, so
     * the ready queue kept its order), every iteration until the
     * next interesting event is a pure repetition: same failed
     * attempts, same starvations, wait counters +1 each.  Jump
     * there, accounting the elided iterations in bulk.
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
            trace->record({cycle, obs::EventKind::FastForwardSkip,
                           -1, static_cast<int64_t>(skip)});
        cycle += skip;
        magic_starvations += pass_starved * skip;
    }

    /** Retire expired segments; returns number of ops completed. */
    uint64_t
    completionPhase()
    {
        uint64_t completed = 0;
        while (auto ripe = expiry.popRipe(cycle)) {
            int i = *ripe;
            OpRec &op = ops[static_cast<size_t>(i)];
            if (!op.route.empty()) {
                mesh.release(op.route, i);
                op.route = network::Path{};
            }
            if (op.cls == OpClass::TwoQ
                && op.stage == Stage::Seg1Active) {
                makeReady(i, Stage::Seg2Ready);
                continue;
            }
            op.stage = Stage::Done;
            ++completed;
            if (trace)
                trace->record({cycle, obs::EventKind::OpRetire, i});
            for (int s : dag.succs(i))
                if (--ops[static_cast<size_t>(s)].pending_preds == 0)
                    makeReady(s, Stage::Ready);
        }
        return completed;
    }

    const circuit::Circuit &circ;
    Policy policy;
    const BraidOptions &opts;
    const circuit::Dag &dag;
    const circuit::InteractionGraph &graph;
    const TiledArch &arch;
    network::Mesh mesh;
    engine::RouteClaimOptions claim_opts;
    engine::RouteClaimer claimer;

    std::vector<OpRec> ops;
    const std::vector<int> &crit;
    std::vector<std::vector<int>> factory_order; ///< Per qubit.
    int crit_threshold = 0;
    engine::ReadyQueue ready;
    engine::ExpiryQueue expiry;
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

    uint64_t braids_placed = 0;
    uint64_t placement_failures = 0;
    uint64_t drops = 0;
    uint64_t magic_starvations = 0;
};

} // namespace

uint64_t
braidCriticalPath(const circuit::Circuit &circ, const circuit::Dag &dag,
                  int d)
{
    fatalIf(d < 1, "code distance must be >= 1, got ", d);
    std::vector<uint64_t> finish(static_cast<size_t>(circ.size()), 0);
    uint64_t best = 0;
    for (int i = 0; i < circ.size(); ++i) {
        uint64_t start = 0;
        for (int p : dag.preds(i))
            start = std::max(start, finish[static_cast<size_t>(p)]);
        uint64_t lat = opLatency(classify(circ.gate(i)), d);
        finish[static_cast<size_t>(i)] = start + lat;
        best = std::max(best, finish[static_cast<size_t>(i)]);
    }
    return best;
}

BraidPrepared::BraidPrepared(const circuit::Circuit &circ,
                             const TiledArchOptions &arch_opts)
    : dag(circ), graph(circuit::interactionGraph(circ)),
      arch(graph, arch_opts), crit(circuit::criticality(dag))
{
}

TiledArchOptions
braidArchOptions(Policy policy, const BraidOptions &opts)
{
    TiledArchOptions a;
    a.tiles_per_factory = opts.tiles_per_factory;
    a.optimized_layout = static_cast<int>(policy) >= 2;
    a.seed = opts.seed;
    a.defects = opts.defects;
    return a;
}

BraidResult
scheduleBraids(const circuit::Circuit &circ, Policy policy,
               const BraidOptions &opts)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    BraidPrepared prepared(circ, braidArchOptions(policy, opts));
    return scheduleBraids(circ, policy, opts, prepared);
}

BraidResult
scheduleBraids(const circuit::Circuit &circ, Policy policy,
               const BraidOptions &opts, const BraidPrepared &prepared)
{
    fatalIf(circ.empty(), "cannot schedule an empty circuit");
    fatalIf(opts.code_distance < 1, "code distance must be >= 1");
    return Simulator(circ, policy, opts, prepared).run();
}

} // namespace qsurf::braid
