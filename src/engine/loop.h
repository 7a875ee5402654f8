/**
 * @file
 * The event-driven scheduling loop of the circuit-switched backends
 * (Sections 6.1 and 6.3), written once for every communication
 * scheme.
 *
 * The paper schedules braids with one greedy, dependence-driven
 * loop: each cycle the ready ops try, in priority order, to claim a
 * whole route and hold it; an op that cannot adapts its route with
 * the time it has waited and is eventually dropped and re-injected.
 * Loop owns everything about that loop that does not depend on what
 * a route is for — the ready and expiry queues, the failure memos,
 * the magic-state factory pool, each pass's stall and drop
 * accounting, the fast-forward jump, retirement and dependence
 * release, and the OpReady, OpIssue, RouteClaim, RouteFallback,
 * RouteDrop and OpRetire trace events.  A scheme is the class that
 * derives from it (CRTP) and supplies only:
 *
 *  - `ReadyEntry key(int i)`: op @c i's ready-queue sort key;
 *  - `std::optional<FailKind> claim(int i, Op &op)`: place a
 *    non-local op whose failure memo did not replay — claim a route
 *    through the claimer and hold() it (or issue() it off-mesh), or
 *    say why it failed;
 *  - `void dropped(int i, Op &op)`: what a drop changes besides the
 *    re-queue (default: nothing);
 *  - `bool retire(int i, Op &op)`: what a finished hold does, after
 *    the loop released its route; false keeps the op alive (it has
 *    re-readied itself), true retires it (default: true);
 *  - its result struct, filled by report() and its own counters.
 *
 * Calls into the scheme are resolved at compile time: the placement
 * pass is the hot loop of every congested run.
 */

#ifndef QSURF_ENGINE_LOOP_H
#define QSURF_ENGINE_LOOP_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/dag.h"
#include "circuit/interaction.h"
#include "common/logging.h"
#include "engine/sim.h"
#include "fabric/defect.h"
#include "obs/trace.h"

namespace qsurf::engine {

/** The loop's knobs; every scheme's options derive from them. */
struct LoopOptions
{
    /** Code distance d: local ops take d cycles, holds scale with d. */
    int code_distance = 5;

    /** Cycles an op waits before trying the transposed route. */
    int adapt_timeout = 4;

    /** Cycles before falling back to the adaptive BFS detour. */
    int bfs_timeout = 8;

    /** Cycles before the op is dropped and re-injected. */
    int drop_timeout = 16;

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
     * their memos (FailMemos).  Results are bit-identical either
     * way; disabling runs the cycle-stepped loop, the oracle the
     * fast path is tested against.
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

/** The counters the loop keeps for every scheme; each scheme's
 *  result struct derives from it. */
struct LoopResult
{
    /** Total cycles to complete the program. */
    uint64_t schedule_cycles = 0;

    /** Dependence-limited lower bound (unbounded resources). */
    uint64_t critical_path_cycles = 0;

    /** Average fraction of mesh links busy. */
    double mesh_utilization = 0;

    /** Failed placement attempts (route conflicts). */
    uint64_t placement_failures = 0;

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

/** How an op uses the machine. */
enum class OpClass : uint8_t
{
    Local, ///< 1-qubit non-T gate: tile-local, d cycles.
    TGate, ///< T/Tdag: sources a state from a factory.
    TwoQ,  ///< 2-qubit gate: communicates between two qubits.
};

/**
 * @return how gate @p g uses the machine; fatal()s on a gate of
 * arity above 2, which @p scheduler needs decomposed first.
 */
inline OpClass
classify(const circuit::Gate &g, const char *scheduler)
{
    if (circuit::consumesMagicState(g.kind))
        return OpClass::TGate;
    int arity = g.arity();
    // Not fatalIf: its arguments, the gate's name among them, would
    // be built for every gate of every run.
    if (arity > 2)
        fatal("gate ", circuit::gateName(g.kind),
              " must be decomposed before ", scheduler, " scheduling");
    return arity == 2 ? OpClass::TwoQ : OpClass::Local;
}

/**
 * The loop's per-op state; a scheme's op record derives from it.
 * The route comes first, so the scalars end in tail padding that a
 * scheme's flags, declared first, fill: the derived record is no
 * larger than LoopOp (on the Itanium C++ ABI).
 */
struct LoopOp
{
    network::Path route; ///< Currently held route; empty when none.
    int32_t qa = -1;
    int32_t qb = -1;
    int pending_preds = 0;
    int wait = 0; ///< Cycles spent failing to place.
    OpClass cls = OpClass::Local;
};

/**
 * The scheduling loop, with its scheme @p Scheme (which derives from
 * it), the scheme's op record @p Op (derived from LoopOp), the
 * prepare artifact @p Prepared it runs on (its dag, graph, arch and
 * crit) and the @p Claimer its routes go through (RouteClaimer or
 * ChainClaimer).
 */
template <typename Scheme, typename Op, typename Prepared,
          typename Claimer>
class Loop
{
  public:
    // The claimer refers to the mesh beside it: a copy would claim on
    // the original's mesh.
    Loop(const Loop &) = delete;
    Loop &operator=(const Loop &) = delete;

  protected:
    using Arch = decltype(Prepared::arch);

    /** Failed placement attempts that end a pass early. */
    static constexpr int max_attempts_per_cycle = 64;

    /**
     * @param name          the scheduler's name in fatal messages.
     * @param program_order Policy 0's strict pass: only the
     *                      lowest-id ready op may start, at most one
     *                      per cycle, and a drop does not re-queue.
     */
    Loop(const char *name, const circuit::Circuit &circ,
         const Prepared &prep, const LoopOptions &opts,
         bool program_order)
        : circ(circ), dag(prep.dag), graph(prep.graph),
          arch(prep.arch), crit(prep.crit), opts(opts),
          mesh(arch.makeMesh()),
          claim_opts{opts.adapt_timeout, opts.bfs_timeout},
          claimer(mesh, claim_opts),
          memos(circ.size(), opts.fast_forward), trace(opts.trace),
          name_(name), program_order_(program_order)
    {
        if (trace) {
            trace->meshDims(mesh.width(), mesh.height());
            obs::traceMeshDefects(trace, mesh);
        }
        // Factory preference orders are a pure function of the
        // static layout; memoize them per qubit so a stalled T gate
        // doesn't re-sort the factory list every failed attempt.
        factory_order.resize(static_cast<size_t>(graph.num_qubits));
        for (int q = 0; q < graph.num_qubits; ++q)
            factory_order[static_cast<size_t>(q)] =
                arch.factoriesByDistance(q);
        ops.resize(static_cast<size_t>(circ.size()));
        for (int i = 0; i < circ.size(); ++i) {
            const circuit::Gate &g = circ.gate(i);
            Op &op = ops[static_cast<size_t>(i)];
            op.cls = classify(g, name);
            op.qa = g.qubit[0];
            op.qb = g.arity() == 2 ? g.qubit[1] : -1;
            op.pending_preds = static_cast<int>(dag.preds(i).size());
        }
        factories.configure(arch.numFactories(),
                            opts.magic_production_cycles,
                            opts.magic_buffer_capacity);
        factories.setTrace(trace);
    }

    /** Run the program to completion. */
    void
    loop()
    {
        for (int i = 0; i < circ.size(); ++i)
            if (ops[static_cast<size_t>(i)].pending_preds == 0)
                makeReady(i);
        uint64_t completed = 0;
        auto total = static_cast<uint64_t>(circ.size());

        while (completed < total) {
            fatalIf(cycle > opts.max_cycles, name_,
                    " simulation exceeded ", opts.max_cycles,
                    " cycles; likely a configuration problem");
            factories.replenish(cycle);
            placementPhase();
            if (opts.fast_forward)
                fastForwardPhase();
            mesh.tick();
            ++cycle;
            completed += completionPhase();
        }
    }

    /** Fill the counters every scheme reports (all but the critical
     *  path, which only the scheme's latency model knows). */
    void
    report(LoopResult &out) const
    {
        out.schedule_cycles = cycle;
        out.mesh_utilization = mesh.utilization();
        out.placement_failures = placement_failures;
        out.bfs_detours = claimer.bfsDetours();
        out.drops = drops;
        out.magic_starvations = magic_starvations;
        out.layout_cost = arch.layoutCost(graph);
        out.ff_skipped_cycles = ff.skipped();
        out.defect_dead_fraction = arch.defects().deadFraction();
        out.defect_avg_multiplier = arch.defects().avgErrorMultiplier();
        out.defective_nodes =
            static_cast<uint64_t>(mesh.numDefectiveNodes());
        out.defective_links =
            static_cast<uint64_t>(mesh.numDefectiveLinks());
    }

    /** Queue op @p i (segment @p segment, for the OpReady event) at
     *  its scheme's key, with a fresh wait and no memo. */
    void
    makeReady(int i, int64_t segment = 0)
    {
        ops[static_cast<size_t>(i)].wait = 0;
        memos.forget(i);
        ready.insert(self().key(i));
        if (trace)
            trace->record({cycle, obs::EventKind::OpReady, i, segment});
    }

    /**
     * Fill dsts with op @p op's candidate destinations as (terminal,
     * factory index or -1): its partner's terminal, or for a T gate
     * the nearest factories — widening from 1 to 3 candidates once
     * the op has waited past adapt_timeout — that have a state.
     * @return false when a T gate found none (a starvation).
     */
    bool
    destinations(const Op &op)
    {
        dsts.clear();
        if (op.cls == OpClass::TwoQ) {
            dsts.emplace_back(arch.terminal(op.qb), -1);
            return true;
        }
        const std::vector<int> &order =
            factory_order[static_cast<size_t>(op.qa)];
        size_t limit = op.wait >= opts.adapt_timeout
            ? std::min<size_t>(3, order.size())
            : 1;
        for (size_t f = 0; f < limit; ++f)
            if (factories.hasState(order[f]))
                dsts.emplace_back(arch.factoryTerminal(order[f]),
                                  order[f]);
        return !dsts.empty();
    }

    /** Op @p i claimed @p route at escalation stage @p stage (0
     *  primary, 1 transposed, 2 BFS) toward @p factory (-1: none):
     *  take the factory's state and trace the claim. */
    void
    claimed(int i, const network::Path &route, int stage, int factory)
    {
        factories.consume(factory);
        if (!trace)
            return;
        trace->record({cycle, obs::EventKind::RouteClaim, i, stage,
                       route.hops(), factory});
        if (stage > 0)
            trace->record(
                {cycle, obs::EventKind::RouteFallback, i, stage});
    }

    /** Hold @p route for op @p i for @p duration cycles on trace
     *  lane @p lane; the loop releases it when the op retires. */
    void
    hold(int i, network::Path &&route, uint64_t duration, int64_t lane)
    {
        if (trace)
            trace->routeHeld(route, cycle, duration);
        ops[static_cast<size_t>(i)].route = std::move(route);
        issue(i, duration, lane);
    }

    /** Start op @p i: it retires @p duration cycles from now. */
    void
    issue(int i, uint64_t duration, int64_t lane)
    {
        if (trace)
            trace->record({cycle, obs::EventKind::OpIssue, i, lane,
                           static_cast<int64_t>(duration)});
        memos.forget(i);
        expiry.schedule(cycle + duration, i);
    }

    /** Scheme hook defaults: a drop only re-queues, and a finished
     *  hold retires its op. */
    void dropped(int, Op &) {}
    bool retire(int, Op &) { return true; }

    const circuit::Circuit &circ;
    const circuit::Dag &dag;
    const circuit::InteractionGraph &graph;
    const Arch &arch;
    const std::vector<int> &crit;
    const LoopOptions &opts;
    network::Mesh mesh;
    RouteClaimOptions claim_opts;
    Claimer claimer;

    std::vector<Op> ops;
    std::vector<std::vector<int>> factory_order; ///< Per qubit.
    MagicFactoryPool factories;
    FailMemos memos;
    obs::TraceRecorder *trace;
    uint64_t cycle = 0;

    /** destinations()' output: (terminal, factory index or -1). */
    std::vector<std::pair<Coord, int>> dsts;

    uint64_t local_ops = 0;

  private:
    Scheme &self() { return static_cast<Scheme &>(*this); }

    /** Try to start op @p i; @return true when it did. */
    bool
    tryPlace(int i)
    {
        Op &op = ops[static_cast<size_t>(i)];
        if (op.cls == OpClass::Local) {
            ++local_ops;
            issue(i, static_cast<uint64_t>(opts.code_distance), 0);
            return true;
        }
        uint64_t stock =
            op.cls == OpClass::TGate ? factories.version() : 0;
        std::optional<FailKind> fail = memos.replay(
            i, mesh, stock, escalationStage(op.wait, claim_opts));
        if (!fail) {
            fail = self().claim(i, op);
            if (!fail)
                return true;
            memos.fail(i, mesh, *fail);
        }
        stalled(i, *fail);
        return false;
    }

    /**
     * Account a failed attempt of op @p i, real or replayed from its
     * memo — one path, so the two cannot drift apart — and trace it
     * on the passes obs::stallEventGate() admits.
     */
    void
    stalled(int i, FailKind kind)
    {
        if (kind == FailKind::Starved) {
            ++magic_starvations;
            ++pass_starved;
        }
        int wait = ops[static_cast<size_t>(i)].wait;
        if (!trace
            || !obs::stallEventGate(wait, opts.adapt_timeout,
                                    opts.bfs_timeout))
            return;
        if (kind == FailKind::Starved)
            trace->record({cycle, obs::EventKind::FactoryStarve, i});
        else
            trace->record({cycle, obs::EventKind::RouteDeny, i, wait});
    }

    /** One failed attempt of the pass: count it, and drop the op
     *  once it has waited drop_timeout.  @return true on a drop. */
    bool
    failedAttempt(int i, Op &op)
    {
        ++placement_failures;
        if (++op.wait < opts.drop_timeout)
            return false;
        ++drops;
        ++pass_dropped;
        memos.forget(i);
        return true;
    }

    /** Greedy placement in key order; Policy 0 is one-at-a-time. */
    void
    placementPhase()
    {
        pass_placed = 0;
        pass_dropped = 0;
        pass_starved = 0;
        attempted.clear();

        if (program_order_) {
            programOrderPlacement();
            return;
        }

        int failures = 0;
        requeue.clear();
        auto it = ready.begin();
        while (it != ready.end() && failures < max_attempts_per_cycle) {
            int i = it->id;
            Op &op = ops[static_cast<size_t>(i)];
            int wait_used = op.wait;
            if (tryPlace(i)) {
                ++pass_placed;
                it = ready.erase(it);
                continue;
            }
            ++failures;
            if (failedAttempt(i, op)) {
                // Drop and re-inject at the back of the queue.
                op.wait = 0;
                if (trace)
                    trace->record(
                        {cycle, obs::EventKind::RouteDrop, i});
                self().dropped(i, op);
                it = ready.erase(it);
                requeue.push_back(i);
                continue;
            }
            attempted.push_back({i, wait_used});
            ++it;
        }
        for (int i : requeue)
            ready.insert(self().key(i));
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
        Op &op = ops[static_cast<size_t>(i)];
        int wait_used = op.wait;
        if (tryPlace(i)) {
            ++pass_placed;
            ready.erase(head);
            return;
        }
        if (failedAttempt(i, op)) {
            // Dropping is meaningless under strict order; keep the
            // route-adaptivity escalation armed and count the event.
            op.wait = opts.bfs_timeout;
            if (trace)
                trace->record({cycle, obs::EventKind::RouteDrop, i});
            self().dropped(i, op);
        }
        attempted.push_back({i, wait_used});
    }

    /**
     * When the pass above placed nothing (and dropped nothing, so
     * the ready queue kept its order), every iteration until the
     * next interesting event of any scheme is a pure repetition:
     * same failed attempts, same starvations, wait counters +1 each.
     * Jump there — the earliest retirement (every hold retires
     * through the one expiry queue), a stalled op's escalation
     * threshold or a factory replenishment — accounting the elided
     * iterations in bulk.
     */
    void
    fastForwardPhase()
    {
        if (pass_placed > 0 || pass_dropped > 0)
            return;
        ff.begin(cycle);
        if (auto deadline = expiry.nextDeadline())
            ff.eventAt(*deadline);
        // A replenishment that raises a stock can change a T gate's
        // candidate factories.
        factories.registerEvents(ff);
        for (const auto &[i, wait_used] : attempted)
            ff.stalledOp(wait_used, ops[static_cast<size_t>(i)].wait,
                         claim_opts, opts.drop_timeout);

        uint64_t skip = ff.skippable(opts.max_cycles + 1);
        if (skip == 0)
            return;
        ff.recordSkip(skip);
        mesh.tick(skip);
        placement_failures +=
            static_cast<uint64_t>(attempted.size()) * skip;
        for (const auto &[i, wait_used] : attempted)
            ops[static_cast<size_t>(i)].wait += static_cast<int>(skip);
        if (trace)
            trace->record({cycle, obs::EventKind::FastForwardSkip, -1,
                           static_cast<int64_t>(skip)});
        cycle += skip;
        magic_starvations += pass_starved * skip;
    }

    /** Retire expired holds; @return the number of ops completed. */
    uint64_t
    completionPhase()
    {
        uint64_t completed = 0;
        while (auto ripe = expiry.popRipe(cycle)) {
            int i = *ripe;
            Op &op = ops[static_cast<size_t>(i)];
            if (!op.route.empty()) {
                claimer.release(op.route, i);
                op.route = network::Path{};
            }
            if (!self().retire(i, op))
                continue;
            if (trace)
                trace->record({cycle, obs::EventKind::OpRetire, i});
            ++completed;
            for (int s : dag.succs(i))
                if (--ops[static_cast<size_t>(s)].pending_preds == 0)
                    makeReady(s);
        }
        return completed;
    }

    const char *name_;
    bool program_order_;
    ReadyQueue ready;
    ExpiryQueue expiry;
    FastForward ff;

    uint64_t placement_failures = 0;
    uint64_t drops = 0;
    uint64_t magic_starvations = 0;

    /** Per-pass bookkeeping feeding fastForwardPhase(). */
    uint64_t pass_placed = 0;
    uint64_t pass_dropped = 0;
    uint64_t pass_starved = 0;
    std::vector<std::pair<int, int>> attempted; ///< (id, wait used).
    std::vector<int> requeue; ///< Dropped this pass, re-queued after.
};

} // namespace qsurf::engine

#endif // QSURF_ENGINE_LOOP_H
