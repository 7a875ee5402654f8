/**
 * @file
 * Shared simulation primitives of the backend engines.
 *
 * The run-to-completion backends are discrete simulators built from
 * the same small set of mechanisms: a deterministic keyed ready
 * queue, an expiry queue retiring in-flight work, the route-claim
 * escalation of Section 6.1 on the circuit-switched mesh (with
 * memos of the attempts that provably fail again), a pool of
 * identical transport channels, and sweep-line accounting of live
 * resources.  Hoisting them here keeps the schedulers to their
 * policy decisions and guarantees every backend shares the same
 * deterministic tie-breaking, which is what makes parallel sweeps
 * bit-identical at any thread count.  The one cycle loop the braid
 * and hybrid schedulers run over them is engine/loop.h.
 */

#ifndef QSURF_ENGINE_SIM_H
#define QSURF_ENGINE_SIM_H

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <set>
#include <vector>

#include "common/arena.h"
#include "network/mesh.h"
#include "network/route.h"
#include "obs/trace.h"

namespace qsurf::engine {

/**
 * Sort key of one ready item; smaller sorts first.  The three major
 * keys express a backend's priority policy; the insertion sequence
 * number (stamped by ReadyQueue) breaks all remaining ties FIFO, so
 * iteration order never depends on memory layout or hashing.
 */
struct ReadyEntry
{
    int64_t k1 = 0;
    int64_t k2 = 0;
    int64_t k3 = 0;
    uint64_t seq = 0; ///< Insertion order; stamped by ReadyQueue.
    int id = 0;       ///< Backend-defined item id; last tie-break.

    friend bool
    operator<(const ReadyEntry &a, const ReadyEntry &b)
    {
        if (a.k1 != b.k1)
            return a.k1 < b.k1;
        if (a.k2 != b.k2)
            return a.k2 < b.k2;
        if (a.k3 != b.k3)
            return a.k3 < b.k3;
        if (a.seq != b.seq)
            return a.seq < b.seq;
        return a.id < b.id;
    }
};

/**
 * Priority-ordered ready queue with deterministic FIFO tie-breaking.
 * Iteration yields entries best-first; erase/insert during a scan
 * follows std::set iterator rules.  Node storage comes from the
 * thread's scratch arena when one is bound at construction (every
 * insert is a tree-node allocation — by far the hottest allocation
 * site of a simulator run), the global heap otherwise; ordering and
 * results are identical either way.
 */
class ReadyQueue
{
  public:
    using Set = std::set<ReadyEntry, std::less<ReadyEntry>,
                         ArenaAllocator<ReadyEntry>>;
    using iterator = Set::iterator;
    using const_iterator = Set::const_iterator;

    /** Insert @p e, stamping the next insertion sequence number. */
    void
    insert(ReadyEntry e)
    {
        e.seq = next_seq_++;
        entries_.insert(e);
    }

    iterator begin() { return entries_.begin(); }
    iterator end() { return entries_.end(); }
    const_iterator begin() const { return entries_.begin(); }
    const_iterator end() const { return entries_.end(); }

    /** Erase the entry at @p it; @return the next iterator. */
    iterator erase(iterator it) { return entries_.erase(it); }

    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }

  private:
    Set entries_;
    uint64_t next_seq_ = 0;
};

/**
 * Min-heap of (cycle, id) retirement events.  Equal-cycle events pop
 * in ascending id order, so retirement order is deterministic.
 */
class ExpiryQueue
{
  public:
    /** Schedule item @p id to retire at @p cycle. */
    void schedule(uint64_t cycle, int id) { heap_.emplace(cycle, id); }

    bool empty() const { return heap_.empty(); }

    /** @return the earliest scheduled cycle, if any. */
    std::optional<uint64_t>
    nextDeadline() const
    {
        if (heap_.empty())
            return std::nullopt;
        return heap_.top().first;
    }

    /**
     * Pop the earliest event due at or before @p now.
     * @return its id, or nullopt when nothing is ripe.
     */
    std::optional<int>
    popRipe(uint64_t now)
    {
        if (heap_.empty() || heap_.top().first > now)
            return std::nullopt;
        int id = heap_.top().second;
        heap_.pop();
        return id;
    }

  private:
    using Event = std::pair<uint64_t, int>;
    std::priority_queue<Event,
                        std::vector<Event, ArenaAllocator<Event>>,
                        std::greater<>>
        heap_;
};

/** Timeouts of the route-claim escalation (Section 6.1). */
struct RouteClaimOptions
{
    /** Cycles a requester waits before trying the transposed route. */
    int adapt_timeout = 4;

    /** Cycles before falling back to the adaptive BFS detour. */
    int bfs_timeout = 8;
};

/**
 * @return the escalation stage of a requester that has failed to
 * place for @p wait cycles: bit 0 once it also tries the transposed
 * route (and a T gate widens to three candidate factories), bit 1
 * once it also tries the BFS detour.  Two attempts at one stage try
 * the same routes.
 */
inline int
escalationStage(int wait, const RouteClaimOptions &route)
{
    return (wait >= route.adapt_timeout ? 1 : 0)
        | (wait >= route.bfs_timeout ? 2 : 0);
}

/** Why a placement attempt failed. */
enum class FailKind : uint8_t
{
    Denied,  ///< Every candidate route was busy.
    Starved, ///< No candidate factory had a distilled state.
};

/**
 * The time-skipping core of the event-driven schedulers.
 *
 * A cycle-stepped simulator spends most cycles discovering that
 * nothing can change: every in-flight op is mid-stabilization and
 * every stalled op fails placement exactly as it did last cycle.
 * After a placement pass that claims nothing (and drops nothing),
 * the mesh, the ready queue and the factory stocks are all frozen
 * until the next *interesting* event — so the scheduler may jump
 * straight to it, bulk-accounting the elided cycles (wait counters,
 * failure counters, Mesh::tick(n)) instead of replaying them.
 *
 * The planner collects the interesting-event candidates of one such
 * pass:
 *
 *  - eventAt(): an externally scheduled cycle — the next ExpiryQueue
 *    retirement (frees routes, readies successors) or the next
 *    magic-state factory replenishment that raises a stock;
 *  - stalledOp(): the next wait-threshold crossing of a stalled op.
 *    Crossing adapt_timeout or bfs_timeout changes how the op routes
 *    (and, for T gates, how many factories it considers), and
 *    reaching drop_timeout reorders the ready queue — all of which
 *    change results, so the jump must land *on* the crossing, never
 *    beyond it.
 *
 * skippable() then returns how many whole do-nothing iterations can
 * be elided so that the next executed pass is the interesting one.
 * Everything the elided iterations would have done is linear in
 * their count, which is what keeps the fast-forwarded run
 * bit-identical to the one-cycle-at-a-time loop.
 */
class FastForward
{
  public:
    /** Start planning after a no-progress pass at cycle @p now. */
    void
    begin(uint64_t now)
    {
        now_ = now;
        next_ = no_event;
    }

    /** The pass at absolute @p cycle may behave differently. */
    void
    eventAt(uint64_t cycle)
    {
        next_ = std::min(next_, cycle);
    }

    /**
     * Register the escalation thresholds of a stalled op.
     *
     * @param wait_used the wait value the pass just routed with.
     * @param wait_now  the op's wait counter after the pass (usually
     *                  wait_used + 1; Policy 0's drop handling resets
     *                  it instead).
     */
    void
    stalledOp(int wait_used, int wait_now,
              const RouteClaimOptions &route, int drop_timeout)
    {
        // Future passes route with wait_now, wait_now + 1, ...; the
        // first one whose escalation stage differs from the pass
        // just executed is interesting.
        if (wait_used < route.adapt_timeout)
            eventIn(route.adapt_timeout - wait_now + 1);
        else if (wait_used < route.bfs_timeout)
            eventIn(route.bfs_timeout - wait_now + 1);
        // The pass whose failure pushes wait to drop_timeout drops
        // and re-inserts the op, reordering the queue.
        if (drop_timeout > 0)
            eventIn(static_cast<int64_t>(drop_timeout) - wait_now);
    }

    /**
     * @return how many consecutive do-nothing iterations may be
     * elided, given that the simulation fatals past @p horizon
     * anyway (so an event-free schedule still terminates).
     */
    uint64_t
    skippable(uint64_t horizon) const
    {
        uint64_t target = std::min(next_, horizon);
        return target > now_ + 1 ? target - now_ - 1 : 0;
    }

    /** Total cycles elided so far (for skip-ratio reporting). */
    uint64_t skipped() const { return skipped_; }

    /** Record @p n elided cycles. */
    void recordSkip(uint64_t n) { skipped_ += n; }

  private:
    /** A relative candidate; clamped to land no earlier than the
     *  very next pass. */
    void
    eventIn(int64_t delta)
    {
        eventAt(now_ + static_cast<uint64_t>(std::max<int64_t>(
                           1, delta)));
    }

    static constexpr uint64_t no_event = UINT64_MAX;

    uint64_t now_ = 0;
    uint64_t next_ = no_event;
    uint64_t skipped_ = 0;
};

/**
 * The route-claim escalation of Section 6.1, shared by the
 * circuit-switched backends: try the preferred dimension-ordered
 * route, fall back to the transposed one once the requester has
 * waited adapt_timeout cycles, and to a breadth-first detour through
 * currently-free resources after bfs_timeout.  On success the route
 * is claimed on the mesh atomically (the n-hops-in-1-cycle property).
 * An attempt first checks both endpoints: when another owner holds
 * one, every stage fails there, so it fails at once without building
 * or walking a route.  Claim attempts and the BFS detour are
 * allocation-free: validation and claiming share one mesh walk, and
 * the detour search reuses an epoch-stamped scratch owned by the
 * claimer.
 */
class RouteClaimer
{
  public:
    RouteClaimer(network::Mesh &mesh, const RouteClaimOptions &opts)
        : mesh_(mesh), opts_(opts)
    {
    }

    /**
     * Try to claim a route from @p src to @p dst for @p owner.
     *
     * @param wait     cycles the owner has already failed to place;
     *                 drives the escalation.
     * @param yx_first prefer the Y-then-X geometry (Figure 5's
     *                 closing segment); the transposed fallback is
     *                 then X-then-Y.
     * @param blockers when non-null, receives what stopped the
     *                 attempt: an endpoint another owner holds, alone
     *                 (checked first: every stage's route passes
     *                 through both endpoints, so nothing else is
     *                 walked); else the first busy resource of each
     *                 route tried, and the BFS detour's boundary.
     * @return the claimed path, or nullopt when every stage failed.
     */
    std::optional<network::Path>
    tryClaim(const Coord &src, const Coord &dst, int owner, int wait,
             bool yx_first, network::Blockers *blockers = nullptr);

    /** Release @p route, claimed for @p owner. */
    void
    release(const network::Path &route, int owner)
    {
        mesh_.release(route, owner);
    }

    /** Successful placements that needed the transposed route. */
    uint64_t transposeFallbacks() const { return transpose_fallbacks_; }

    /** Successful placements that needed the BFS detour. */
    uint64_t bfsDetours() const { return bfs_detours_; }

    /** @return the stage the last successful claim needed: 0 the
     *  preferred route, 1 the transposed one, 2 the BFS detour. */
    int lastStage() const { return last_stage_; }

  private:
    network::Mesh &mesh_;
    RouteClaimOptions opts_;
    network::BfsScratch scratch_;
    uint64_t transpose_fallbacks_ = 0;
    uint64_t bfs_detours_ = 0;
    int last_stage_ = 0;
};

/**
 * The chain-claiming variant of RouteClaimer, for lattice-surgery
 * merge/split corridors (Section 8.2).
 *
 * Chains differ from braids in two ways.  First, the corridor may
 * not pass *through* a live data patch: every patch terminal is
 * reserved up front, and a chain only touches the two patches it
 * merges (their reservations are suspended while the chain runs).
 * Second, the preferred geometry is not plain dimension-ordered —
 * callers supply corridor-aware primary/fallback routes (built by
 * the patch architecture) and the claimer escalates primary ->
 * fallback -> BFS-through-free-resources on the same timeouts as
 * RouteClaimer.  Like a braid, a granted chain owns its whole
 * corridor exclusively until release().
 */
class ChainClaimer
{
  public:
    ChainClaimer(network::Mesh &mesh, const RouteClaimOptions &opts)
        : mesh_(mesh), opts_(opts),
          reserved_(static_cast<size_t>(mesh.numNodes()), -1)
    {
    }

    /**
     * Reserve @p terminal as a live patch: no chain may route
     * through it (only chains terminating there may touch it).
     */
    void reserveTerminal(const Coord &terminal);

    /**
     * Try to claim the corridor of @p primary (endpoints included)
     * for @p owner.
     *
     * @param primary  preferred corridor route; its endpoints name
     *                 the two patches being merged.
     * @param fallback alternate geometry, tried once the owner has
     *                 waited adapt_timeout cycles.
     * @param wait     cycles the owner has already failed to place.
     * @param blockers when non-null, receives what stopped the
     *                 attempt (see RouteClaimer::tryClaim): the
     *                 endpointHeld() check comes first.
     * @return the claimed corridor, or nullopt when every stage
     *         failed (endpoint reservations are then restored).
     */
    std::optional<network::Path>
    tryClaim(const network::Path &primary,
             const network::Path &fallback, int owner, int wait,
             network::Blockers *blockers = nullptr);

    /**
     * The check tryClaim() makes before anything else, for callers
     * that may skip building the corridors: @return true when an
     * owner other than @p owner holds terminal @p src or @p dst —
     * a terminal's own reservation does not count, since it is lent
     * to the claim — and then append that terminal, alone, to
     * @p blockers.  Every stage's corridor passes through both, so
     * the claim would fail.
     */
    bool endpointHeld(const Coord &src, const Coord &dst, int owner,
                      network::Blockers *blockers) const;

    /** Release @p chain and restore its endpoint reservations. */
    void release(const network::Path &chain, int owner);

    /** Successful placements that needed the fallback geometry. */
    uint64_t transposeFallbacks() const { return transpose_fallbacks_; }

    /** Successful placements that needed the BFS detour. */
    uint64_t bfsDetours() const { return bfs_detours_; }

    /** @return the stage the last successful claim needed: 0 the
     *  primary corridor, 1 the fallback one, 2 the BFS detour. */
    int lastStage() const { return last_stage_; }

  private:
    /** Restore (true) or suspend (false) an endpoint reservation. */
    void setEndpointReserved(const Coord &c, bool reserved);

    /** First sentinel owner id; far above any op id. */
    static constexpr int reserved_owner_base = 1 << 28;

    network::Mesh &mesh_;
    RouteClaimOptions opts_;
    network::BfsScratch scratch_;

    /** Sentinel owner per mesh node, -1 where unreserved: a flat
     *  table sized once, replacing the old std::map<Coord,int>. */
    std::vector<int32_t> reserved_;
    int num_reserved_ = 0;
    uint64_t transpose_fallbacks_ = 0;
    uint64_t bfs_detours_ = 0;
    int last_stage_ = 0;
};

/**
 * Rate-limited magic-state distillation (Section 4.3), shared by
 * every scheduler that sources T gates from factory tiles/patches.
 *
 * Each factory distills one state every production_cycles cycles
 * into a bounded buffer; a T placement consumes one state and a
 * factory with an empty buffer refuses placements (a *starvation*).
 * production_cycles <= 0 models the paper's critical-path-sized
 * factories: supply is never the bottleneck and every query says
 * stocked.  Replenishment order is deterministic (factory index),
 * so schedulers using the pool stay bit-identical across sweep
 * threads and fast-forward modes.
 */
class MagicFactoryPool
{
  public:
    /**
     * Configure @p num_factories factories distilling one state per
     * @p production_cycles into buffers of @p buffer_capacity.
     * Buffers start full; the first refill lands at
     * production_cycles.
     */
    void
    configure(int num_factories, int production_cycles,
              int buffer_capacity)
    {
        production_ = production_cycles;
        capacity_ = buffer_capacity;
        if (production_ <= 0)
            return;
        stock_.assign(static_cast<size_t>(num_factories),
                      buffer_capacity);
        next_ready_.assign(static_cast<size_t>(num_factories),
                           static_cast<uint64_t>(production_cycles));
    }

    /** @return true when production is rate-limited. */
    bool limited() const { return production_ > 0; }

    /**
     * Attach a trace hook; replenish() then emits FactoryReplenish
     * events.  Events are timestamped with the factory's production
     * deadline, not the cycle replenish() happened to be called at,
     * so a fast-forwarding scheduler catching up several refills in
     * one call produces the exact event stream of the stepped loop.
     */
    void setTrace(obs::TraceRecorder *trace) { trace_ = trace; }

    /** @return true when factory @p f can supply a state now. */
    bool
    hasState(int f) const
    {
        if (!limited())
            return true;
        return stock_[static_cast<size_t>(f)] > 0;
    }

    /** Take one state from factory @p f (no-op when unlimited). */
    void consume(int f);

    /**
     * @return a counter bumped by every consume() and every refill
     * that raises a stock: equal versions mean every hasState()
     * answer is unchanged.
     */
    uint64_t version() const { return version_; }

    /** Advance every distillation pipeline to @p now. */
    void
    replenish(uint64_t now)
    {
        if (!limited())
            return;
        for (size_t f = 0; f < stock_.size(); ++f) {
            while (next_ready_[f] <= now) {
                if (stock_[f] < capacity_) {
                    ++stock_[f];
                    ++version_;
                    if (trace_)
                        trace_->record(
                            {next_ready_[f],
                             obs::EventKind::FactoryReplenish,
                             static_cast<int32_t>(f), stock_[f]});
                }
                next_ready_[f] += static_cast<uint64_t>(production_);
            }
        }
    }

    /**
     * Register the next replenishment that raises a stock as a
     * fast-forward event candidate: a refill can change a stalled
     * T gate's candidate factories, so the jump must not overshoot
     * it.
     */
    void
    registerEvents(FastForward &planner) const
    {
        if (!limited())
            return;
        for (size_t f = 0; f < stock_.size(); ++f)
            if (stock_[f] < capacity_)
                planner.eventAt(next_ready_[f]);
    }

  private:
    int production_ = 0;
    int capacity_ = 0;
    std::vector<int> stock_;
    std::vector<uint64_t> next_ready_;
    uint64_t version_ = 0;
    obs::TraceRecorder *trace_ = nullptr;
};

/**
 * Failure memos: skip the placement attempts that provably fail
 * again.
 *
 * Claims only take mesh resources, and only Mesh::release() gives
 * them back.  So once an op's attempt has failed, the same attempt
 * fails again, the same way, for as long as
 *
 *  - none of its blockers — the busy resources that stopped it — has
 *    been released since (Mesh::releaseStamp),
 *  - the magic-state stocks are unchanged (MagicFactoryPool::version;
 *    schedulers key T gates on it), and
 *  - the op routes at the same escalationStage().
 *
 * Such a repeat may be counted as that failure without walking any
 * route.  When another owner holds a route's endpoint, that endpoint
 * is the whole proof: every stage's route passes through it, so the
 * claimers check both endpoints first and report the held one alone,
 * and the memo replays until it is released.  (A terminal's own
 * reservation, which Mesh::suspendNode() lends out without a stamp,
 * never counts as held.)  Otherwise an attempt's blockers are the first
 * busy resource of every route it tried and, for a BFS detour, the
 * busy resources bounding the region the search explored: any free
 * path would have to cross one of them.  A starvation has none; only
 * the stocks decide it.
 *
 * The memo is on exactly when fast-forward is, so the cycle-stepped
 * loop, which walks every attempt, stays the oracle it is tested
 * against.  Memos live in slots taken on a failure and recycled by
 * forget(), so their blocker lists follow the number of stalled ops,
 * not the program size.  Storage comes from the scratch arena bound
 * at construction, if any.
 */
class FailMemos
{
  public:
    /** Memos for op ids [0, @p num_ops); when not @p enabled, every
     *  lookup misses and nothing is recorded. */
    FailMemos(int num_ops, bool enabled);

    /**
     * Look up op @p id's last failure for a new attempt at @p stage,
     * keyed on stock version @p stock.
     *
     * @return the memoised failure when the attempt provably repeats
     * it; otherwise nullopt, and the attempt begins: blockers()
     * collects what stops it, for fail() to memoise.
     */
    std::optional<FailKind> replay(int id, const network::Mesh &mesh,
                                   uint64_t stock, int stage);

    /** @return the blocker sink of the attempt replay() began; null
     *  when disabled. */
    network::Blockers *blockers() { return enabled_ ? &pending_ : nullptr; }

    /** Memoise the attempt replay() began for op @p id as a @p kind
     *  failure; @return @p kind. */
    FailKind fail(int id, const network::Mesh &mesh, FailKind kind);

    /** Drop op @p id's memo: it was placed, re-queued or changes
     *  geometry. */
    void forget(int id);

  private:
    struct Memo
    {
        uint64_t epoch = 0; ///< releaseCount() when last confirmed.
        uint64_t stock = 0;
        int stage = 0;
        FailKind kind = FailKind::Denied;
        network::Blockers blockers;
    };

    /** @return true when none of @p m's blockers was released since
     *  @p m was last confirmed (and confirm it as of now). */
    static bool stillBlocked(Memo &m, const network::Mesh &mesh);

    bool enabled_;
    std::vector<int32_t, ArenaAllocator<int32_t>> slot_; ///< Per op.
    std::vector<Memo, ArenaAllocator<Memo>> memos_;
    std::vector<int32_t, ArenaAllocator<int32_t>> free_;

    /** The attempt in progress: its key and blockers. */
    uint64_t pending_stock_ = 0;
    int pending_stage_ = 0;
    network::Blockers pending_;
};

/**
 * A pool of identical transport channels.  acquire() reserves the
 * earliest free slot, modelling a bandwidth-limited link set whose
 * transfers queue when all channels are busy.
 */
class ChannelPool
{
  public:
    /** @param slots concurrent transfers the pool sustains. */
    explicit ChannelPool(int slots) : slots_(slots) {}

    /**
     * Reserve a slot for a transfer of @p duration cycles starting no
     * earlier than @p earliest.
     * @return the actual start cycle (>= @p earliest).
     */
    uint64_t
    acquire(uint64_t earliest, uint64_t duration)
    {
        uint64_t start = earliest;
        while (static_cast<int>(busy_until_.size()) >= slots_) {
            start = std::max(start, busy_until_.top());
            busy_until_.pop();
        }
        busy_until_.push(start + duration);
        return start;
    }

    /**
     * @return the cycle at which acquire(@p earliest, ...) would
     * start, without reserving anything — the queueing-delay peek a
     * cost-model arbiter uses to price a transfer before committing
     * to it.
     */
    uint64_t
    earliestStart(uint64_t earliest) const
    {
        if (static_cast<int>(busy_until_.size()) < slots_)
            return earliest;
        return std::max(earliest, busy_until_.top());
    }

  private:
    int slots_;
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<>>
        busy_until_;
};

/**
 * Sweep-line accounting of live intervals (+1 at start, -1 at end):
 * peak concurrency and the time-averaged population over a horizon.
 */
class LiveIntervalProfile
{
  public:
    /** Record one interval live from @p start to @p end. */
    void
    add(uint64_t start, uint64_t end)
    {
        deltas_.emplace_back(start, +1);
        deltas_.emplace_back(end, -1);
    }

    struct Summary
    {
        uint64_t peak = 0;  ///< Maximum simultaneous intervals.
        double average = 0; ///< Time-averaged population.
    };

    /** Summarize over @p total_cycles (for the average).  Sorts the
     *  recorded deltas in place rather than a copy of them. */
    Summary summarize(uint64_t total_cycles);

  private:
    std::vector<std::pair<uint64_t, int>> deltas_;
};

} // namespace qsurf::engine

#endif // QSURF_ENGINE_SIM_H
