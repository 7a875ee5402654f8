#include "braid/scheduler.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/dag.h"
#include "circuit/schedule.h"
#include "common/logging.h"

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

using engine::OpClass;

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

struct BraidOp : engine::LoopOp
{
    bool closing = false; ///< Second segment (closing braid).
    int est_len = 0;      ///< Manhattan estimate for Policy 4/6.
};

/** The braid scheme of the shared loop. */
class BraidSim
    : public engine::Loop<BraidSim, BraidOp, BraidPrepared,
                          engine::RouteClaimer>
{
    using Base = engine::Loop<BraidSim, BraidOp, BraidPrepared,
                              engine::RouteClaimer>;
    friend Base;

  public:
    BraidSim(const circuit::Circuit &circ, Policy policy,
             const BraidOptions &opts, const BraidPrepared &prep)
        : Base("braid", circ, prep, opts,
               policy == Policy::ProgramOrder),
          policy(policy)
    {
        for (BraidOp &op : ops)
            op.est_len = estimateLength(op);
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
        loop();
        BraidResult out;
        report(out);
        out.critical_path_cycles =
            braidCriticalPath(circ, dag, opts.code_distance);
        out.braids_placed = braids_placed;
        out.yx_fallbacks = claimer.transposeFallbacks();
        return out;
    }

  private:
    int
    estimateLength(const BraidOp &op) const
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

    /** Build the policy-specific sort key (Section 6.3). */
    engine::ReadyEntry
    key(int i) const
    {
        const BraidOp &op = ops[static_cast<size_t>(i)];
        engine::ReadyEntry e;
        e.id = i;
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
            e.k1 = op.closing ? 0 : 1;
            break;
          case Policy::Combined:
            e.k1 = op.closing ? 0 : 1;
            e.k2 = -crit[static_cast<size_t>(i)];
            e.k3 = crit[static_cast<size_t>(i)] >= crit_threshold
                ? op.est_len   // highest criticality: short first.
                : -op.est_len; // lower criticality: long first.
            break;
        }
        return e;
    }

    /**
     * Claim a route for op @p i's current segment via the engine's
     * XY -> YX -> BFS escalation.
     */
    std::optional<engine::FailKind>
    claim(int i, BraidOp &op)
    {
        if (!destinations(op))
            return engine::FailKind::Starved;
        Coord src = arch.terminal(op.qa);
        // Figure 5: the two segments take different geometries; we
        // open part 1 XY-first and part 2 YX-first.
        for (const auto &[dst, factory] : dsts) {
            auto path = claimer.tryClaim(src, dst, i, op.wait,
                                         op.closing, memos.blockers());
            if (!path)
                continue;
            claimed(i, *path, claimer.lastStage(), factory);
            ++braids_placed;
            // Braid open consumes one cycle, then d stabilization
            // rounds.
            hold(i, std::move(*path),
                 static_cast<uint64_t>(opts.code_distance) + 1,
                 op.cls == OpClass::TGate ? 1 : 2);
            return std::nullopt;
        }
        return engine::FailKind::Denied;
    }

    /** A 2-qubit op's opening segment retired: ready its closing
     *  segment, which routes YX-first — a new geometry. */
    bool
    retire(int i, BraidOp &op)
    {
        if (op.cls != OpClass::TwoQ || op.closing)
            return true;
        op.closing = true;
        makeReady(i, 1);
        return false;
    }

    Policy policy;
    int crit_threshold = 0;
    uint64_t braids_placed = 0;
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
        uint64_t lat =
            opLatency(engine::classify(circ.gate(i), "braid"), d);
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
    return BraidSim(circ, policy, opts, prepared).run();
}

} // namespace qsurf::braid
