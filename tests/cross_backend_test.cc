/**
 * @file
 * Generative cross-backend harness: seeded random Clifford+T
 * circuits crossed with stress scenarios (tight escalation
 * timeouts, magic-state factory starvation, a small mesh, a damaged
 * fabric, dense traffic), run
 * through every registered backend and checked against the
 * invariants all of them must share:
 *
 *  - sweep results are bit-identical at 1, 2 and 8 worker threads;
 *  - the event-driven fast-forward produces exactly the stepped
 *    loop's results, scenario by scenario;
 *  - schedule length is monotone non-decreasing in code distance;
 *  - the hybrid backend's arbitration never loses to the worst
 *    single-scheme commitment, and on cost-model-favorable points
 *    stays within slack of the best of pure braid and pure surgery.
 *
 * Unlike tests/golden_test.cc (exact pinned values on one grid),
 * this suite generates its inputs, so it reaches configurations no
 * fixed table covers; any new backend registered in the engine is
 * picked up automatically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "circuit/circuit.h"
#include "common/rng.h"
#include "engine/registry.h"
#include "engine/sweep.h"
#include "hybrid/arbiter.h"

namespace qsurf::engine {
namespace {

/** A seeded random Clifford+T circuit (already decomposed). */
circuit::Circuit
randomCircuit(uint64_t seed, int qubits, int gates)
{
    Rng rng(seed);
    circuit::Circuit c("random-" + std::to_string(seed), qubits);
    for (int g = 0; g < gates; ++g) {
        auto a = static_cast<int32_t>(rng.below(
            static_cast<uint64_t>(qubits)));
        uint64_t roll = rng.below(10);
        if (roll < 5 && qubits > 1) {
            auto b = static_cast<int32_t>(rng.below(
                static_cast<uint64_t>(qubits - 1)));
            if (b >= a)
                ++b;
            c.addGate(circuit::GateKind::CNOT, a, b);
        } else if (roll < 7) {
            c.addGate(roll == 5 ? circuit::GateKind::T
                                : circuit::GateKind::Tdag,
                      a);
        } else {
            c.addGate(roll == 7   ? circuit::GateKind::H
                          : roll == 8 ? circuit::GateKind::S
                                      : circuit::GateKind::X,
                      a);
        }
    }
    return c;
}

/** One stress scenario: a named RunConfig mutation. */
struct Scenario
{
    const char *name;
    int qubits;
    int gates;
    void (*apply)(RunConfig &);
};

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> table = {
        {"baseline", 10, 60, [](RunConfig &) {}},
        {"tight-timeouts", 10, 60,
         [](RunConfig &c) {
             c.adapt_timeout = 2;
             c.bfs_timeout = 3;
             c.drop_timeout = 5;
         }},
        {"factory-starvation", 10, 60,
         [](RunConfig &c) {
             c.magic_production_cycles = 60;
             c.magic_buffer_capacity = 1;
         }},
        {"small-mesh", 4, 40, [](RunConfig &) {}},
        // Dead tiles and links: defect sentinels are blockers that
        // never come free.
        {"damaged-fabric", 10, 60,
         [](RunConfig &c) { c.defect_density = 0.1; }},
        // Dense traffic: ops stall into the BFS stage, and T gates
        // widen across several factories.
        {"congested", 32, 480, [](RunConfig &) {}},
    };
    return table;
}

/** Registered backends that simulate a circuit (vs analytic). */
std::vector<std::string>
simulatedBackends()
{
    std::vector<std::string> out;
    for (const std::string &name : Registry::global().names())
        if (Registry::global().get(name).needsCircuit())
            out.push_back(name);
    return out;
}

WorkItem
itemFor(const circuit::Circuit *circ, const Scenario &s, int d)
{
    WorkItem item;
    item.app = apps::AppKind::SQ;
    item.app_name = circ->name();
    item.circuit = circ;
    item.config.code_distance = d;
    item.config.seed = 99;
    s.apply(item.config);
    return item;
}

/** All extras except the wall-clock-ish fast-forward diagnostics. */
std::vector<std::pair<std::string, double>>
comparableExtras(const Metrics &m)
{
    std::vector<std::pair<std::string, double>> out;
    for (const auto &e : m.extras)
        if (e.first.rfind("ff_", 0) != 0)
            out.push_back(e);
    return out;
}

/** Run @p grid at 1/2/8 threads; all runs must agree field for
 *  field. */
void
expectThreadCountInvariant(const SweepGrid &grid)
{
    std::vector<std::vector<SweepPoint>> runs;
    for (int threads : {1, 2, 8}) {
        SweepOptions opts;
        opts.num_threads = threads;
        runs.push_back(SweepDriver().run(grid, opts));
    }
    ASSERT_EQ(runs[0].size(), grid.points());
    for (size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (size_t i = 0; i < runs[0].size(); ++i) {
            const Metrics &a = runs[0][i].metrics;
            const Metrics &b = runs[r][i].metrics;
            std::string what = runs[0][i].backend + " / "
                + runs[0][i].app_name + " / arbiter "
                + std::to_string(runs[0][i].arbiter);
            EXPECT_EQ(a.schedule_cycles, b.schedule_cycles) << what;
            EXPECT_EQ(a.critical_path_cycles,
                      b.critical_path_cycles)
                << what;
            EXPECT_EQ(a.extras, b.extras) << what;
        }
    }
}

TEST(CrossBackend, SweepThreadCountsAreBitIdentical)
{
    // Every registered backend (simulated and analytic) over a
    // two-app grid; only the hybrid backend reads the arbiter
    // axis, so the second arbiter sweeps a hybrid-only sub-grid.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::SHA1, {8, 1}, ""}};
    grid.backends = Registry::global().names();
    grid.policies = {6};
    grid.distances = {5};
    grid.sizes = {1e6};
    grid.base.seed = 4321;
    expectThreadCountInvariant(grid);

    grid.backends = {backends::hybrid_mixed};
    grid.arbiters = {1};
    expectThreadCountInvariant(grid);
}

TEST(CrossBackend, LayoutObjectiveSweepIsBitIdentical)
{
    // The bench/layout_objectives grid shape: the layout-objective
    // axis over the surgery and hybrid backends, which both rebuild
    // the patch machine per point (bisection + corridor refinement
    // + lane geometry) — all of it must stay deterministic across
    // sweep thread counts.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""},
                 {apps::AppKind::IsingFull, {10, 2}, ""}};
    grid.backends = {backends::surgery_sim, backends::hybrid_mixed};
    grid.policies = {6};
    grid.layout_objectives = {0, 1, 2};
    grid.distances = {3, 5};
    grid.base.lane_spacing = 2;
    grid.base.seed = 1234;
    expectThreadCountInvariant(grid);
}

TEST(CrossBackend, DefectAxisSweepIsBitIdentical)
{
    // The bench/yield grid shape: the defect-density axis over the
    // three simulated-communication backends.  Damage generation,
    // masked layout, defect-aware routing and the arbiter surcharge
    // all run per point and must stay deterministic across sweep
    // thread counts; the density-0 rows must also match a grid
    // without the axis byte for byte.
    SweepGrid grid;
    grid.apps = {{apps::AppKind::SQ, {8, 2}, ""}};
    grid.backends = {backends::double_defect, backends::surgery_sim,
                     backends::hybrid_mixed};
    grid.policies = {6};
    grid.distances = {3};
    grid.defects = {0, 0.05, 0.1};
    grid.base.seed = 1234;
    grid.base.defect_seed = 7;
    expectThreadCountInvariant(grid);

    SweepGrid control = grid;
    control.defects = {0};
    SweepOptions opts;
    opts.num_threads = 1;
    auto with_axis = SweepDriver().run(grid, opts);
    auto without = SweepDriver().run(control, opts);
    std::vector<SweepPoint> zero;
    for (const SweepPoint &p : with_axis)
        if (p.defect == 0)
            zero.push_back(p);
    EXPECT_EQ(canonicalSweepRows(zero), canonicalSweepRows(without))
        << "density-0 rows differ from the no-defect-axis grid";
}

TEST(CrossBackend, FastForwardMatchesSteppedEverywhere)
{
    Registry &registry = Registry::global();
    for (uint64_t seed : {1u, 7u}) {
        for (const Scenario &s : scenarios()) {
            circuit::Circuit circ =
                randomCircuit(seed, s.qubits, s.gates);
            for (const std::string &name : simulatedBackends()) {
                const Backend &b = registry.get(name);
                WorkItem item = itemFor(&circ, s, 5);
                item.config.fast_forward = false;
                Metrics stepped = b.run(item);
                item.config.fast_forward = true;
                Metrics ff = b.run(item);

                std::string what = name + " / " + s.name
                    + " / seed " + std::to_string(seed);
                EXPECT_EQ(ff.schedule_cycles,
                          stepped.schedule_cycles)
                    << what;
                EXPECT_EQ(ff.critical_path_cycles,
                          stepped.critical_path_cycles)
                    << what;
                EXPECT_EQ(comparableExtras(ff),
                          comparableExtras(stepped))
                    << what;
            }
        }
    }
}

TEST(CrossBackend, ScheduleCyclesMonotoneInCodeDistance)
{
    // A longer code distance can only lengthen every op and every
    // corridor hold, so no backend may get faster with larger d.
    Registry &registry = Registry::global();
    for (uint64_t seed : {3u, 11u}) {
        for (const Scenario &s : scenarios()) {
            circuit::Circuit circ =
                randomCircuit(seed, s.qubits, s.gates);
            for (const std::string &name : simulatedBackends()) {
                const Backend &b = registry.get(name);
                uint64_t prev = 0;
                for (int d : {3, 5, 7}) {
                    WorkItem item = itemFor(&circ, s, d);
                    uint64_t cycles = b.run(item).schedule_cycles;
                    EXPECT_GE(cycles, prev)
                        << name << " / " << s.name << " / seed "
                        << seed << " / d " << d;
                    prev = cycles;
                }
            }
        }
    }
}

TEST(CrossBackend, HybridArbitrationBeatsWorstAndTracksBestPure)
{
    Registry &registry = Registry::global();
    const Backend &hybrid =
        registry.get(backends::hybrid_mixed);
    const Backend &dd = registry.get(backends::double_defect);
    const Backend &surgery = registry.get(backends::surgery_sim);

    // Cost-model-favorable points: the baseline scenario, where no
    // artificial starvation or timeout squeeze distorts the costs
    // the arbiter prices with.
    const Scenario &s = scenarios().front();
    for (uint64_t seed : {5u, 17u, 23u}) {
        circuit::Circuit circ =
            randomCircuit(seed, s.qubits, s.gates);
        std::string what = "seed " + std::to_string(seed);

        WorkItem item = itemFor(&circ, s, 5);
        item.config.hybrid_arbiter =
            static_cast<int>(hybrid::ArbiterKind::CostGreedy);
        uint64_t greedy = hybrid.run(item).schedule_cycles;

        // Never worse than the worst single-scheme commitment on
        // the same machine.
        uint64_t worst_forced = 0;
        for (auto kind : {hybrid::ArbiterKind::ForceBraid,
                          hybrid::ArbiterKind::ForceTeleport,
                          hybrid::ArbiterKind::ForceSurgery}) {
            item.config.hybrid_arbiter = static_cast<int>(kind);
            worst_forced = std::max(
                worst_forced, hybrid.run(item).schedule_cycles);
        }
        EXPECT_LE(greedy, worst_forced) << what;

        // Within slack of the best of the pure braid and pure
        // surgery backends: arbitration may not squander the
        // paper's per-link cost asymmetry.
        uint64_t pure_braid = dd.run(item).schedule_cycles;
        uint64_t pure_surgery = surgery.run(item).schedule_cycles;
        auto best_pure = static_cast<double>(
            std::min(pure_braid, pure_surgery));
        EXPECT_LE(static_cast<double>(greedy),
                  1.2 * best_pure + 16.0)
            << what << ": greedy " << greedy << " vs pure braid "
            << pure_braid << " / pure surgery " << pure_surgery;
    }
}

} // namespace
} // namespace qsurf::engine
