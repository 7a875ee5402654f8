/**
 * @file
 * The common simulation-engine abstraction every backend implements.
 *
 * The paper's evaluation is a cross-product sweep — application x
 * backend x policy x code distance — and historically each backend
 * (braided double-defect, Multi-SIMD planar, and the analytic
 * design-space models) was driven through its own bespoke code path.
 * A Backend names itself, validates a work item in prepare(), runs it
 * to completion, and returns a uniform Metrics record, so the sweep
 * driver, the toolflow and every figure bench can treat all backends
 * interchangeably; new backends (lattice-surgery mapping,
 * teleportation-based routing, ...) plug into the Registry without
 * touching any caller.
 *
 * Backends are stateless: run() is const and must be thread-safe and
 * deterministic (same WorkItem => bit-identical Metrics), which is
 * what lets the SweepDriver execute items on any number of threads
 * without changing results.
 */

#ifndef QSURF_ENGINE_BACKEND_H
#define QSURF_ENGINE_BACKEND_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "circuit/circuit.h"
#include "fabric/defect.h"
#include "qec/code.h"
#include "qec/technology.h"

namespace qsurf {
class JsonWriter;
} // namespace qsurf

namespace qsurf::obs {
class TraceRecorder;
} // namespace qsurf::obs

namespace qsurf::engine {

/** Uniform result record of one backend run (one figure point). */
struct Metrics
{
    /** Registry name of the backend that produced the record. */
    std::string backend;

    /** Surface-code flavor the backend models. */
    qec::CodeKind code = qec::CodeKind::Planar;

    /** Code distance the run used (after auto-selection). */
    int code_distance = 0;

    /** Total schedule length in surface-code cycles. */
    uint64_t schedule_cycles = 0;

    /** Dependence-limited lower bound in cycles. */
    uint64_t critical_path_cycles = 0;

    /** Total physical qubits of the machine. */
    double physical_qubits = 0;

    /** Wall-clock execution time of the computation. */
    double seconds = 0;

    /**
     * Backend-specific named counters (mesh utilization, teleports,
     * stall cycles, ...), in emission order.
     */
    std::vector<std::pair<std::string, double>> extras;

    /** @return schedule length / critical path. */
    double
    ratio() const
    {
        return critical_path_cycles
            ? static_cast<double>(schedule_cycles)
                / static_cast<double>(critical_path_cycles)
            : 0.0;
    }

    /** @return the space-time product (qubits x seconds). */
    double spaceTime() const { return physical_qubits * seconds; }

    /** Append (or overwrite) the named extra counter. */
    void set(const std::string &name, double v);

    /** @return extra @p name, or @p fallback when absent. */
    double extra(const std::string &name, double fallback = 0) const;

    /** @return true when extra @p name is present. */
    bool has(const std::string &name) const;
};

/** Parameters of one backend run, common across backends. */
struct RunConfig
{
    /** Technology characteristics (Figure 4's bottom input). */
    qec::Technology tech;

    /** Code distance; 0 selects from the logical-op count and pP. */
    int code_distance = 0;

    /**
     * Braid priority policy index (Section 6.3, Policies 0-6) for
     * the double-defect backend; others ignore it.
     */
    int policy = 6;

    /** EPR lookahead window for the planar backend (steps). */
    int epr_window_steps = 32;

    /**
     * Concurrent EPR transports the planar machine's channels
     * sustain; 0 uses the architecture's channel-link count.
     */
    int epr_bandwidth = 0;

    /** SIMD regions in the planar machine. */
    int num_simd_regions = 4;

    /** Per-region broadcast capacity of the planar machine. */
    int region_capacity = 1024;

    /**
     * Computation size KQ in logical operations, for the analytic
     * model backends; 0 derives it from the circuit's op count.
     */
    double kq = 0;

    /**
     * Event-driven mode of the simulated backends: jump over
     * do-nothing cycles instead of ticking them one at a time, and
     * skip placement attempts that provably fail again — nothing
     * that stopped the op's last attempt has been released since
     * (engine::FailMemos).  Results are bit-identical either way;
     * disable to run the cycle-stepped loop that walks every
     * attempt, the oracle for A/B perf measurement
     * (bench/perf_engine) and the ff == stepped tests.
     */
    bool fast_forward = true;

    /**
     * Cycles a magic-state factory needs to distill one state, for
     * the double-defect backend; 0 means production is never the
     * bottleneck (Section 4.3's factories sized off the critical
     * path).  Non-zero values expose the factory space-vs-time
     * tradeoff as a sweep axis.
     */
    int magic_production_cycles = 0;

    /** Distilled states a factory can buffer (with production on). */
    int magic_buffer_capacity = 2;

    /**
     * Route-claim escalation timeouts of the simulated backends
     * (Section 6.1): cycles a stalled op waits before trying the
     * transposed route, before the BFS detour, and before being
     * dropped and re-injected.  The defaults match the schedulers'
     * historical constants; sweeps tighten them to study contention.
     */
    int adapt_timeout = 4;
    int bfs_timeout = 8;
    int drop_timeout = 16;

    /**
     * Runaway guard of the simulated backends: a run that exceeds
     * this many simulated cycles aborts as misconfigured.  Deep
     * workloads at large code distance legitimately pass the
     * default (cycle counts scale with gates x distance); raise it
     * when the workload is known to be that big (bench/scaleout).
     */
    uint64_t max_cycles = 100'000'000;

    /**
     * Scheme arbiter of the "hybrid/mixed-sim" backend (a
     * hybrid::ArbiterKind value): 0 cost-model greedy, 1 congestion
     * reactive, 2-4 force braid/teleport/surgery.  Other backends
     * ignore it.
     */
    int hybrid_arbiter = 0;

    /**
     * Patch-layout objective of the surgery and hybrid backends (a
     * partition::LayoutObjective value): 0 braid-manhattan (the
     * Section 6.2 objective, historically reused for surgery),
     * 1 corridor (bisection seed refined against the around-patch
     * corridor length), 2 corridor+lanes (corridor objective plus
     * dedicated ancilla lanes sized into the patch mesh).  The
     * braid backends always keep the Manhattan objective.
     */
    int layout_objective = 0;

    /** Patch rows/columns between dedicated ancilla lanes
     *  (layout_objective 2). */
    int lane_spacing = 4;

    /**
     * Fabric defect density for the simulated mesh backends: the
     * fraction of tiles knocked out (and half that of tile-to-tile
     * links).  0 is the perfect fabric every run assumed before
     * defect awareness; the analytic models ignore it.
     */
    double defect_density = 0;

    /** Defect-map generator seed — independent of the layout seed,
     *  so the damage stays fixed while layouts vary. */
    uint64_t defect_seed = 0;

    /** Explicit device defect spec as JSON (see
     *  fabric::DefectParams::spec_json); non-empty overrides the
     *  generated map. */
    std::string defect_spec;

    /** Layout / tie-break RNG seed. */
    uint64_t seed = 1;

    /** @return the fabric damage recipe of this run. */
    fabric::DefectParams
    defectParams() const
    {
        return {defect_density, defect_seed, defect_spec};
    }

    /**
     * Structured-event trace hook (see obs/trace.h); null disables
     * tracing.  Recording never changes simulation behaviour —
     * Metrics are bit-identical with tracing on or off — and the
     * pointer is deliberately excluded from every artifactKey()
     * (tracing is an observation channel, not an input).  A
     * recorder is owned by exactly one run; the sweep driver wires
     * a fresh one into each item.
     */
    obs::TraceRecorder *trace = nullptr;
};

struct LoopOptions;

/**
 * @return the scheduling-loop options (engine/loop.h) of @p c at code
 * distance @p code_distance: the escalation timeouts, factory
 * supply, cycle bound, fast-forward, seed, fabric damage and trace
 * hook.  The braid and patch-machine backends both build their
 * scheduler options on it.
 */
LoopOptions loopOptions(const RunConfig &c, int code_distance);

/**
 * Write @p c as one JSON object (the caller emits any key): every
 * field a result depends on, which is every field but `trace`.  The
 * wire codec (CompileRequest and SweepGrid payloads) and the compile
 * service's result-memo key both write a config through it, so a new
 * field is added here once; the codec's reader (service/wire.cc)
 * parses the same names back.
 */
void writeRunConfig(JsonWriter &j, const RunConfig &c);

/** One unit of work handed to a backend. */
struct WorkItem
{
    /** Application the circuit (or scaling model) comes from. */
    apps::AppKind app = apps::AppKind::SQ;

    /** Display name (defaults to the app spec name). */
    std::string app_name;

    /**
     * The Clifford+T-decomposed circuit; may be null for backends
     * with needsCircuit() == false (the analytic models).
     */
    const circuit::Circuit *circuit = nullptr;

    /** Run parameters. */
    RunConfig config;

    /**
     * Optional precomputed circuit::fingerprint(*circuit); 0 means
     * "compute on demand".  Callers that resolve the circuit through
     * the service cache set it so repeated artifactKey() calls don't
     * re-hash a large gate list.
     */
    uint64_t circuit_fingerprint = 0;

    /**
     * @return the computation size: config.kq when set, otherwise
     * the circuit's logical-op count.
     */
    double logicalOps() const;

    /**
     * @return the code distance: config override when set, otherwise
     * chosen from logicalOps() and the technology error rate.
     */
    int resolveDistance() const;

    /** @return circuit_fingerprint, computing (but not storing) it
     *  from the circuit when unset; 0 without a circuit. */
    uint64_t resolveFingerprint() const;
};

/**
 * Opaque base of a backend's cacheable prepare artifact: everything
 * run() derives from the circuit and the seeded layout alone (the
 * interaction graph, machine geometry, dependence DAG, per-gate
 * criticality, ...).  Artifacts are immutable once built and safe to
 * share across threads; a backend handed one it built for the same
 * artifactKey() produces bit-identical Metrics to an inline run.
 */
class PreparedArtifact
{
  public:
    virtual ~PreparedArtifact() = default;

    PreparedArtifact() = default;
    PreparedArtifact(const PreparedArtifact &) = delete;
    PreparedArtifact &operator=(const PreparedArtifact &) = delete;
};

/**
 * A simulation or estimation backend.  Implementations must be
 * stateless across run() calls: run() is const, thread-safe and
 * deterministic in the WorkItem alone.
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /** @return the unique registry name, e.g. "double-defect". */
    virtual std::string name() const = 0;

    /** @return the surface-code flavor this backend models. */
    virtual qec::CodeKind code() const = 0;

    /** @return true when run() needs item.circuit. */
    virtual bool needsCircuit() const { return true; }

    /**
     * Validate @p item before run(); fatal() on unusable input.
     * The default checks the technology and circuit presence.
     */
    virtual void prepare(const WorkItem &item) const;

    /** Run @p item to completion. */
    virtual Metrics run(const WorkItem &item) const = 0;

    /**
     * @return the cache key of the prepare artifact run() could
     * reuse for @p item, or "" when this backend has none (the
     * analytic models).  Keys name exactly what the builder reads —
     * circuit fingerprint, seed, layout objective, lane spacing,
     * fabric damage, machine kind — never the code distance, which
     * only run() reads; two items with the same key accept the same
     * artifact, and backends whose machines coincide (surgery and
     * hybrid share one patch machine) return identical keys.
     */
    virtual std::string
    artifactKey(const WorkItem &item) const
    {
        (void)item;
        return {};
    }

    /**
     * Build the artifact artifactKey(@p item) names, or null for a
     * backend without one.  Thread-safe and deterministic, like
     * run().
     */
    virtual std::shared_ptr<const PreparedArtifact>
    buildArtifact(const WorkItem &item) const
    {
        (void)item;
        return nullptr;
    }

    /**
     * Run @p item reusing @p artifact (as returned by
     * buildArtifact() for the same artifactKey()); null falls back
     * to the inline path.  Results are bit-identical either way.
     * panic()s when handed an artifact of the wrong type.
     */
    virtual Metrics
    run(const WorkItem &item, const PreparedArtifact *artifact) const
    {
        (void)artifact;
        return run(item);
    }
};

/**
 * @return total physical qubits of a machine holding
 * @p logical_qubits logical qubits of @p code at distance @p d,
 * including the code's ancilla/factory space overhead.
 */
double physicalQubits(qec::CodeKind code, double logical_qubits,
                      int d);

/**
 * @return a deterministic per-item seed: mixes @p base_seed with
 * @p index so sweep items get decorrelated, reproducible streams
 * regardless of execution order.
 */
uint64_t mixSeed(uint64_t base_seed, uint64_t index);

/**
 * @return the "/defd=.../defs=.../spec=..." artifact-key suffix of
 * @p p, or "" when the fabric is perfect — so defect-free keys stay
 * byte-identical to their pre-defect-awareness form and every cache
 * entry built before this axis existed remains valid.
 */
std::string defectKeySuffix(const fabric::DefectParams &p);

/**
 * @return a crude end-to-end logical-error proxy for a run of
 * @p schedule_cycles cycles on @p logical_qubits logical qubits at
 * distance @p d: logical qubits x logical timesteps (cycles / d) x
 * the per-op logical error rate at the defect-inflated physical
 * rate @p p_physical * @p error_multiplier.  A comparative yield
 * metric (lower is better), not an absolute failure probability.
 */
double logicalErrorProxy(double logical_qubits,
                         uint64_t schedule_cycles, int d,
                         double p_physical,
                         double error_multiplier);

} // namespace qsurf::engine

#endif // QSURF_ENGINE_BACKEND_H
