#include "hybrid/backend.h"

#include <memory>
#include <sstream>

#include "common/logging.h"
#include "estimate/lattice_surgery.h"
#include "estimate/model.h"
#include "hybrid/scheduler.h"
#include "surgery/backend.h"

namespace qsurf::hybrid {

namespace {

/**
 * The cacheable patch-machine artifact.  Both simulators on the
 * patch machine build it from the same WorkItem fields, so they
 * share this one type (and one cache entry per key): a sweep running
 * both backends over the same grid point builds the machine once.
 */
class PatchArtifact final : public engine::PreparedArtifact
{
  public:
    PatchArtifact(const circuit::Circuit &circ,
                  const surgery::PatchArchOptions &opts)
        : prep(circ, opts)
    {
    }

    surgery::PatchPrepared prep;
};

/**
 * @return the scheduler options of @p item under @p arbiter: the one
 * mapping from a WorkItem that both simulators on the patch machine
 * run with.  Arbitration is priced from the same constants the
 * analytic design-space models sweep with.
 */
HybridOptions
hybridOptions(const engine::WorkItem &item, ArbiterKind arbiter)
{
    const engine::RunConfig &c = item.config;
    int d = item.resolveDistance();
    estimate::ModelConstants mk;
    estimate::SurgeryConstants sk;

    HybridOptions opts{engine::loopOptions(c, d)};
    opts.arbiter = arbiter;
    opts.rounds_per_hop = sk.rounds_per_hop;
    opts.swap_hop_cycles = c.tech.swapHopCycles(d);
    opts.braid_overhead_cycles = mk.braid_overhead_cycles;
    opts.teleport_overhead_cycles = mk.teleport_cycles;
    opts.mesh_saturation = mk.dd_max_utilization;
    opts.epr_bandwidth = c.epr_bandwidth;
    // Same convention as the braid backend: Policies 2+ use the
    // interaction-aware layout, below that the naive one.
    opts.optimized_layout = c.policy >= 2;
    opts.layout_objective =
        partition::layoutObjective(c.layout_objective);
    opts.lane_spacing = c.lane_spacing;
    return opts;
}

/**
 * A simulator on the patch machine: the hybrid scheduler under one
 * arbiter.  The subclasses pick the arbiter and report the result.
 */
class PatchSimBackend : public engine::Backend
{
  public:
    qec::CodeKind code() const override { return qec::CodeKind::Planar; }

    void
    prepare(const engine::WorkItem &item) const override
    {
        Backend::prepare(item);
        partition::LayoutObjective objective =
            partition::layoutObjective(item.config.layout_objective);
        fatalIf(objective == partition::LayoutObjective::CorridorLanes
                    && item.config.lane_spacing < 1,
                "lane_spacing must be >= 1 with the corridor+lanes "
                "objective, got ", item.config.lane_spacing);
    }

    engine::Metrics
    run(const engine::WorkItem &item) const override
    {
        return run(item, nullptr);
    }

    /** Circuit fingerprint, seed, layout flavor (optimized = policy
     *  >= 2), objective, lane spacing, factory ratio and fabric
     *  damage; not the distance or the arbiter, which the machine
     *  never reads. */
    std::string
    artifactKey(const engine::WorkItem &item) const override
    {
        const engine::RunConfig &c = item.config;
        std::ostringstream os;
        os << "patch/fp=" << std::hex << item.resolveFingerprint()
           << "/seed=" << c.seed << std::dec
           << "/opt=" << (c.policy >= 2 ? 1 : 0)
           << "/obj=" << c.layout_objective
           << "/lane=" << c.lane_spacing
           << "/ppf=" << surgery::PatchArchOptions{}.patches_per_factory
           << engine::defectKeySuffix(c.defectParams());
        return os.str();
    }

    std::shared_ptr<const engine::PreparedArtifact>
    buildArtifact(const engine::WorkItem &item) const override
    {
        return std::make_shared<const PatchArtifact>(
            *item.circuit,
            patchArchOptions(hybridOptions(item, arbiterOf(item))));
    }

    engine::Metrics
    run(const engine::WorkItem &item,
        const engine::PreparedArtifact *artifact) const override
    {
        HybridOptions opts = hybridOptions(item, arbiterOf(item));
        HybridResult r;
        if (artifact) {
            auto *a = dynamic_cast<const PatchArtifact *>(artifact);
            panicIf(!a, "backend '", name(),
                    "' was handed an artifact of the wrong type");
            r = scheduleHybrid(*item.circuit, opts, a->prep);
        } else {
            r = scheduleHybrid(*item.circuit, opts);
        }

        engine::Metrics m;
        m.backend = name();
        m.code = code();
        m.code_distance = opts.code_distance;
        m.schedule_cycles = r.schedule_cycles;
        m.critical_path_cycles = r.critical_path_cycles;
        m.seconds = static_cast<double>(r.schedule_cycles)
            * item.config.tech.surfaceCycleNs() * 1e-9;
        report(item, r, m);
        m.set("layout_cost", r.layout_cost);
        m.set("corridor_cost", r.corridor_cost);
        m.set("lane_area_factor", r.lane_area_factor);
        m.set("ff_skipped_cycles",
              static_cast<double>(r.ff_skipped_cycles));
        m.set("ff_skip_ratio",
              r.schedule_cycles
                  ? static_cast<double>(r.ff_skipped_cycles)
                      / static_cast<double>(r.schedule_cycles)
                  : 0.0);
        // Only on damaged fabrics, so defect-free rows stay
        // byte-identical to pre-defect-awareness output.
        if (item.config.defectParams().enabled()) {
            m.set("defect_dead_fraction", r.defect_dead_fraction);
            m.set("defect_avg_multiplier", r.defect_avg_multiplier);
            m.set("defective_nodes",
                  static_cast<double>(r.defective_nodes));
            m.set("defective_links",
                  static_cast<double>(r.defective_links));
            m.set("logical_error_proxy",
                  engine::logicalErrorProxy(
                      static_cast<double>(
                          item.circuit->numQubits()),
                      r.schedule_cycles, opts.code_distance,
                      item.config.tech.p_physical,
                      r.defect_avg_multiplier));
        }
        return m;
    }

  protected:
    /** @return the arbiter @p item runs under. */
    virtual ArbiterKind arbiterOf(const engine::WorkItem &item) const = 0;

    /** Set @p m's physical qubits and the backend's own extras, which
     *  precede the layout, fast-forward and defect extras. */
    virtual void report(const engine::WorkItem &item,
                        const HybridResult &r,
                        engine::Metrics &m) const = 0;
};

/** Mixed-scheme simulation on the shared patch machine. */
class HybridBackend final : public PatchSimBackend
{
  public:
    std::string
    name() const override
    {
        return engine::backends::hybrid_mixed;
    }

    void
    prepare(const engine::WorkItem &item) const override
    {
        PatchSimBackend::prepare(item);
        fatalIf(item.config.hybrid_arbiter < 0
                    || item.config.hybrid_arbiter >= num_arbiters,
                "hybrid arbiter must be in [0, ", num_arbiters,
                "), got ", item.config.hybrid_arbiter);
    }

  protected:
    ArbiterKind
    arbiterOf(const engine::WorkItem &item) const override
    {
        return static_cast<ArbiterKind>(item.config.hybrid_arbiter);
    }

    void
    report(const engine::WorkItem &item, const HybridResult &r,
           engine::Metrics &m) const override
    {
        // Patch machine with boundary strips plus the EPR channel
        // rails of the teleport overlay, widened by any dedicated
        // ancilla lanes.
        m.physical_qubits = surgery::surgeryPhysicalQubits(
            static_cast<double>(item.circuit->numQubits()),
            m.code_distance, 1.3 * r.lane_area_factor);
        m.set("arbiter",
              static_cast<double>(item.config.hybrid_arbiter));
        m.set("braid_ops", static_cast<double>(r.braid_ops));
        m.set("teleport_ops", static_cast<double>(r.teleport_ops));
        m.set("surgery_ops", static_cast<double>(r.surgery_ops));
        m.set("local_ops", static_cast<double>(r.local_ops));
        m.set("arbiter_fallbacks",
              static_cast<double>(r.arbiter_fallbacks));
        m.set("mesh_utilization", r.mesh_utilization);
        m.set("peak_busy_links",
              static_cast<double>(r.peak_busy_links));
        m.set("placement_failures",
              static_cast<double>(r.placement_failures));
        m.set("transpose_fallbacks",
              static_cast<double>(r.transpose_fallbacks));
        m.set("bfs_detours", static_cast<double>(r.bfs_detours));
        m.set("drops", static_cast<double>(r.drops));
        m.set("magic_starvations",
              static_cast<double>(r.magic_starvations));
        m.set("peak_live_eprs",
              static_cast<double>(r.peak_live_eprs));
        m.set("avg_live_eprs", r.avg_live_eprs);
    }
};

/**
 * Lattice-surgery chain simulation (Section 8.2): the hybrid
 * scheduler pinned to ForceSurgery, so every 2-qubit op and T gate
 * is one merge/split chain.  Ignores RunConfig::hybrid_arbiter.
 */
class SurgerySimBackend final : public PatchSimBackend
{
  public:
    std::string
    name() const override
    {
        return engine::backends::surgery_sim;
    }

  protected:
    ArbiterKind
    arbiterOf(const engine::WorkItem &) const override
    {
        return ArbiterKind::ForceSurgery;
    }

    void
    report(const engine::WorkItem &item, const HybridResult &r,
           engine::Metrics &m) const override
    {
        // Dedicated ancilla lanes widen the mesh; charge the extra
        // area against the machine's qubit budget.
        m.physical_qubits = surgery::surgeryPhysicalQubits(
            static_cast<double>(item.circuit->numQubits()),
            m.code_distance, 1.2 * r.lane_area_factor);
        m.set("mesh_utilization", r.mesh_utilization);
        m.set("chains_placed", static_cast<double>(r.surgery_ops));
        m.set("placement_failures",
              static_cast<double>(r.placement_failures));
        m.set("transpose_fallbacks",
              static_cast<double>(r.transpose_fallbacks));
        m.set("bfs_detours", static_cast<double>(r.bfs_detours));
        m.set("drops", static_cast<double>(r.drops));
        m.set("magic_starvations",
              static_cast<double>(r.magic_starvations));
        m.set("total_chain_tiles",
              static_cast<double>(r.total_chain_tiles));
        m.set("max_chain_tiles",
              static_cast<double>(r.max_chain_tiles));
        m.set("peak_live_chains",
              static_cast<double>(r.peak_live_chains));
        m.set("avg_live_chains", r.avg_live_chains);
    }
};

} // namespace

void
registerHybridBackends(engine::Registry &registry)
{
    registry.add(std::make_unique<HybridBackend>());
    registry.add(std::make_unique<SurgerySimBackend>());
}

} // namespace qsurf::hybrid
