/**
 * @file
 * The built-in backends behind the engine interface: the two
 * run-to-completion simulators (braided double-defect, Multi-SIMD
 * planar) and the three analytic design-space models the large-scale
 * figure sweeps run on; the two patch-machine simulators register
 * from hybrid/backend.cc.
 */

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "braid/scheduler.h"
#include "common/logging.h"
#include "engine/registry.h"
#include "estimate/lattice_surgery.h"
#include "estimate/model.h"
#include "hybrid/backend.h"
#include "planar/planar.h"

namespace qsurf::engine {

namespace {

/** Seconds per surface-code cycle for @p tech. */
double
cycleSeconds(const qec::Technology &tech)
{
    return tech.surfaceCycleNs() * 1e-9;
}

/** Cached tiled-machine artifact of the double-defect backend. */
class BraidArtifact final : public PreparedArtifact
{
  public:
    BraidArtifact(const circuit::Circuit &circ,
                  const braid::TiledArchOptions &opts)
        : prep(circ, opts)
    {
    }

    braid::BraidPrepared prep;
};

/** Cached SIMD-machine artifact of the planar backend. */
class PlanarArtifact final : public PreparedArtifact
{
  public:
    PlanarArtifact(const circuit::Circuit &circ,
                   const planar::PlanarOptions &opts)
        : prep(circ, opts)
    {
    }

    planar::PlanarPrepared prep;
};

/** Braid simulation on the tiled double-defect machine. */
class DoubleDefectBackend : public Backend
{
  public:
    std::string name() const override { return backends::double_defect; }

    qec::CodeKind
    code() const override
    {
        return qec::CodeKind::DoubleDefect;
    }

    void
    prepare(const WorkItem &item) const override
    {
        Backend::prepare(item);
        checkLoopConfig(item.config);
        fatalIf(item.config.policy < 0
                    || item.config.policy >= braid::num_policies,
                "braid policy must be in [0, ", braid::num_policies,
                "), got ", item.config.policy);
    }

    Metrics
    run(const WorkItem &item) const override
    {
        return run(item, nullptr);
    }

    std::string
    artifactKey(const WorkItem &item) const override
    {
        std::ostringstream os;
        os << "tiled/fp=" << std::hex << item.resolveFingerprint()
           << "/seed=" << item.config.seed << std::dec
           << "/opt=" << (item.config.policy >= 2 ? 1 : 0)
           << "/tpf=" << braid::TiledArchOptions{}.tiles_per_factory
           << defectKeySuffix(item.config.defectParams());
        return os.str();
    }

    std::shared_ptr<const PreparedArtifact>
    buildArtifact(const WorkItem &item) const override
    {
        braid::BraidOptions opts;
        opts.seed = item.config.seed;
        opts.defects = item.config.defectParams();
        return std::make_shared<const BraidArtifact>(
            *item.circuit,
            braid::braidArchOptions(
                static_cast<braid::Policy>(item.config.policy),
                opts));
    }

    Metrics
    run(const WorkItem &item,
        const PreparedArtifact *artifact) const override
    {
        int d = item.resolveDistance();
        braid::BraidOptions opts = loopOptions(item.config, d);
        auto policy =
            static_cast<braid::Policy>(item.config.policy);
        braid::BraidResult r;
        if (artifact) {
            auto *a = dynamic_cast<const BraidArtifact *>(artifact);
            panicIf(!a, "backend '", name(),
                    "' was handed an artifact of the wrong type");
            r = braid::scheduleBraids(*item.circuit, policy, opts,
                                      a->prep);
        } else {
            r = braid::scheduleBraids(*item.circuit, policy, opts);
        }

        Metrics m;
        m.backend = name();
        m.code = code();
        m.code_distance = d;
        m.schedule_cycles = r.schedule_cycles;
        m.critical_path_cycles = r.critical_path_cycles;
        m.physical_qubits = physicalQubits(
            code(), static_cast<double>(item.circuit->numQubits()),
            d);
        m.seconds = static_cast<double>(r.schedule_cycles)
            * cycleSeconds(item.config.tech);
        m.set("mesh_utilization", r.mesh_utilization);
        m.set("braids_placed",
              static_cast<double>(r.braids_placed));
        m.set("placement_failures",
              static_cast<double>(r.placement_failures));
        m.set("yx_fallbacks", static_cast<double>(r.yx_fallbacks));
        m.set("bfs_detours", static_cast<double>(r.bfs_detours));
        m.set("drops", static_cast<double>(r.drops));
        m.set("magic_starvations",
              static_cast<double>(r.magic_starvations));
        m.set("layout_cost", r.layout_cost);
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
                  logicalErrorProxy(
                      static_cast<double>(
                          item.circuit->numQubits()),
                      r.schedule_cycles, d,
                      item.config.tech.p_physical,
                      r.defect_avg_multiplier));
        }
        return m;
    }
};

/** Multi-SIMD scheduling + EPR pipelining on the planar machine. */
class PlanarBackend : public Backend
{
  public:
    std::string name() const override { return backends::planar; }

    qec::CodeKind code() const override { return qec::CodeKind::Planar; }

    Metrics
    run(const WorkItem &item) const override
    {
        return run(item, nullptr);
    }

    std::string
    artifactKey(const WorkItem &item) const override
    {
        // The SIMD machine and schedule depend on neither the seed
        // nor the code distance, so one artifact serves every seed
        // and distance.
        std::ostringstream os;
        os << "simd/fp=" << std::hex << item.resolveFingerprint()
           << std::dec << "/r=" << item.config.num_simd_regions
           << "/cap=" << item.config.region_capacity;
        return os.str();
    }

    std::shared_ptr<const PreparedArtifact>
    buildArtifact(const WorkItem &item) const override
    {
        planar::PlanarOptions opts;
        opts.num_regions = item.config.num_simd_regions;
        opts.region_capacity = item.config.region_capacity;
        return std::make_shared<const PlanarArtifact>(*item.circuit,
                                                      opts);
    }

    Metrics
    run(const WorkItem &item,
        const PreparedArtifact *artifact) const override
    {
        int d = item.resolveDistance();
        planar::PlanarOptions opts;
        opts.code_distance = d;
        opts.num_regions = item.config.num_simd_regions;
        opts.region_capacity = item.config.region_capacity;
        opts.epr_window_steps = item.config.epr_window_steps;
        opts.epr_bandwidth = item.config.epr_bandwidth;
        opts.tech = item.config.tech;
        opts.trace = item.config.trace;
        planar::PlanarResult r;
        if (artifact) {
            auto *a = dynamic_cast<const PlanarArtifact *>(artifact);
            panicIf(!a, "backend '", name(),
                    "' was handed an artifact of the wrong type");
            r = planar::runPlanar(*item.circuit, opts, a->prep);
        } else {
            r = planar::runPlanar(*item.circuit, opts);
        }

        Metrics m;
        m.backend = name();
        m.code = code();
        m.code_distance = d;
        m.schedule_cycles = r.schedule_cycles;
        m.critical_path_cycles = r.critical_path_cycles;
        m.physical_qubits = physicalQubits(
            code(), static_cast<double>(item.circuit->numQubits()),
            d);
        m.seconds = static_cast<double>(r.schedule_cycles)
            * cycleSeconds(item.config.tech);
        m.set("steps", static_cast<double>(r.steps));
        m.set("teleports", static_cast<double>(r.teleports));
        m.set("stall_cycles", static_cast<double>(r.stall_cycles));
        m.set("peak_live_eprs",
              static_cast<double>(r.peak_live_eprs));
        m.set("avg_live_eprs", r.avg_live_eprs);
        m.set("teleport_rate", r.teleport_rate);
        return m;
    }
};

/**
 * An analytic design-space model: Section 7's planar and
 * double-defect models, which run the Figures 7-9 sweeps at
 * computation sizes far beyond direct simulation, and Section 8.2's
 * lattice-surgery model.  The models differ only in the estimator.
 */
class ModelBackend : public Backend
{
  public:
    using Estimator = estimate::ResourceEstimate (*)(
        const estimate::ResourceModel &model, double kq);

    ModelBackend(std::string name, qec::CodeKind code,
                 Estimator estimator)
        : name_(std::move(name)), code_(code), estimator_(estimator)
    {
    }

    std::string name() const override { return name_; }

    qec::CodeKind code() const override { return code_; }

    bool needsCircuit() const override { return false; }

    void
    prepare(const WorkItem &item) const override
    {
        Backend::prepare(item);
        fatalIf(item.config.kq <= 0 && !item.circuit,
                "backend '", name(), "' needs a computation size "
                "(config.kq) or a circuit to derive one from");
    }

    Metrics
    run(const WorkItem &item) const override
    {
        estimate::ResourceModel model(item.app, item.config.tech);
        double kq = item.logicalOps();
        estimate::ResourceEstimate e = estimator_(model, kq);

        Metrics m;
        m.backend = name_;
        m.code = code_;
        m.code_distance = e.code_distance;
        m.schedule_cycles =
            static_cast<uint64_t>(std::llround(e.total_cycles));
        m.critical_path_cycles = static_cast<uint64_t>(std::llround(
            e.total_cycles / e.congestion_inflation));
        m.physical_qubits = e.physical_qubits;
        m.seconds = e.seconds;
        m.set("kq", kq);
        m.set("logical_qubits", e.logical_qubits);
        m.set("total_tiles", e.total_tiles);
        m.set("logical_depth", e.logical_depth);
        m.set("step_cycles", e.step_cycles);
        m.set("congestion_inflation", e.congestion_inflation);
        m.set("total_cycles", e.total_cycles);
        return m;
    }

  private:
    std::string name_;
    qec::CodeKind code_;
    Estimator estimator_;
};

} // namespace

void
registerBuiltinBackends(Registry &registry)
{
    registry.add(std::make_unique<PlanarBackend>());
    registry.add(std::make_unique<DoubleDefectBackend>());
    registry.add(std::make_unique<ModelBackend>(
        backends::planar_model, qec::CodeKind::Planar,
        [](const estimate::ResourceModel &model, double kq) {
            return model.estimate(qec::CodeKind::Planar, kq);
        }));
    registry.add(std::make_unique<ModelBackend>(
        backends::double_defect_model, qec::CodeKind::DoubleDefect,
        [](const estimate::ResourceModel &model, double kq) {
            return model.estimate(qec::CodeKind::DoubleDefect, kq);
        }));
    registry.add(std::make_unique<ModelBackend>(
        backends::surgery_model, qec::CodeKind::Planar,
        [](const estimate::ResourceModel &model, double kq) {
            return estimate::estimateSurgery(model, kq);
        }));
    hybrid::registerHybridBackends(registry);
}

} // namespace qsurf::engine
