#include "surgery/backend.h"

#include <cmath>
#include <memory>

#include "common/logging.h"
#include "estimate/lattice_surgery.h"
#include "qec/code.h"

namespace qsurf::surgery {

namespace {

/** Analytic lattice-surgery model (Section 8.2). */
class SurgeryModelBackend : public engine::Backend
{
  public:
    std::string
    name() const override
    {
        return engine::backends::surgery_model;
    }

    qec::CodeKind code() const override { return qec::CodeKind::Planar; }

    bool needsCircuit() const override { return false; }

    void
    prepare(const engine::WorkItem &item) const override
    {
        Backend::prepare(item);
        fatalIf(item.config.kq <= 0 && !item.circuit,
                "backend '", name(), "' needs a computation size "
                "(config.kq) or a circuit to derive one from");
    }

    engine::Metrics
    run(const engine::WorkItem &item) const override
    {
        estimate::ResourceModel model(item.app, item.config.tech);
        double kq = item.logicalOps();
        estimate::ResourceEstimate e =
            estimate::estimateSurgery(model, kq);

        engine::Metrics m;
        m.backend = name();
        m.code = code();
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
};

} // namespace

double
surgeryPhysicalQubits(double logical_qubits, int d,
                      double tile_factor)
{
    // Planar patches plus boundary-ancilla strips, with the
    // double-defect architectural overhead (factory patches, no EPR
    // buffers/channels) — the same accounting as
    // estimate::estimateSurgery.
    return logical_qubits
        * qec::spaceOverheadFactor(qec::CodeKind::DoubleDefect)
        * tile_factor
        * static_cast<double>(qec::planarTileQubits(d));
}

void
registerSurgeryModel(engine::Registry &registry)
{
    registry.add(std::make_unique<SurgeryModelBackend>());
}

} // namespace qsurf::surgery
