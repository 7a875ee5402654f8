#include "hybrid/arbiter.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace qsurf::hybrid {

const char *
arbiterName(ArbiterKind kind)
{
    switch (kind) {
      case ArbiterKind::CostGreedy:
        return "greedy";
      case ArbiterKind::CongestionReactive:
        return "reactive";
      case ArbiterKind::ForceBraid:
        return "force-braid";
      case ArbiterKind::ForceTeleport:
        return "force-teleport";
      case ArbiterKind::ForceSurgery:
        return "force-surgery";
    }
    panic("bad ArbiterKind ", static_cast<int>(kind));
}

namespace {

/**
 * Congestion inflation of an exclusive (circuit-switched) corridor
 * at the current mesh load: the same linear stretch-past-saturation
 * shape as estimate::ResourceModel's congestion_inflation, applied
 * to the live load instead of the modeled offered load.
 */
double
inflation(const ArbiterCosts &k, double mesh_load)
{
    if (k.mesh_saturation <= 0)
        return 1.0;
    return std::max(1.0, mesh_load / k.mesh_saturation);
}

/**
 * Defect surcharge of a mesh-borne corridor: exactly 1 at zero
 * exposure, so a perfect fabric prices identically to the
 * pre-defect-awareness arbiter.
 */
double
defectSurcharge(const ArbiterCosts &k, const OpContext &ctx)
{
    return 1.0 + k.defect_penalty * ctx.defect_exposure;
}

} // namespace

double
braidCost(const ArbiterCosts &k, const OpContext &ctx)
{
    auto d = static_cast<double>(k.code_distance);
    // One segment (open + d rounds) to a factory, two segments plus
    // the open/close overhead for a CNOT — distance-insensitive.
    double base = ctx.t_gate ? d + 1.0
                             : 2.0 * d + k.braid_overhead_cycles;
    return base * inflation(k, ctx.mesh_load)
        * defectSurcharge(k, ctx);
}

double
teleportCost(const ArbiterCosts &k, const OpContext &ctx)
{
    auto d = static_cast<double>(k.code_distance);
    double transport = std::ceil(
        static_cast<double>(std::max(1, ctx.tiles))
        * k.swap_hop_cycles);
    // Queue on the channel overlay, stream the halves across, then
    // the fixed teleport cost and the op's own d rounds.  Nothing
    // touches the mesh, so no congestion inflation.
    return static_cast<double>(ctx.channel_backlog) + transport
        + k.teleport_cycles + d;
}

double
surgeryCost(const ArbiterCosts &k, const OpContext &ctx)
{
    auto d = static_cast<double>(k.code_distance);
    double base = k.rounds_per_hop * d
            * static_cast<double>(std::max(1, ctx.tiles))
        + 1.0;
    return base * inflation(k, ctx.mesh_load)
        * defectSurcharge(k, ctx);
}

namespace {

/** Min modeled latency; ties prefer braid, then surgery. */
class CostGreedyArbiter : public Arbiter
{
  public:
    explicit CostGreedyArbiter(const ArbiterCosts &costs)
        : k(costs)
    {
    }

    Scheme
    choose(const OpContext &ctx) const override
    {
        Scheme best = Scheme::Braid;
        double best_cost = braidCost(k, ctx);
        if (double c = surgeryCost(k, ctx); c < best_cost) {
            best = Scheme::Surgery;
            best_cost = c;
        }
        if (teleportCost(k, ctx) < best_cost)
            best = Scheme::Teleport;
        return best;
    }

    ArbiterKind kind() const override { return ArbiterKind::CostGreedy; }

  protected:
    ArbiterCosts k;
};

/**
 * Greedy choice plus the reactive escape valve: an op whose corridor
 * stays contended all the way to drop_timeout re-enters the queue as
 * a teleport, which the mesh cannot block.
 */
class CongestionReactiveArbiter : public CostGreedyArbiter
{
  public:
    using CostGreedyArbiter::CostGreedyArbiter;

    bool fallbackToTeleport() const override { return true; }

    ArbiterKind
    kind() const override
    {
        return ArbiterKind::CongestionReactive;
    }
};

/** One fixed scheme: the pure machines on the hybrid fabric. */
class ForceArbiter : public Arbiter
{
  public:
    ForceArbiter(Scheme scheme, ArbiterKind kind)
        : scheme_(scheme), kind_(kind)
    {
    }

    Scheme choose(const OpContext &) const override { return scheme_; }

    ArbiterKind kind() const override { return kind_; }

  private:
    Scheme scheme_;
    ArbiterKind kind_;
};

} // namespace

std::unique_ptr<Arbiter>
makeArbiter(ArbiterKind kind, const ArbiterCosts &costs)
{
    switch (kind) {
      case ArbiterKind::CostGreedy:
        return std::make_unique<CostGreedyArbiter>(costs);
      case ArbiterKind::CongestionReactive:
        return std::make_unique<CongestionReactiveArbiter>(costs);
      case ArbiterKind::ForceBraid:
        return std::make_unique<ForceArbiter>(Scheme::Braid,
                                              kind);
      case ArbiterKind::ForceTeleport:
        return std::make_unique<ForceArbiter>(Scheme::Teleport,
                                              kind);
      case ArbiterKind::ForceSurgery:
        return std::make_unique<ForceArbiter>(Scheme::Surgery,
                                              kind);
    }
    panic("bad ArbiterKind ", static_cast<int>(kind));
}

} // namespace qsurf::hybrid
