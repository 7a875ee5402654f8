#include "engine/sim.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "network/route.h"

namespace qsurf::engine {

namespace {

/**
 * Claim @p path for @p owner in one walk.  A failure appends the
 * first busy resource to @p blockers when non-null.
 */
bool
claimRoute(network::Mesh &mesh, const network::Path &path, int owner,
           network::Blockers *blockers)
{
    network::ResourceId busy = network::Mesh::no_resource;
    if (mesh.tryClaim(path, owner, &busy))
        return true;
    if (blockers)
        blockers->push_back(busy);
    return false;
}

/**
 * @return true when an owner other than @p owner and @p lent holds
 * router @p end, which then goes to @p blockers (when non-null) as
 * the one resource that stops the attempt.
 */
bool
endHeld(const network::Mesh &mesh, const Coord &end, int owner, int lent,
        network::Blockers *blockers)
{
    network::ResourceId busy = mesh.nodeBlocker(end, owner, lent);
    if (busy == network::Mesh::no_resource)
        return false;
    if (blockers)
        blockers->push_back(busy);
    return true;
}

} // namespace

std::optional<network::Path>
RouteClaimer::tryClaim(const Coord &src, const Coord &dst, int owner,
                       int wait, bool yx_first,
                       network::Blockers *blockers)
{
    // Every stage's route starts at src and ends at dst.
    if (endHeld(mesh_, src, owner, network::Mesh::no_owner, blockers)
        || endHeld(mesh_, dst, owner, network::Mesh::no_owner, blockers))
        return std::nullopt;
    network::Path first = yx_first ? network::yxRoute(src, dst)
                                   : network::xyRoute(src, dst);
    if (claimRoute(mesh_, first, owner, blockers)) {
        last_stage_ = 0;
        return first;
    }
    if (wait >= opts_.adapt_timeout) {
        network::Path second = yx_first ? network::xyRoute(src, dst)
                                        : network::yxRoute(src, dst);
        if (claimRoute(mesh_, second, owner, blockers)) {
            ++transpose_fallbacks_;
            last_stage_ = 1;
            return second;
        }
    }
    if (wait >= opts_.bfs_timeout) {
        auto detour = network::adaptiveRoute(mesh_, src, dst, owner,
                                             scratch_, blockers);
        if (detour) {
            ++bfs_detours_;
            last_stage_ = 2;
            mesh_.claim(*detour, owner);
            return detour;
        }
    }
    return std::nullopt;
}

void
ChainClaimer::reserveTerminal(const Coord &terminal)
{
    auto idx = static_cast<size_t>(
        linearIndex(terminal, mesh_.width()));
    if (reserved_[idx] >= 0)
        return;
    int sentinel = reserved_owner_base + num_reserved_++;
    reserved_[idx] = sentinel;
    network::Path node;
    node.nodes.push_back(terminal);
    panicIf(!mesh_.tryClaim(node, sentinel),
            "patch terminal already claimed on the mesh");
}

void
ChainClaimer::setEndpointReserved(const Coord &c, bool reserved)
{
    int node = linearIndex(c, mesh_.width());
    int sentinel = reserved_[static_cast<size_t>(node)];
    if (sentinel < 0)
        return;
    // The terminal may be engaged in another live chain (two
    // commuting ops can share a qubit): only the sentinel's own
    // hold is suspended or restored, never a chain's.  Suspended, it
    // is lent to this one claim, not released: every other chain
    // still finds the terminal held.
    if (reserved)
        mesh_.holdNode(node, sentinel);
    else
        mesh_.suspendNode(node, sentinel);
}

bool
ChainClaimer::endpointHeld(const Coord &src, const Coord &dst, int owner,
                           network::Blockers *blockers) const
{
    // A terminal's own reservation does not count: it is lent to the
    // chain that ends there.
    auto lent = [this](const Coord &c) {
        return reserved_[static_cast<size_t>(
            linearIndex(c, mesh_.width()))];
    };
    return endHeld(mesh_, src, owner, lent(src), blockers)
        || endHeld(mesh_, dst, owner, lent(dst), blockers);
}

std::optional<network::Path>
ChainClaimer::tryClaim(const network::Path &primary,
                       const network::Path &fallback, int owner,
                       int wait, network::Blockers *blockers)
{
    const Coord &src = primary.source();
    const Coord &dst = primary.dest();
    if (endpointHeld(src, dst, owner, blockers))
        return std::nullopt;

    // Suspend the endpoint reservations: the two merged patches are
    // part of the chain, but stay opaque to every other chain.
    setEndpointReserved(src, false);
    setEndpointReserved(dst, false);

    if (claimRoute(mesh_, primary, owner, blockers)) {
        last_stage_ = 0;
        return primary;
    }
    if (wait >= opts_.adapt_timeout
        && claimRoute(mesh_, fallback, owner, blockers)) {
        ++transpose_fallbacks_;
        last_stage_ = 1;
        return fallback;
    }
    if (wait >= opts_.bfs_timeout) {
        auto detour = network::adaptiveRoute(mesh_, src, dst, owner,
                                             scratch_, blockers);
        if (detour) {
            ++bfs_detours_;
            last_stage_ = 2;
            mesh_.claim(*detour, owner);
            return detour;
        }
    }

    setEndpointReserved(src, true);
    setEndpointReserved(dst, true);
    return std::nullopt;
}

void
ChainClaimer::release(const network::Path &chain, int owner)
{
    mesh_.release(chain, owner);
    setEndpointReserved(chain.source(), true);
    setEndpointReserved(chain.dest(), true);
}

void
MagicFactoryPool::consume(int f)
{
    if (!limited() || f < 0)
        return;
    auto &stock = stock_[static_cast<size_t>(f)];
    panicIf(stock <= 0, "consumed magic state from empty factory");
    --stock;
    ++version_;
}

FailMemos::FailMemos(int num_ops, bool enabled) : enabled_(enabled)
{
    if (enabled_)
        slot_.assign(static_cast<size_t>(num_ops), -1);
}

bool
FailMemos::stillBlocked(Memo &m, const network::Mesh &mesh)
{
    uint64_t now = mesh.releaseCount();
    if (now == m.epoch)
        return true;
    for (network::ResourceId r : m.blockers)
        if (mesh.releaseStamp(r) > m.epoch)
            return false;
    // Every blocker is still held, so they stop the attempt as of
    // now: later checks need only look at releases after this one.
    m.epoch = now;
    return true;
}

std::optional<FailKind>
FailMemos::replay(int id, const network::Mesh &mesh, uint64_t stock,
                  int stage)
{
    if (!enabled_)
        return std::nullopt;
    int32_t slot = slot_[static_cast<size_t>(id)];
    if (slot >= 0) {
        Memo &m = memos_[static_cast<size_t>(slot)];
        if (m.stage == stage && m.stock == stock && stillBlocked(m, mesh))
            return m.kind;
    }
    pending_stock_ = stock;
    pending_stage_ = stage;
    pending_.clear();
    return std::nullopt;
}

FailKind
FailMemos::fail(int id, const network::Mesh &mesh, FailKind kind)
{
    if (!enabled_)
        return kind;
    // Slots are taken on failure only, so a first attempt that
    // succeeds never touches one.
    int32_t &slot = slot_[static_cast<size_t>(id)];
    if (slot < 0) {
        if (free_.empty()) {
            slot = static_cast<int32_t>(memos_.size());
            memos_.emplace_back();
        } else {
            slot = free_.back();
            free_.pop_back();
        }
    }
    Memo &m = memos_[static_cast<size_t>(slot)];
    m.epoch = mesh.releaseCount();
    m.stock = pending_stock_;
    m.stage = pending_stage_;
    m.kind = kind;
    // The old list's storage becomes the next attempt's sink.  Both
    // lists took the scratch arena bound during this run.
    assert(m.blockers.get_allocator() == pending_.get_allocator());
    m.blockers.swap(pending_);
    return kind;
}

void
FailMemos::forget(int id)
{
    if (!enabled_)
        return;
    int32_t &slot = slot_[static_cast<size_t>(id)];
    if (slot < 0)
        return;
    free_.push_back(slot);
    slot = -1;
}

LiveIntervalProfile::Summary
LiveIntervalProfile::summarize(uint64_t total_cycles)
{
    std::sort(deltas_.begin(), deltas_.end());

    Summary out;
    int64_t live = 0;
    uint64_t prev_time = 0;
    double live_cycles = 0;
    for (const auto &[time, delta] : deltas_) {
        live_cycles += static_cast<double>(live)
                     * static_cast<double>(time - prev_time);
        prev_time = time;
        live += delta;
        out.peak = std::max(
            out.peak,
            static_cast<uint64_t>(std::max<int64_t>(0, live)));
    }
    out.average = total_cycles
        ? live_cycles / static_cast<double>(total_cycles)
        : 0.0;
    return out;
}

} // namespace qsurf::engine
