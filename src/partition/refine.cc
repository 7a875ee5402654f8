#include "partition/refine.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"

namespace qsurf::partition {

namespace {

/** Largest bucket-bitset table, in 64-bit words (8 MiB). */
constexpr size_t max_bucket_words = size_t{1} << 20;

} // namespace

int64_t
FmRefiner::refine(const FlatGraph &g, std::vector<int> &side,
                  const BalanceConstraint &balance, int passes)
{
    panicIf(static_cast<int>(side.size()) != g.size(),
            "side size mismatch in FmRefiner::refine");
    int n = g.size();
    auto un = static_cast<size_t>(n);
    const int *off = g.offset.data();
    const int64_t *wt = g.weight.data();
    const int64_t *vw = g.vweight.data();
    gain_.resize(un);
    locked_.resize(un);

    // D and the weight classes choose between buckets and the scan.
    max_gain_ = 0;
    for (int v = 0; v < n; ++v) {
        int64_t degree = 0;
        for (int a = off[v]; a < off[v + 1]; ++a)
            degree += wt[a];
        max_gain_ = std::max(max_gain_, degree);
    }
    class_weight_.assign(vw, vw + n);
    std::sort(class_weight_.begin(), class_weight_.end());
    class_weight_.erase(
        std::unique(class_weight_.begin(), class_weight_.end()),
        class_weight_.end());
    size_t classes = class_weight_.size();
    buckets_ = false;
    if (max_gain_ < 2 * static_cast<int64_t>(n)) {
        range_ = static_cast<size_t>(2 * max_gain_ + 1);
        words_ = (un + 63) / 64;
        buckets_ = classes * range_ <= 4 * un
                && 2 * classes * range_ * words_ <= max_bucket_words;
    }
    if (buckets_) {
        class_.resize(un);
        group_.resize(un);
        for (int v = 0; v < n; ++v)
            class_[static_cast<size_t>(v)] = static_cast<int>(
                std::lower_bound(class_weight_.begin(),
                                 class_weight_.end(), vw[v])
                - class_weight_.begin());
        // Every bucket is empty between passes, so growing the table
        // is the only time it needs zeroing.
        size_t table = 2 * classes * range_;
        if (count_.size() < table)
            count_.resize(table, 0);
        if (bits_.size() < table * words_)
            bits_.resize(table * words_, 0);
        top_.resize(2 * classes);
    }

    int64_t w0 = 0;
    for (int v = 0; v < n; ++v)
        if (side[static_cast<size_t>(v)] == 0)
            w0 += vw[v];
    for (int p = 0; p < passes; ++p)
        if (!pass(g, side, balance, w0))
            break;
    return cutWeight(g, side);
}

void
FmRefiner::insert(int v)
{
    size_t b = bucketOf(v);
    ++count_[b];
    bits_[b * words_ + static_cast<size_t>(v >> 6)] |=
        uint64_t{1} << (v & 63);
    int64_t &top = top_[static_cast<size_t>(group_[static_cast<size_t>(v)])];
    top = std::max(top, gain_[static_cast<size_t>(v)] + max_gain_);
}

void
FmRefiner::erase(int v)
{
    size_t b = bucketOf(v);
    --count_[b];
    bits_[b * words_ + static_cast<size_t>(v >> 6)] &=
        ~(uint64_t{1} << (v & 63));
}

int
FmRefiner::pickByScan(const FlatGraph &g, const std::vector<int> &side,
                      const BalanceConstraint &balance, int64_t w0) const
{
    int best = -1;
    int64_t best_gain = std::numeric_limits<int64_t>::min();
    for (int v = 0; v < g.size(); ++v) {
        auto i = static_cast<size_t>(v);
        if (locked_[i])
            continue;
        int64_t vw = g.vweight[i];
        int64_t new_w0 = side[i] == 0 ? w0 - vw : w0 + vw;
        if (new_w0 < balance.min_side0 || new_w0 > balance.max_side0)
            continue;
        if (gain_[i] > best_gain) {
            best_gain = gain_[i];
            best = v;
        }
    }
    return best;
}

int
FmRefiner::pickFromBuckets(const BalanceConstraint &balance, int64_t w0)
{
    // The top bucket of each feasible group holds that group's best
    // gain; its lowest set bit is the group's lowest-indexed vertex
    // of that gain.
    int best = -1;
    int64_t best_top = -1;
    size_t classes = class_weight_.size();
    for (size_t grp = 0; grp < top_.size(); ++grp) {
        int64_t vw = class_weight_[grp % classes];
        int64_t new_w0 = grp < classes ? w0 - vw : w0 + vw;
        if (new_w0 < balance.min_side0 || new_w0 > balance.max_side0)
            continue;
        int64_t &top = top_[grp];
        const int *count = &count_[grp * range_];
        while (top >= 0 && count[top] == 0)
            --top;
        if (top < 0 || top < best_top)
            continue;
        const uint64_t *word =
            &bits_[(grp * range_ + static_cast<size_t>(top)) * words_];
        size_t i = 0;
        while (word[i] == 0)
            ++i;
        int v = static_cast<int>(i * 64)
              + std::countr_zero(word[i]);
        if (top > best_top || v < best) {
            best = v;
            best_top = top;
        }
    }
    return best;
}

bool
FmRefiner::pass(const FlatGraph &g, std::vector<int> &side,
                const BalanceConstraint &balance, int64_t &side0_weight)
{
    int n = g.size();
    const int *off = g.offset.data();
    const int *to = g.to.data();
    const int64_t *wt = g.weight.data();
    const int64_t *vw = g.vweight.data();
    int *sd = side.data();
    int64_t *gain = gain_.data();
    char *locked = locked_.data();

    // Gain of moving v to the other side: external minus internal
    // incident weight.
    for (int v = 0; v < n; ++v) {
        int64_t sum = 0;
        for (int a = off[v]; a < off[v + 1]; ++a)
            sum += sd[to[a]] != sd[v] ? wt[a] : -wt[a];
        gain[v] = sum;
        locked[v] = 0;
    }
    auto classes = static_cast<int>(class_weight_.size());
    if (buckets_) {
        std::fill(top_.begin(), top_.end(), -1);
        for (int v = 0; v < n; ++v) {
            group_[static_cast<size_t>(v)] =
                sd[v] * classes + class_[static_cast<size_t>(v)];
            insert(v);
        }
    }

    moves_.clear();
    int64_t w0 = side0_weight;
    for (int step = 0; step < n; ++step) {
        // The unlocked, balance-feasible vertex with max gain.
        int best = buckets_ ? pickFromBuckets(balance, w0)
                            : pickByScan(g, side, balance, w0);
        if (best < 0)
            break;
        if (buckets_)
            erase(best);

        // Tentatively move it and update neighbour gains.
        int to_side = 1 - sd[best];
        sd[best] = to_side;
        w0 += to_side == 0 ? vw[best] : -vw[best];
        locked[best] = 1;
        moves_.push_back(best);
        for (int a = off[best]; a < off[best + 1]; ++a) {
            int u = to[a];
            if (locked[u])
                continue;
            // Edge (best,u) flips between cut and uncut.
            int64_t delta = sd[u] == to_side ? -2 * wt[a] : 2 * wt[a];
            if (buckets_) {
                erase(u);
                gain[u] += delta;
                insert(u);
            } else {
                gain[u] += delta;
            }
        }
    }
    if (buckets_)
        for (int v = 0; v < n; ++v)
            if (!locked[v])
                erase(v);

    // Find the best prefix of the move sequence.  A locked vertex's
    // gain is never updated again, so it is still its move's gain.
    int64_t running = 0, best_total = 0;
    size_t best_prefix = 0;
    for (size_t i = 0; i < moves_.size(); ++i) {
        running += gain[moves_[i]];
        if (running > best_total) {
            best_total = running;
            best_prefix = i + 1;
        }
    }

    // Roll back moves after the best prefix.
    for (size_t i = moves_.size(); i > best_prefix; --i) {
        int v = moves_[i - 1];
        int cur = sd[v];
        sd[v] = 1 - cur;
        w0 += cur == 0 ? -vw[v] : vw[v];
    }
    side0_weight = w0;
    return best_total > 0;
}

} // namespace qsurf::partition
