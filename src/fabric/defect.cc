#include "fabric/defect.h"

#include <algorithm>
#include <cmath>

#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"

namespace qsurf::fabric {

DefectMap::DefectMap(int width, int height)
    : w(width), h(height)
{
    fatalIf(w < 1 || h < 1, "defect map needs a grid of at least 1x1, "
            "got ", w, "x", h);
    dead_.assign(static_cast<size_t>(w * h), 0);
    hlink_.assign(static_cast<size_t>((w - 1) * h), 0);
    vlink_.assign(static_cast<size_t>(w * (h - 1)), 0);
}

void
DefectMap::killTile(int x, int y)
{
    if (x < 0 || x >= w || y < 0 || y >= h)
        return;
    uint8_t &cell = dead_[static_cast<size_t>(y * w + x)];
    if (!cell) {
        cell = 1;
        ++num_dead;
    }
}

void
DefectMap::disableLink(const Coord &a, const Coord &b)
{
    fatalIf(manhattan(a, b) != 1,
            "defect-spec link endpoints must be adjacent tiles, got ",
            a, " and ", b);
    const Coord &lo = a < b ? a : b;
    uint8_t *slot = nullptr;
    if (a.y == b.y) {
        if (lo.x < 0 || lo.x >= w - 1 || lo.y < 0 || lo.y >= h)
            return;
        slot = &hlink_[static_cast<size_t>(lo.y * (w - 1) + lo.x)];
    } else {
        if (lo.x < 0 || lo.x >= w || lo.y < 0 || lo.y >= h - 1)
            return;
        slot = &vlink_[static_cast<size_t>(lo.y * w + lo.x)];
    }
    if (!*slot) {
        *slot = 1;
        ++num_disabled;
    }
}

void
DefectMap::addRegion(const DefectRegion &region)
{
    DefectRegion r = region;
    r.x0 = std::max(0, r.x0);
    r.y0 = std::max(0, r.y0);
    r.x1 = std::min(w - 1, r.x1);
    r.y1 = std::min(h - 1, r.y1);
    if (r.x0 > r.x1 || r.y0 > r.y1 || r.multiplier == 1.0)
        return;
    fatalIf(r.multiplier <= 0, "defect-region multiplier must be > 0, "
            "got ", r.multiplier);
    regions_.push_back(r);
}

bool
DefectMap::linkDisabled(const Coord &a, const Coord &b) const
{
    if (empty())
        return false;
    if (manhattan(a, b) != 1)
        return false;
    const Coord &lo = a < b ? a : b;
    if (a.y == b.y) {
        if (lo.x < 0 || lo.x >= w - 1 || lo.y < 0 || lo.y >= h)
            return false;
        return hlink_[static_cast<size_t>(lo.y * (w - 1) + lo.x)] != 0;
    }
    if (lo.x < 0 || lo.x >= w || lo.y < 0 || lo.y >= h - 1)
        return false;
    return vlink_[static_cast<size_t>(lo.y * w + lo.x)] != 0;
}

double
DefectMap::errorMultiplierAt(int x, int y) const
{
    double m = 1.0;
    for (const DefectRegion &r : regions_)
        if (x >= r.x0 && x <= r.x1 && y >= r.y0 && y <= r.y1)
            m *= r.multiplier;
    return m;
}

double
DefectMap::avgErrorMultiplier() const
{
    if (regions_.empty() || w * h == 0)
        return 1.0;
    double sum = 0;
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            sum += errorMultiplierAt(x, y);
    return sum / (w * h);
}

void
DefectMap::buildPrefix()
{
    auto stride = static_cast<size_t>(w + 1);
    dead_prefix_.assign(stride * static_cast<size_t>(h + 1), 0);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            size_t at = static_cast<size_t>(y + 1) * stride
                + static_cast<size_t>(x + 1);
            dead_prefix_[at] =
                dead_[static_cast<size_t>(y * w + x)]
                + dead_prefix_[at - 1]
                + dead_prefix_[at - stride]
                - dead_prefix_[at - stride - 1];
        }
}

double
DefectMap::routeExposure(const Coord &a, const Coord &b) const
{
    if (num_dead == 0)
        return 0.0;
    int x0 = std::clamp(std::min(a.x, b.x), 0, w - 1);
    int x1 = std::clamp(std::max(a.x, b.x), 0, w - 1);
    int y0 = std::clamp(std::min(a.y, b.y), 0, h - 1);
    int y1 = std::clamp(std::max(a.y, b.y), 0, h - 1);
    auto stride = static_cast<size_t>(w + 1);
    auto at = [&](int x, int y) {
        return dead_prefix_[static_cast<size_t>(y) * stride
                            + static_cast<size_t>(x)];
    };
    int dead = at(x1 + 1, y1 + 1) - at(x0, y1 + 1) - at(x1 + 1, y0)
        + at(x0, y0);
    int area = (x1 - x0 + 1) * (y1 - y0 + 1);
    return static_cast<double>(dead) / area;
}

std::vector<uint8_t>
DefectMap::deadMask(int width, int height) const
{
    std::vector<uint8_t> mask;
    if (empty())
        return mask;
    mask.assign(static_cast<size_t>(width * height), 0);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            if (deadTile(x, y))
                mask[static_cast<size_t>(y * width + x)] = 1;
    return mask;
}

std::vector<Coord>
DefectMap::deadTiles() const
{
    std::vector<Coord> out;
    out.reserve(static_cast<size_t>(num_dead));
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            if (deadTile(x, y))
                out.push_back({x, y});
    return out;
}

std::vector<std::pair<Coord, Coord>>
DefectMap::disabledLinks() const
{
    std::vector<std::pair<Coord, Coord>> out;
    out.reserve(static_cast<size_t>(num_disabled));
    for (int y = 0; y < h; ++y)
        for (int x = 0; x + 1 < w; ++x)
            if (hlink_[static_cast<size_t>(y * (w - 1) + x)])
                out.push_back({{x, y}, {x + 1, y}});
    for (int y = 0; y + 1 < h; ++y)
        for (int x = 0; x < w; ++x)
            if (vlink_[static_cast<size_t>(y * w + x)])
                out.push_back({{x, y}, {x, y + 1}});
    return out;
}

DefectMap
DefectMap::generate(int w, int h, double density, uint64_t seed)
{
    fatalIf(density < 0 || density >= 1,
            "defect density must be in [0, 1), got ", density);
    DefectMap map(w, h);
    if (density == 0)
        return map;

    // One draw per tile and per link in a fixed row-major order, so
    // the map is a pure function of (w, h, density, seed) at any
    // call site or thread count.
    Rng rng(seed ^ 0xfab41cdefec70000ull);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            if (rng.chance(density))
                map.killTile(x, y);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x + 1 < w; ++x)
            if (rng.chance(density / 2))
                map.disableLink({x, y}, {x + 1, y});
    for (int y = 0; y + 1 < h; ++y)
        for (int x = 0; x < w; ++x)
            if (rng.chance(density / 2))
                map.disableLink({x, y}, {x, y + 1});

    // One hot region: a random quadrant-sized window whose error
    // rate grows with damage density, so the quality axis moves
    // together with the connectivity axis in yield sweeps.
    int rw = std::max(1, w / 2);
    int rh = std::max(1, h / 2);
    int rx = static_cast<int>(rng.below(
        static_cast<uint64_t>(w - rw + 1)));
    int ry = static_cast<int>(rng.below(
        static_cast<uint64_t>(h - rh + 1)));
    map.addRegion({rx, ry, rx + rw - 1, ry + rh - 1,
                   1.0 + 4.0 * density});
    map.buildPrefix();
    return map;
}

DefectMap
DefectMap::fromSpec(const std::string &json, int w, int h)
{
    DefectMap map(w, h);
    JsonValue doc = parseJson(json);
    fatalIf(!doc.isObject(), "defect spec is not a JSON object");

    if (const JsonValue *tiles = doc.find("dead_tiles")) {
        fatalIf(!tiles->isArray(),
                "defect spec 'dead_tiles' is not an array");
        for (const JsonValue &t : tiles->items) {
            fatalIf(!t.isArray() || t.items.size() != 2,
                    "defect spec dead tile is not an [x, y] pair");
            map.killTile(t.items[0].toInt("defect spec dead tile", "x"),
                         t.items[1].toInt("defect spec dead tile", "y"));
        }
    }
    if (const JsonValue *links = doc.find("disabled_links")) {
        fatalIf(!links->isArray(),
                "defect spec 'disabled_links' is not an array");
        for (const JsonValue &l : links->items) {
            fatalIf(!l.isArray() || l.items.size() != 4,
                    "defect spec link is not an [x1,y1,x2,y2] tuple");
            int c[4];
            for (size_t i = 0; i < 4; ++i)
                c[i] = l.items[i].toInt("defect spec link", "coordinate");
            map.disableLink({c[0], c[1]}, {c[2], c[3]});
        }
    }
    if (const JsonValue *regions = doc.find("regions")) {
        fatalIf(!regions->isArray(),
                "defect spec 'regions' is not an array");
        for (const JsonValue &r : regions->items) {
            fatalIf(!r.isObject(),
                    "defect spec region is not an object");
            auto coord = [&](const char *key) {
                const JsonValue *v = r.find(key);
                fatalIf(!v, "defect spec region has no '", key, "'");
                return v->toInt("defect spec region", key);
            };
            const JsonValue *mult = r.find("multiplier");
            fatalIf(!mult || !mult->isNumber(),
                    "defect spec region has no numeric 'multiplier'");
            map.addRegion({coord("x0"), coord("y0"), coord("x1"),
                           coord("y1"), mult->num});
        }
    }
    map.buildPrefix();
    return map;
}

DefectMap
DefectMap::materialize(const DefectParams &p, int w, int h)
{
    if (!p.spec_json.empty())
        return fromSpec(p.spec_json, w, h);
    if (p.density > 0)
        return generate(w, h, p.density, p.seed);
    return DefectMap{};
}

} // namespace qsurf::fabric
