#include "cache/cache_array.hh"

#include <algorithm>
#include <functional>

#include "sim/logging.hh"

namespace persim::cache
{

namespace
{
bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}
} // namespace

CacheArray::CacheArray(std::string name, const CacheGeometry &geom,
                       unsigned setShift)
    : _name(std::move(name)), _geom(geom), _setShift(setShift)
{
    simAssert(geom.ways > 0, _name, ": zero ways");
    simAssert(geom.sizeBytes % (geom.ways * kLineBytes) == 0, _name,
              ": size not a multiple of way size");
    _sets = geom.sets();
    simAssert(isPowerOfTwo(_sets), _name, ": sets (", _sets,
              ") not a power of two");
    _homeWays = std::min(geom.ways, kHomeWays);
    _overWays = geom.ways - _homeWays;
    _rowWidth = _homeWays + (_overWays ? 1 : 0);
    // Empty lines, tags and overflow slots are all zero bytes (see
    // kNoLine, kNoBlock and CacheLine), so both resizes are plain
    // zero-fills.
    _lines.resize(static_cast<std::size_t>(_sets) * _homeWays);
    _tags.resize(static_cast<std::size_t>(_sets) * _rowWidth);
}

void
CacheArray::touch(CacheLine &line)
{
    line.setLruStamp(++_lruClock);
}

CacheLine *
CacheArray::growSet(unsigned set)
{
    if (_blockCount % kBlocksPerPage == 0) {
        const std::size_t n = std::size_t{kBlocksPerPage} * _overWays;
        OverflowPage page{std::make_unique<Addr[]>(n),
                          std::make_unique<CacheLine[]>(n)};
        _pagesByAddr.insert(pagesAbove(page.lines.get()),
                            static_cast<std::uint32_t>(_pages.size()));
        _pages.push_back(std::move(page));
    }
    ++_blockCount;
    tagRow(set)[_homeWays] = _blockCount; // block number plus one
    return block(_blockCount).lines;
}

std::vector<std::uint32_t>::iterator
CacheArray::pagesAbove(const CacheLine *line)
{
    return std::upper_bound(_pagesByAddr.begin(), _pagesByAddr.end(), line,
                            [this](const CacheLine *l, std::uint32_t p) {
                                return std::less<>{}(l,
                                                     _pages[p].lines.get());
                            });
}

Addr &
CacheArray::overflowTagSlot(const CacheLine &line)
{
    // The last page whose records start at or below the line.
    const auto it = pagesAbove(&line);
    const std::size_t n = std::size_t{kBlocksPerPage} * _overWays;
    if (it != _pagesByAddr.begin()) {
        const OverflowPage &page = _pages[*(it - 1)];
        const std::size_t i = wayIn(page.lines.get(), n, line);
        if (i < n)
            return page.tags[i];
    }
    panic(_name, ": line does not belong to this array");
}

namespace
{
/** True when stamp @p a is older than @p b under the wrapping clock. */
bool
lruOlder(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) < 0;
}

/** A run of ways of one set: its tags and parallel records. */
struct WayRun
{
    const Addr *tags;
    CacheLine *lines;
    unsigned n;
};
} // namespace

CacheLine *
CacheArray::victimFor(Addr addr, bool avoidTagged)
{
    const unsigned set = setIndex(lineAlign(addr));
    const Addr *row = tagRow(set);
    // The set's ways in way order: home ways, then the overflow block's.
    // A set without a block has no second run; its overflow ways are
    // all invalid and unpinned, so the first of them is the victim as
    // soon as a scan reaches it, exactly as if it were allocated.
    const bool missingBlock = _overWays != 0 && row[_homeWays] == kNoBlock;
    WayRun runs[2] = {{row, &_lines[homeBase(set)], _homeWays},
                      {nullptr, nullptr, 0}};
    if (_overWays != 0 && !missingBlock) {
        const Block b = block(row[_homeWays]);
        runs[1] = {b.tags, b.lines, _overWays};
    }

    if (_geom.policy == ReplacementPolicy::Random) {
        // Reservoir-sample one candidate per tier. Kept as one generic
        // in-order pass: the sequence of RNG draws is part of the
        // deterministic-replay contract, so this path must consume
        // exactly one draw per already-seen tier member.
        CacheLine *any = nullptr;
        CacheLine *untagged = nullptr;
        CacheLine *quiet = nullptr; // untagged and no L1 copies
        unsigned nAny = 0, nUntagged = 0, nQuiet = 0;

        auto better = [&](CacheLine *&slot, CacheLine &cand,
                          unsigned &n) {
            ++n;
            if (!slot || _rng.below(n) == 0)
                slot = &cand;
        };

        for (const WayRun &run : runs) {
            for (unsigned w = 0; w < run.n; ++w) {
                CacheLine &cand = run.lines[w];
                if (cand.pinned())
                    continue;
                if (!cand.valid())
                    return &cand;
                better(any, cand, nAny);
                if (!cand.tagged()) {
                    better(untagged, cand, nUntagged);
                    if (cand.owner() == kNoCore && cand.sharers() == 0)
                        better(quiet, cand, nQuiet);
                }
            }
        }
        if (missingBlock)
            return growSet(set);
        if (avoidTagged && quiet)
            return quiet;
        if (avoidTagged && untagged)
            return untagged;
        return any;
    }

    // LRU, the hot path: one victim scan per miss at both cache levels.
    // Invalid ways first, via the compact tag arrays — the home row is
    // already in host cache from the find() that preceded every victim
    // scan, so the common steady-state case (no invalid way) costs one
    // or two cached line reads before the metadata sweep. An invalid
    // way can still be pinned (a miss claims its fill way before the
    // memory read returns), so the flag byte is checked before
    // returning one.
    for (const WayRun &run : runs) {
        for (unsigned w = 0; w < run.n; ++w) {
            if (run.tags[w] == kNoLine && !run.lines[w].pinned())
                return &run.lines[w];
        }
    }
    if (missingBlock)
        return growSet(set);

    if (!avoidTagged) {
        // Single-tier scan (every L1 fill takes this shape).
        CacheLine *any = nullptr;
        std::uint32_t anyStamp = 0;
        for (const WayRun &run : runs) {
            for (unsigned w = 0; w < run.n; ++w) {
                CacheLine &cand = run.lines[w];
                if (cand.pinned())
                    continue;
                if (!any || lruOlder(cand.lruStamp(), anyStamp)) {
                    any = &cand;
                    anyStamp = cand.lruStamp();
                }
            }
        }
        return any;
    }

    CacheLine *any = nullptr;
    CacheLine *untagged = nullptr;
    CacheLine *quiet = nullptr;
    for (const WayRun &run : runs) {
        for (unsigned w = 0; w < run.n; ++w) {
            CacheLine &cand = run.lines[w];
            if (cand.pinned())
                continue;
            if (!any || lruOlder(cand.lruStamp(), any->lruStamp()))
                any = &cand;
            if (!cand.tagged()) {
                if (!untagged ||
                    lruOlder(cand.lruStamp(), untagged->lruStamp())) {
                    untagged = &cand;
                }
                if (cand.owner() == kNoCore && cand.sharers() == 0 &&
                    (!quiet ||
                     lruOlder(cand.lruStamp(), quiet->lruStamp()))) {
                    quiet = &cand;
                }
            }
        }
    }
    if (quiet)
        return quiet;
    if (untagged)
        return untagged;
    return any;
}

CacheLine &
CacheArray::fill(CacheLine &line, Addr addr, CoherenceState state)
{
    simAssert(!line.valid(), _name, ": fill into a valid line");
    addr = lineAlign(addr);
    const unsigned set = setIndex(addr);
    Addr *row = tagRow(set);
    Addr *slot = nullptr;
    const std::size_t w = wayIn(&_lines[homeBase(set)], _homeWays, line);
    if (w < _homeWays) {
        slot = &row[w];
    } else if (_overWays != 0 && row[_homeWays] != kNoBlock) {
        const Block b = block(row[_homeWays]);
        const std::size_t ow = wayIn(b.lines, _overWays, line);
        if (ow < _overWays)
            slot = &b.tags[ow];
    }
    simAssert(slot, _name, ": fill into the wrong set");
    *slot = tagOf(addr);
    line.setState(state);
    line.setDirty(false);
    line.clearTag();
    line.setOwner(kNoCore);
    line.setSharers(0);
    touch(line);
    return line;
}

} // namespace persim::cache
