#include "cache/cache_array.hh"

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
    // Empty lines and tags are all zero bytes (see kNoLine and
    // CacheLine), so both resizes are plain zero-fills.
    _lines.resize(static_cast<std::size_t>(_sets) * geom.ways);
    _tags.resize(_lines.size());
}

void
CacheArray::touch(CacheLine &line)
{
    line.setLruStamp(++_lruClock);
}

namespace
{
/** True when stamp @p a is older than @p b under the wrapping clock. */
bool
lruOlder(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) < 0;
}
} // namespace

CacheLine *
CacheArray::victimFor(Addr addr, bool avoidTagged)
{
    const std::size_t first =
        static_cast<std::size_t>(setIndex(lineAlign(addr))) * _geom.ways;
    CacheLine *base = &_lines[first];
    const unsigned ways = _geom.ways;

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

        for (unsigned w = 0; w < ways; ++w) {
            CacheLine &cand = base[w];
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
        if (avoidTagged && quiet)
            return quiet;
        if (avoidTagged && untagged)
            return untagged;
        return any;
    }

    // LRU, the hot path: one victim scan per miss at both cache levels.
    // Invalid ways first, via the compact tag array — it is already in
    // host cache from the find() that preceded every victim scan, so
    // the common steady-state case (no invalid way) costs one or two
    // cached line reads before the metadata sweep. An invalid way can
    // still be pinned (a miss claims its fill way before the memory
    // read returns), so the flag byte is checked before returning one.
    const Addr *tags = &_tags[first];
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == kNoLine && !base[w].pinned())
            return &base[w];
    }

    if (!avoidTagged) {
        // Single-tier scan (every L1 fill takes this shape).
        CacheLine *any = nullptr;
        std::uint32_t anyStamp = 0;
        for (unsigned w = 0; w < ways; ++w) {
            CacheLine &cand = base[w];
            if (cand.pinned())
                continue;
            if (!any || lruOlder(cand.lruStamp(), anyStamp)) {
                any = &cand;
                anyStamp = cand.lruStamp();
            }
        }
        return any;
    }

    CacheLine *any = nullptr;
    CacheLine *untagged = nullptr;
    CacheLine *quiet = nullptr;
    for (unsigned w = 0; w < ways; ++w) {
        CacheLine &cand = base[w];
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
    simAssert(setIndex(addr) ==
                  static_cast<unsigned>((&line - _lines.data()) /
                                        _geom.ways),
              _name, ": fill into the wrong set");
    _tags[static_cast<std::size_t>(&line - _lines.data())] = tagOf(addr);
    line.setState(state);
    line.setDirty(false);
    line.clearTag();
    line.setOwner(kNoCore);
    line.setSharers(0);
    touch(line);
    return line;
}

} // namespace persim::cache
