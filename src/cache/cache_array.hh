/**
 * @file
 * Set-associative tag array with pluggable victim selection.
 */

#ifndef PERSIM_CACHE_CACHE_ARRAY_HH
#define PERSIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_line.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace persim::cache
{

/** Victim-selection policy. */
enum class ReplacementPolicy
{
    Lru,
    Random,
};

/** Geometry of one cache (sizes in bytes; Table 1 defaults are set by
 * SystemConfig). */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 4;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    unsigned sets() const
    {
        return static_cast<unsigned>(sizeBytes / (ways * kLineBytes));
    }
};

/**
 * A set-associative array of CacheLine metadata with LRU replacement.
 *
 * The array indexes by line address. Victim selection is LRU, optionally
 * preferring lines without a persist tag (so demand misses avoid
 * triggering epoch flushes when an untagged victim exists; see DESIGN.md
 * §2.2, replacement conflicts).
 */
class CacheArray
{
  public:
    /**
     * @param name Instance name for diagnostics.
     * @param geom Size and associativity; sizeBytes must be a multiple of
     *             ways * 64 and sets a power of two.
     * @param setShift Right-shift applied to the line number before set
     *                 indexing; LLC banks use this to strip the bank-select
     *                 bits so each bank indexes its own address slice.
     */
    CacheArray(std::string name, const CacheGeometry &geom,
               unsigned setShift = 0);

    /** Find the line holding @p addr, or nullptr. Does not touch LRU.
     *
     * Hot path: the scan runs over the compact per-set tag array (8
     * bytes per way, one or two host cache lines per set) rather than
     * striding through the full CacheLine records. */
    CacheLine *
    find(Addr addr)
    {
        addr = lineAlign(addr);
        const std::size_t base =
            static_cast<std::size_t>(setIndex(addr)) * _geom.ways;
        const Addr *tags = &_tags[base];
        const Addr tag = tagOf(addr);
        for (unsigned w = 0; w < _geom.ways; ++w) {
            if (tags[w] == tag)
                return &_lines[base + w];
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->find(addr);
    }

    /**
     * Host-side hint: pull @p addr's set (tags and first metadata
     * records) toward the host caches ahead of a find()/victimFor()
     * that runs a few events later. Purely a performance hint — no
     * simulated effect whatsoever.
     */
    void
    prefetchSet(Addr addr)
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(lineAlign(addr))) *
            _geom.ways;
        __builtin_prefetch(&_tags[base]);
        __builtin_prefetch(&_lines[base]);
    }

    /**
     * Line-aligned address of @p line, which must belong to this array
     * and be valid: the tag array is the only place a resident line's
     * address is kept.
     */
    Addr
    addrOf(const CacheLine &line) const
    {
        return tagOf(_tags[static_cast<std::size_t>(&line - _lines.data())]);
    }

    /** Mark @p line most recently used. */
    void touch(CacheLine &line);

    /**
     * Invalidate @p line (which must belong to this array), keeping the
     * tag array in sync. All valid→invalid transitions of array-resident
     * lines must go through here, not CacheLine::invalidate().
     */
    void
    invalidate(CacheLine &line)
    {
        _tags[static_cast<std::size_t>(&line - _lines.data())] = kNoLine;
        line.invalidate();
    }

    /**
     * Pick a victim way for filling @p addr.
     *
     * Pinned lines are never candidates. Preference order: an invalid
     * way; then (when @p avoidTagged) the least-eligible line among
     * untagged lines with no L1 copies; then among untagged lines; then
     * any line. "Least eligible" is LRU under the Lru policy and a
     * uniformly random candidate under Random. The returned line is NOT
     * modified; the caller evicts and refills.
     *
     * @return nullptr when every way is pinned.
     */
    CacheLine *victimFor(Addr addr, bool avoidTagged);

    /**
     * Install @p addr into @p line (which the caller already evicted).
     * Resets metadata, records the address in the tag array, sets the
     * state, and touches LRU.
     */
    CacheLine &fill(CacheLine &line, Addr addr, CoherenceState state);

    unsigned sets() const { return _sets; }
    unsigned ways() const { return _geom.ways; }

    /** Call fn(line, addr) for every valid line (diagnostics and
     * invariant checks). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (std::size_t i = 0; i < _lines.size(); ++i) {
            if (_lines[i].valid())
                fn(_lines[i], tagOf(_tags[i]));
        }
    }

    /** Index of the set @p addr maps to (exposed for tests). */
    unsigned setIndex(Addr addr) const
    {
        return static_cast<unsigned>((lineNum(addr) >> _setShift) &
                                     (_sets - 1));
    }

  private:
    /**
     * Tag-array entry of an invalid way. A valid way stores the
     * complement of its line address (tagOf, its own inverse), which is
     * never 0, so both arrays start out as plain zero-filled memory.
     */
    static constexpr Addr kNoLine = 0;

    static Addr tagOf(Addr lineAddr) { return ~lineAddr; }

    CacheLine *setBase(unsigned set) { return &_lines[set * _geom.ways]; }

    std::string _name;
    CacheGeometry _geom;
    unsigned _setShift;
    unsigned _sets;
    std::vector<CacheLine> _lines;
    /** Parallel to _lines: tagOf(line address) of each valid way,
     * kNoLine otherwise. find() scans this instead of the metadata
     * records. */
    std::vector<Addr> _tags;
    /** Wrapping 32-bit LRU clock; victimFor compares stamps with a
     * wrap-aware signed difference, so wraparound (once per ~4G touches)
     * never inverts the recency order within a set. */
    std::uint32_t _lruClock = 0;
    Rng _rng{0xC0FFEE};
};

} // namespace persim::cache

#endif // PERSIM_CACHE_CACHE_ARRAY_HH
