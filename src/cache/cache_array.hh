/**
 * @file
 * Set-associative tag array with pluggable victim selection.
 */

#ifndef PERSIM_CACHE_CACHE_ARRAY_HH
#define PERSIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
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
 *
 * Host layout: each set keeps its first kHomeWays ways in dense arrays
 * built at construction. The remaining ways of a wider set (the LLC's
 * 12 of 16) live in one overflow block, allocated the first time the
 * set needs a way beyond its home ways, so host memory follows the
 * lines a run fills rather than the modelled capacity. A set without
 * a block behaves exactly as if its overflow ways were invalid and
 * unpinned. Blocks sit in fixed pages that never move and are freed
 * only with the array, so a CacheLine pointer stays valid for the
 * array's lifetime.
 */
class CacheArray
{
  public:
    /** Ways per set held in the dense arrays. */
    static constexpr unsigned kHomeWays = 4;

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

    /** Callers hold CacheLine pointers into this array across events. */
    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    /** Find the line holding @p addr, or nullptr. Does not touch LRU.
     *
     * Hot path: the scan runs over the compact tag row (8 bytes per
     * home way, then the overflow-block slot) rather than striding
     * through the full CacheLine records; only a set with an overflow
     * block that misses its home ways goes on to the block's tags. */
    CacheLine *
    find(Addr addr)
    {
        addr = lineAlign(addr);
        const unsigned set = setIndex(addr);
        const Addr *row = tagRow(set);
        const Addr tag = tagOf(addr);
        for (unsigned w = 0; w < _homeWays; ++w) {
            if (row[w] == tag)
                return &_lines[homeBase(set) + w];
        }
        if (_overWays == 0 || row[_homeWays] == kNoBlock)
            return nullptr;
        const Block b = block(row[_homeWays]);
        for (unsigned w = 0; w < _overWays; ++w) {
            if (b.tags[w] == tag)
                return &b.lines[w];
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->find(addr);
    }

    /**
     * Host-side hint: pull @p addr's set (tag row and first metadata
     * records) toward the host caches ahead of a find()/victimFor()
     * that runs a few events later. Purely a performance hint — no
     * simulated effect whatsoever.
     */
    void
    prefetchSet(Addr addr)
    {
        const unsigned set = setIndex(lineAlign(addr));
        const Addr *row = tagRow(set);
        __builtin_prefetch(row);
        __builtin_prefetch(&_lines[homeBase(set)]);
    }

    /**
     * Line-aligned address of @p line, which must belong to this array
     * and be valid: the tag array is the only place a resident line's
     * address is kept.
     */
    Addr
    addrOf(const CacheLine &line) const
    {
        return tagOf(const_cast<CacheArray *>(this)->tagSlot(line));
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
        tagSlot(line) = kNoLine;
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
     * modified; the caller evicts and refills. When the first invalid
     * way is an overflow way of a set without a block, the block is
     * allocated here.
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

    /** Sets that have allocated an overflow block (host-memory probe,
     * for tests). */
    std::size_t overflowSets() const { return _blockCount; }

    /** Call fn(line, addr) for every valid line, set by set and in way
     * order within a set (diagnostics and invariant checks). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (unsigned set = 0; set < _sets; ++set) {
            const Addr *row = tagRow(set);
            CacheLine *home = &_lines[homeBase(set)];
            for (unsigned w = 0; w < _homeWays; ++w) {
                if (home[w].valid())
                    fn(home[w], tagOf(row[w]));
            }
            if (_overWays == 0 || row[_homeWays] == kNoBlock)
                continue;
            const Block b = block(row[_homeWays]);
            for (unsigned w = 0; w < _overWays; ++w) {
                if (b.lines[w].valid())
                    fn(b.lines[w], tagOf(b.tags[w]));
            }
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
    /** Overflow slot of a set without a block; a set with one stores
     * its block number plus one. */
    static constexpr Addr kNoBlock = 0;
    /** Overflow blocks per page: 32 x 336 bytes for the LLC's 12
     * overflow ways. */
    static constexpr unsigned kBlocksPerPage = 32;

    static Addr tagOf(Addr lineAddr) { return ~lineAddr; }

    /** One set's overflow ways: their tags, then parallel records. */
    struct Block
    {
        Addr *tags;
        CacheLine *lines;
    };

    /** kBlocksPerPage blocks; within a page the tags run parallel to
     * the records, so a record's index in `lines` is its tag's. */
    struct OverflowPage
    {
        std::unique_ptr<Addr[]> tags;
        std::unique_ptr<CacheLine[]> lines;
    };

    /** Tag row of @p set: its home-way tags, then (only when the
     * geometry has overflow ways) its overflow slot. */
    Addr *tagRow(unsigned set)
    {
        return &_tags[static_cast<std::size_t>(set) * _rowWidth];
    }

    std::size_t homeBase(unsigned set) const
    {
        return static_cast<std::size_t>(set) * _homeWays;
    }

    /** Block named by a non-empty overflow slot. */
    Block
    block(Addr slot) const
    {
        const std::size_t b = slot - 1;
        const OverflowPage &page = _pages[b / kBlocksPerPage];
        const std::size_t first = b % kBlocksPerPage * _overWays;
        return Block{&page.tags[first], &page.lines[first]};
    }

    /** Tag-array entry of @p line, which must belong to this array. */
    Addr &
    tagSlot(const CacheLine &line)
    {
        const std::size_t i = wayIn(_lines.data(), _lines.size(), line);
        if (i == _lines.size())
            return overflowTagSlot(line);
        if (_overWays == 0)
            return _tags[i];
        // A geometry with overflow ways has exactly kHomeWays home ways.
        return tagRow(static_cast<unsigned>(i / kHomeWays))[i % kHomeWays];
    }

    /** Index of @p line in the @p n records at @p first, or @p n when
     * it lies outside them. */
    static std::size_t
    wayIn(const CacheLine *first, std::size_t n, const CacheLine &line)
    {
        const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(&line) -
                                   reinterpret_cast<std::uintptr_t>(first);
        return off < n * sizeof(CacheLine) ? off / sizeof(CacheLine) : n;
    }

    Addr &overflowTagSlot(const CacheLine &line);

    /** First entry of _pagesByAddr whose records start above @p line. */
    std::vector<std::uint32_t>::iterator pagesAbove(const CacheLine *line);

    /** Allocate @p set's overflow block and return its first way. */
    CacheLine *growSet(unsigned set);

    std::string _name;
    CacheGeometry _geom;
    unsigned _setShift;
    unsigned _sets;
    /** min(ways, kHomeWays), the rest, and the tag-row width. */
    unsigned _homeWays;
    unsigned _overWays;
    unsigned _rowWidth;
    /** Home ways, _homeWays records per set. */
    std::vector<CacheLine> _lines;
    /** Tag rows, _rowWidth entries per set: tagOf(line address) of each
     * valid home way, kNoLine otherwise, then the overflow slot. find()
     * scans this instead of the metadata records. */
    std::vector<Addr> _tags;
    /** Overflow pages in allocation order (block b is in page
     * b / kBlocksPerPage), and their indices sorted by record address
     * for the reverse lookup of addrOf and invalidate. */
    std::vector<OverflowPage> _pages;
    std::vector<std::uint32_t> _pagesByAddr;
    std::size_t _blockCount = 0;
    /** Wrapping 32-bit LRU clock; victimFor compares stamps with a
     * wrap-aware signed difference, so wraparound (once per ~4G touches)
     * never inverts the recency order within a set. */
    std::uint32_t _lruClock = 0;
    Rng _rng{0xC0FFEE};
};

} // namespace persim::cache

#endif // PERSIM_CACHE_CACHE_ARRAY_HH
