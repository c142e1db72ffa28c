/**
 * @file
 * Cache line metadata, including the paper's epoch-tag extensions.
 *
 * The simulator is metadata-only: lines carry coherence and persistency
 * state but no data payload. The persist-tag extension (CoreID + EpochID,
 * §4.3 of the paper) marks the one unpersisted incarnation of a dirty
 * line; the simulator maintains the invariant that a line has at most one
 * unpersisted incarnation system-wide at any time.
 *
 * The record is packed to 32 bytes (two per host cache line pair) so the
 * practical --jobs ceiling on small hosts rises: coherence state, the
 * dirty bit and the pin bit fold into one flags byte, the owner and
 * epoch-tag core ids narrow to one byte each (the sharers mask already
 * caps the system at 64 cores), and the LRU stamp is a 32-bit wrapping
 * counter whose comparisons are wrap-aware (CacheArray::victimFor).
 *
 * An empty record is all zero bytes: the core ids and the epoch id are
 * stored XORed with their "none" sentinels, so CacheArray builds its
 * arrays with one zero-fill instead of a per-record constructor loop.
 */

#ifndef PERSIM_CACHE_CACHE_LINE_HH
#define PERSIM_CACHE_CACHE_LINE_HH

#include <cstdint>

#include "sim/types.hh"

namespace persim::cache
{

/** Stable coherence states (no transients; banks serialize per line). */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,    // read-only copy
    Exclusive, // sole clean copy (L1 only)
    Modified,  // sole dirty copy (L1 only)
};

/**
 * Per-line metadata shared by L1 and LLC arrays.
 *
 * Core ids are stored in one byte with 0xFF as the "no core" sentinel,
 * XORed with 0xFF so that "no core" is the zero byte; the public
 * accessors translate to/from the CoreId-wide kNoCore. This is sound
 * because the sharers mask below already limits the system to
 * kMaxCores (= 64) cores, which System/PersistController enforce at
 * construction time. The epoch id is likewise stored XORed with
 * kNoEpoch.
 */
class CacheLine
{
  public:
    /** Line-aligned address; valid only when state() != Invalid. */
    Addr addr() const { return _addr; }

    /** Set the address (CacheArray::fill only). */
    void setAddr(Addr a) { _addr = a; }

    CoherenceState
    state() const
    {
        return static_cast<CoherenceState>(_flags & kStateMask);
    }

    void
    setState(CoherenceState s)
    {
        _flags = static_cast<std::uint8_t>(
            (_flags & ~kStateMask) | static_cast<std::uint8_t>(s));
    }

    /** The copy at this level differs from the level below. */
    bool dirty() const { return (_flags & kDirtyBit) != 0; }

    void
    setDirty(bool d)
    {
        if (d)
            _flags |= kDirtyBit;
        else
            _flags &= static_cast<std::uint8_t>(~kDirtyBit);
    }

    /**
     * LLC only: the line (or, for an invalid line, the way) is locked by
     * an in-flight bank transaction or eviction; victim selection and
     * invalidating flushes skip pinned lines.
     */
    bool pinned() const { return (_flags & kPinnedBit) != 0; }

    void
    setPinned(bool p)
    {
        if (p)
            _flags |= kPinnedBit;
        else
            _flags &= static_cast<std::uint8_t>(~kPinnedBit);
    }

    /** LLC only: L1 holding the line Exclusive/Modified, or kNoCore. */
    CoreId owner() const { return unpackCore(_owner); }

    void setOwner(CoreId core) { _owner = packCore(core); }

    /** LLC only: bitmask of L1s holding Shared copies. */
    std::uint64_t sharers() const { return _sharers; }

    void setSharers(std::uint64_t mask) { _sharers = mask; }

    /**
     * Persist tag: the core whose unpersisted epoch last wrote the line.
     * kNoCore when the line carries no persist obligation at this level.
     */
    CoreId epochCore() const { return unpackCore(_epochCore); }

    /** Persist tag: epoch of last modification; kNoEpoch if untagged. */
    EpochId epochId() const { return _epochId ^ kNoEpoch; }

    /** LRU stamp maintained by the array; 32-bit and wrapping. */
    std::uint32_t lruStamp() const { return _lruStamp; }

    void setLruStamp(std::uint32_t stamp) { _lruStamp = stamp; }

    bool valid() const { return state() != CoherenceState::Invalid; }

    /** True when the line carries an unpersisted-epoch obligation. */
    bool tagged() const { return _epochCore != 0; }

    /** Clear the persist tag (the incarnation persisted or moved). */
    void
    clearTag()
    {
        _epochCore = 0;
        _epochId = 0;
    }

    /** Set the persist tag for an incarnation written by (core, epoch). */
    void
    setTag(CoreId core, EpochId epoch)
    {
        _epochCore = packCore(core);
        _epochId = epoch ^ kNoEpoch;
    }

    /** Reset to Invalid, dropping all metadata (pin included). Lines
     * resident in a CacheArray must go through CacheArray::invalidate
     * instead so the array's tag scan stays in sync. */
    void
    invalidate()
    {
        _flags = 0;
        clearTag();
        _owner = 0;
        _sharers = 0;
    }

  private:
    static constexpr std::uint8_t kStateMask = 0x03;
    static constexpr std::uint8_t kDirtyBit = 0x04;
    static constexpr std::uint8_t kPinnedBit = 0x08;
    static constexpr std::uint8_t kNoCore8 = 0xFF;

    /** kNoCore (0xFFFF) truncates to the 0xFF sentinel, stored as 0;
     * real core ids are < kMaxCores and round-trip unchanged. */
    static std::uint8_t
    packCore(CoreId core)
    {
        return static_cast<std::uint8_t>(static_cast<std::uint8_t>(core) ^
                                         kNoCore8);
    }

    static CoreId
    unpackCore(std::uint8_t packed)
    {
        return packed == 0 ? kNoCore
                           : static_cast<CoreId>(packed ^ kNoCore8);
    }

    Addr _addr = 0;
    /**
     * One bit per core: the sharers mask fixes the architectural core
     * ceiling at 64, which is also what makes the one-byte core ids
     * above unambiguous. Keep in sync with kMaxCores.
     */
    std::uint64_t _sharers = 0;
    EpochId _epochId = 0; // epoch id ^ kNoEpoch
    std::uint32_t _lruStamp = 0;
    std::uint8_t _epochCore = 0; // packCore(core)
    std::uint8_t _owner = 0;     // packCore(core)
    std::uint8_t _flags = 0;     // state (2 bits) | dirty | pinned
};

static_assert(sizeof(std::uint64_t) * 8 == kMaxCores,
              "CacheLine::sharers holds one bit per core: widening the "
              "system beyond 64 cores needs a wider mask AND wider "
              "packed owner/epochCore fields");
static_assert(sizeof(CacheLine) <= 32,
              "CacheLine must stay within 32 bytes (two records per "
              "host cache line); see the packing notes above");

} // namespace persim::cache

#endif // PERSIM_CACHE_CACHE_LINE_HH
