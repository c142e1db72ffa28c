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
 * The record is packed to 20 bytes (28 host bytes per way with its
 * tag-array entry) so the LLC, the simulator's largest host structure,
 * stays small: coherence state, the dirty bit and the pin bit fold into
 * one flags byte, the owner and epoch-tag core ids narrow to one byte
 * each (the sharers mask already caps the system at 64 cores), the
 * epoch id is a 32-bit field, and the LRU stamp is a 32-bit wrapping
 * counter whose comparisons are wrap-aware (CacheArray::victimFor). The
 * line address is not stored here: the owning CacheArray's tag array
 * holds it, and CacheArray::addrOf recovers it. CacheArray builds only
 * each set's first four ways up front and allocates a set's other ways
 * on its fifth fill, so an LLC set that never holds more than four
 * lines costs four records and a five-entry tag row.
 *
 * An empty record is all zero bytes: the core ids are stored XORed with
 * their "none" sentinel and the epoch id is stored plus one, so
 * CacheArray builds its home ways, and each page of overflow blocks,
 * with one zero-fill instead of a per-record constructor loop.
 */

#ifndef PERSIM_CACHE_CACHE_LINE_HH
#define PERSIM_CACHE_CACHE_LINE_HH

#include <cstdint>
#include <limits>

#include "sim/logging.hh"
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
 * construction time. The epoch id is stored plus one in 32 bits, so
 * 0 means untagged; EpochTable ids are per-core counters starting at 1,
 * and setTag refuses one that does not fit rather than wrap. The
 * sharers mask is kept as two 32-bit halves so that the record needs
 * only 4-byte alignment and packs to 20 bytes.
 */
class CacheLine
{
  public:
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
    std::uint64_t
    sharers() const
    {
        return (std::uint64_t{_sharersHi} << 32) | _sharersLo;
    }

    void
    setSharers(std::uint64_t mask)
    {
        _sharersLo = static_cast<std::uint32_t>(mask);
        _sharersHi = static_cast<std::uint32_t>(mask >> 32);
    }

    /**
     * Persist tag: the core whose unpersisted epoch last wrote the line.
     * kNoCore when the line carries no persist obligation at this level.
     */
    CoreId epochCore() const { return unpackCore(_epochCore); }

    /** Persist tag: epoch of last modification; kNoEpoch if untagged. */
    EpochId
    epochId() const
    {
        // Stored plus one: the untagged 0 wraps to kNoEpoch.
        return static_cast<EpochId>(_epochId) - 1;
    }

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
        simAssert(epoch < kEpochLimit, "epoch tag overflow: core ", core,
                  " epoch ", epoch, " does not fit the 32-bit line tag");
        _epochCore = packCore(core);
        _epochId = static_cast<std::uint32_t>(epoch + 1);
    }

    /** Reset to Invalid, dropping all metadata (pin and LRU stamp
     * included): the record is all zero bytes again. Lines resident in
     * a CacheArray must go through CacheArray::invalidate instead so
     * the array's tag scan stays in sync. */
    void invalidate() { *this = CacheLine{}; }

  private:
    static constexpr std::uint8_t kStateMask = 0x03;
    static constexpr std::uint8_t kDirtyBit = 0x04;
    static constexpr std::uint8_t kPinnedBit = 0x08;
    static constexpr std::uint8_t kNoCore8 = 0xFF;
    /** First epoch id whose stored form (id + 1) overflows 32 bits. */
    static constexpr EpochId kEpochLimit =
        std::numeric_limits<std::uint32_t>::max();

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

    /**
     * One bit per core, in two halves: the sharers mask fixes the
     * architectural core ceiling at 64, which is also what makes the
     * one-byte core ids above unambiguous. Keep in sync with kMaxCores.
     */
    std::uint32_t _sharersLo = 0;
    std::uint32_t _sharersHi = 0;
    std::uint32_t _epochId = 0; // epoch id + 1; 0 when untagged
    std::uint32_t _lruStamp = 0;
    std::uint8_t _epochCore = 0; // packCore(core)
    std::uint8_t _owner = 0;     // packCore(core)
    std::uint8_t _flags = 0;     // state (2 bits) | dirty | pinned
    /** Explicit padding, so every byte of an empty record is a defined
     * zero. */
    std::uint8_t _spare = 0;
};

static_assert(sizeof(std::uint64_t) * 8 == kMaxCores,
              "CacheLine::sharers holds one bit per core: widening the "
              "system beyond 64 cores needs a wider mask AND wider "
              "packed owner/epochCore fields");
static_assert(sizeof(CacheLine) <= 20,
              "CacheLine must stay within 20 bytes (28 host bytes per "
              "way with its tag); see the packing notes above");

} // namespace persim::cache

#endif // PERSIM_CACHE_CACHE_LINE_HH
