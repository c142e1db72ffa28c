/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated machine. Events are
 * (tick, callback) pairs; events scheduled for the same tick execute in
 * FIFO scheduling order, which makes every simulation fully deterministic
 * for a given configuration and seed.
 */

#ifndef PERSIM_SIM_EVENT_QUEUE_HH
#define PERSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/types.hh"

namespace persim
{

/**
 * Deterministic timing-wheel event queue over pooled event nodes.
 *
 * Events within the wheel horizon (kWheelSlots ticks — which covers
 * nearly every event the simulator schedules, since component delays
 * are at most a few hundred cycles) go to a per-tick FIFO slot: an
 * intrusive singly linked list threaded through the nodes' `next`
 * index, so schedule and pop are O(1) link updates with no sifting
 * and no per-slot storage. Events beyond the horizon go to a small
 * 4-ary min-heap of POD entries (tick, sequence, pool slot) and drain
 * into the wheel as the cursor advances. Ordering is exactly (tick,
 * schedule order): wheel slots are FIFO and the overflow drains into
 * a slot strictly before any same-tick direct insert can reach it
 * (drains happen on every cursor advance, and a direct insert
 * requires the tick to be inside the window, which implies earlier
 * overflow entries for that tick have already drained).
 *
 * Callbacks live in a free-list pool of nodes recycled for the
 * lifetime of the queue. The pool grows in fixed-size chunks, so a
 * node never moves and each callback runs in place. Cancellation
 * flips a bit in the node — O(1), no hashing, no unbounded side
 * table — and each node carries a generation counter so stale
 * handles (fired, cancelled, or recycled events) are rejected without
 * any bookkeeping growth.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /**
     * Handle for cancelling a scheduled event. 0 is never returned.
     * Encodes (generation << 32 | pool slot); handles are never reused:
     * the generation advances whenever a node fires or is cancelled.
     */
    using EventId = std::uint64_t;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Callback executed when the event fires.
     * @return A handle usable with cancel().
     */
    EventId schedule(Tick when, Callback &&cb);

    /**
     * Schedule @p cb to run @p delay ticks from now.
     *
     * Asserts that now() + delay does not overflow Tick — a wrapped sum
     * would otherwise surface as a confusing "scheduled in the past"
     * panic (or, worse, a silently early event).
     */
    EventId scheduleIn(Tick delay, Callback &&cb);

    /**
     * Cancel a previously scheduled event.
     *
     * Cancelling an event that already fired (or was already cancelled)
     * is a no-op; handles are never reused.
     */
    void cancel(EventId id);

    /**
     * Pop and execute the next event.
     *
     * @return false if the queue was empty (time does not advance).
     */
    bool runNext();

    /**
     * Run events until the queue drains or @p maxEvents have executed.
     *
     * @return The number of events executed.
     */
    std::uint64_t run(std::uint64_t maxEvents = UINT64_MAX);

    /**
     * Run all events with tick <= @p limit; afterwards now() == limit
     * unless the queue drained earlier.
     *
     * @return The number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** True when no live events remain. */
    bool empty() const { return _numLive == 0; }

    /** Number of live (non-cancelled) events pending. */
    std::size_t pending() const { return _numLive; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    // ------------------------------------------------------------------
    // Pool probes (regression tests and diagnostics)
    // ------------------------------------------------------------------

    /** Cancelled events still occupying a pool node (bounded by the
     * number of in-flight events; a cancel of a fired/stale handle
     * leaves no residue at all). */
    std::size_t pendingCancellations() const { return _numCancelled; }

    /** Total nodes ever created (pool high-water mark). */
    std::size_t poolAllocated() const { return _numNodes; }

    /** Nodes currently parked on the free list. */
    std::size_t poolFree() const
    {
        return _numNodes - _numLive - _numCancelled;
    }

    /** Nodes per pool chunk; chunks are never moved or freed, so a
     * node's address is stable for the queue's lifetime. */
    static constexpr std::size_t kPoolChunk = 1024;

  private:
    static constexpr std::uint32_t kNoIndex = UINT32_MAX;
    /** Overflow-heap fan-out; see the determinism note at siftDown(). */
    static constexpr std::size_t kHeapArity = 4;
    /** Wheel horizon in ticks (power of two). */
    static constexpr std::size_t kWheelSlots = 4096;
    static constexpr std::size_t kWheelMask = kWheelSlots - 1;
    static constexpr std::size_t kWheelWords = kWheelSlots / 64;
    static constexpr unsigned kChunkShift = std::countr_zero(kPoolChunk);
    static_assert(std::has_single_bit(kPoolChunk));

    struct Node
    {
        Callback cb;
        std::uint32_t gen = 1; // bumped when the event fires or is freed
        /** Next node of the same wheel slot, or of the free list. */
        std::uint32_t next = kNoIndex;
        bool inUse = false; // scheduled, and not yet fired or freed
        bool cancelled = false;
    };

    /** Head and tail of one wheel slot's FIFO (kNoIndex when empty). */
    struct Slot
    {
        std::uint32_t head = kNoIndex;
        std::uint32_t tail = kNoIndex;
    };

    /** POD heap entry; seq is the monotonic FIFO tie-breaker. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** True if a orders strictly before b. */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when < b.when || (a.when == b.when && a.seq < b.seq);
    }

    Node &
    node(std::uint32_t slot)
    {
        return _chunks[slot >> kChunkShift][slot & (kPoolChunk - 1)];
    }

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::uint32_t allocNode();
    /** Return a node to the free list, dropping its callback. */
    void releaseNode(std::uint32_t slot);

    /** Append @p slot to the wheel slot for tick @p when (in-window). */
    void pushWheel(Tick when, std::uint32_t slot);

    /** Unlink the head node of the cursor's wheel slot. */
    std::uint32_t popCursorSlot();

    /** Move overflow entries that entered the window onto the wheel. */
    void drainOverflow();

    /** Tick of the nearest occupied wheel slot after the cursor;
     * requires _wheelCount > 0. */
    Tick nextOccupiedTick() const;

    /**
     * Advance the cursor (never past @p limit), skimming cancelled
     * entries, until its slot's head is live. Returns false if none
     * exists at tick <= limit; the cursor is then left at @p limit
     * (or back at now() for an unbounded search) so later schedules
     * stay ahead of it.
     */
    bool findNextLive(Tick limit);

    /** Run the next live event at tick <= @p limit; false if none. */
    bool dispatchNext(Tick limit);

    void
    setOccupied(std::size_t pos)
    {
        _occupied[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    void
    clearOccupied(std::size_t pos)
    {
        _occupied[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    /** Per-tick FIFO slots. A slot holds entries for exactly one tick
     * of the window [cursor, cursor+W). */
    std::array<Slot, kWheelSlots> _slots{};
    std::array<std::uint64_t, kWheelWords> _occupied{};
    /** Tick the wheel cursor rests on; == now() whenever user code can
     * run (callbacks or between run calls). */
    Tick _cursor = 0;
    /** Entries resident in wheel slots (live + not-yet-skimmed). */
    std::size_t _wheelCount = 0;

    std::vector<HeapEntry> _heap; // overflow: when - cursor >= kWheelSlots
    std::vector<std::unique_ptr<Node[]>> _chunks;
    std::uint32_t _numNodes = 0;
    std::uint32_t _freeHead = kNoIndex;
    std::uint64_t _nextSeq = 1;
    std::size_t _numLive = 0;
    std::size_t _numCancelled = 0;
    Tick _now = 0;
    std::uint64_t _executed = 0;
};

} // namespace persim

#endif // PERSIM_SIM_EVENT_QUEUE_HH
