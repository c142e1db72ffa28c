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
#include <type_traits>
#include <utility>
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
 * node never moves: schedule() builds each closure directly in its
 * node, and the callback runs in place. Events cannot be cancelled
 * (no component needs it), so every queued node is live and dispatch
 * reads nothing but the slot lists before running it.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute tick @p when. A closure is
     * built directly in its pooled node; a Callback is moved there.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Callable executed when the event fires.
     */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        if (when < _now) [[unlikely]]
            scheduledInPast(when);
        constexpr bool isCallback =
            std::is_same_v<std::decay_t<F>, Callback>;
        static_assert(!isCallback || !std::is_lvalue_reference_v<F>,
                      "pass a Callback as an rvalue");
        if constexpr (isCallback) {
            if (!cb) [[unlikely]]
                nullCallback();
        }
        const std::uint32_t slot = allocNode();
        if constexpr (isCallback)
            node(slot).cb = std::move(cb);
        else
            node(slot).cb.emplace(std::forward<F>(cb));
        enqueue(when, slot);
    }

    /**
     * Schedule @p cb to run @p delay ticks from now.
     *
     * Asserts that now() + delay does not overflow Tick — a wrapped sum
     * would otherwise surface as a confusing "scheduled in the past"
     * panic (or, worse, a silently early event).
     */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&cb)
    {
        if (delay > kTickNever - _now) [[unlikely]]
            delayOverflow(delay);
        schedule(_now + delay, std::forward<F>(cb));
    }

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

    /** True when no events remain. */
    bool empty() const { return _numLive == 0; }

    /** Number of events pending. */
    std::size_t pending() const { return _numLive; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    // ------------------------------------------------------------------
    // Pool probes (regression tests and diagnostics)
    // ------------------------------------------------------------------

    /** Total nodes ever created (pool high-water mark). */
    std::size_t poolAllocated() const { return _numNodes; }

    /** Nodes currently parked on the free list. */
    std::size_t poolFree() const { return _numNodes - _numLive; }

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
        /** Next node of the same wheel slot, or of the free list. */
        std::uint32_t next = kNoIndex;
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

    /** Queue the filled node @p slot for tick @p when (>= now()). */
    void enqueue(Tick when, std::uint32_t slot);

    [[noreturn]] void scheduledInPast(Tick when) const;
    [[noreturn]] void nullCallback() const;
    [[noreturn]] void delayOverflow(Tick delay) const;

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
     * Advance the cursor (never past @p limit) to the next occupied
     * wheel slot. Returns false if none exists at tick <= limit; the
     * cursor is then left at @p limit (or back at now() for an
     * unbounded search) so later schedules stay ahead of it.
     */
    bool findNext(Tick limit);

    /** Run the next event at tick <= @p limit; false if none. */
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
    /** Entries resident in wheel slots. */
    std::size_t _wheelCount = 0;

    std::vector<HeapEntry> _heap; // overflow: when - cursor >= kWheelSlots
    std::vector<std::unique_ptr<Node[]>> _chunks;
    std::uint32_t _numNodes = 0;
    std::uint32_t _freeHead = kNoIndex;
    std::uint64_t _nextSeq = 1;
    std::size_t _numLive = 0;
    Tick _now = 0;
    std::uint64_t _executed = 0;
};

} // namespace persim

#endif // PERSIM_SIM_EVENT_QUEUE_HH
