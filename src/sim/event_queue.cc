#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace persim
{

std::uint32_t
EventQueue::allocNode()
{
    if (_freeHead != kNoIndex) {
        const std::uint32_t slot = _freeHead;
        _freeHead = node(slot).next;
        return slot;
    }
    simAssert(_numNodes < kNoIndex, "event pool exhausted");
    if (_numNodes == _chunks.size() * kPoolChunk)
        _chunks.push_back(std::make_unique<Node[]>(kPoolChunk));
    return _numNodes++;
}

void
EventQueue::releaseNode(std::uint32_t slot)
{
    Node &n = node(slot);
    n.cb = Callback();
    n.next = _freeHead;
    _freeHead = slot;
}

void
EventQueue::pushWheel(Tick when, std::uint32_t slot)
{
    const std::size_t pos = static_cast<std::size_t>(when) & kWheelMask;
    Slot &s = _slots[pos];
    node(slot).next = kNoIndex;
    if (s.head == kNoIndex) {
        s.head = slot;
        setOccupied(pos);
    } else {
        node(s.tail).next = slot;
    }
    s.tail = slot;
    ++_wheelCount;
}

std::uint32_t
EventQueue::popCursorSlot()
{
    const std::size_t pos = static_cast<std::size_t>(_cursor) & kWheelMask;
    Slot &s = _slots[pos];
    const std::uint32_t slot = s.head;
    s.head = node(slot).next;
    if (s.head == kNoIndex) {
        s.tail = kNoIndex;
        clearOccupied(pos);
    }
    --_wheelCount;
    return slot;
}

void
EventQueue::enqueue(Tick when, std::uint32_t slot)
{
    // _cursor == _now whenever user code runs, so when >= _cursor and
    // the window test below is a plain subtraction.
    if (when - _cursor < kWheelSlots) {
        pushWheel(when, slot);
    } else {
        _heap.push_back(HeapEntry{when, _nextSeq++, slot});
        siftUp(_heap.size() - 1);
    }
    ++_numLive;
}

void
EventQueue::scheduledInPast(Tick when) const
{
    panic("event scheduled in the past: when=", when, " now=", _now);
}

void
EventQueue::nullCallback() const
{
    panic("null event callback");
}

void
EventQueue::delayOverflow(Tick delay) const
{
    panic("scheduleIn overflow: now=", _now, " delay=", delay,
          " wraps Tick");
}

// The overflow heap is 4-ary: a wider node halves the tree depth while
// keeping all four children of a node inside one or two host cache
// lines (HeapEntry is 24 bytes). Heap shape never affects simulation
// order — (when, seq) is a total order, so the pop sequence is
// identical for any valid heap arrangement.

void
EventQueue::siftUp(std::size_t i)
{
    const HeapEntry e = _heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kHeapArity;
        if (!before(e, _heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = _heap.size();
    const HeapEntry e = _heap[i];
    while (true) {
        const std::size_t first = kHeapArity * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kHeapArity, n);
        std::size_t smallest = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(_heap[c], _heap[smallest]))
                smallest = c;
        }
        if (!before(_heap[smallest], e))
            break;
        _heap[i] = _heap[smallest];
        i = smallest;
    }
    _heap[i] = e;
}

void
EventQueue::drainOverflow()
{
    while (!_heap.empty() && _heap.front().when - _cursor < kWheelSlots) {
        pushWheel(_heap.front().when, _heap.front().slot);
        _heap.front() = _heap.back();
        _heap.pop_back();
        if (!_heap.empty())
            siftDown(0);
    }
}

Tick
EventQueue::nextOccupiedTick() const
{
    const std::size_t p0 = static_cast<std::size_t>(_cursor) & kWheelMask;
    // First (partial) word: positions strictly after the cursor's.
    const std::size_t start = (p0 + 1) & kWheelMask;
    std::size_t word = start >> 6;
    const std::uint64_t head = _occupied[word] >> (start & 63);
    if (head) {
        const std::size_t pos =
            (start + static_cast<std::size_t>(std::countr_zero(head))) &
            kWheelMask;
        return _cursor + ((pos - p0) & kWheelMask);
    }
    for (std::size_t i = 1; i <= kWheelWords; ++i) {
        const std::size_t w = (word + i) & (kWheelWords - 1);
        const std::uint64_t bits = _occupied[w];
        if (bits) {
            const std::size_t pos =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t d = (pos - p0) & kWheelMask;
            simAssert(d != 0, "wheel occupancy out of sync");
            return _cursor + d;
        }
    }
    panic("nextOccupiedTick on an empty wheel");
    return kTickNever; // unreachable; panic() throws
}

bool
EventQueue::findNext(Tick limit)
{
    // No drain on entry: every cursor move below drains, and schedule()
    // only sends an event to the heap when it lies beyond the window.
    while (true) {
        const std::size_t pos =
            static_cast<std::size_t>(_cursor) & kWheelMask;
        if (_slots[pos].head != kNoIndex)
            return true;
        if (_wheelCount > 0) {
            const Tick next = nextOccupiedTick();
            if (next > limit)
                break;
            _cursor = next;
        } else if (!_heap.empty() && _heap.front().when <= limit) {
            _cursor = _heap.front().when;
        } else {
            break;
        }
        drainOverflow();
    }
    // Nothing at tick <= limit. Park the cursor where later schedules
    // (which satisfy when >= now()) cannot land behind it: at the limit
    // runUntil() will advance now() to, or back at now() for an
    // unbounded search over a drained queue.
    _cursor = limit == kTickNever ? _now : limit;
    drainOverflow();
    return false;
}

bool
EventQueue::dispatchNext(Tick limit)
{
    if (!findNext(limit))
        return false;
    simAssert(_cursor >= _now, "time went backwards");
    const std::uint32_t slot = popCursorSlot();
    --_numLive;
    _now = _cursor;
    ++_executed;
    // The node is recycled only after the callback returns (or throws),
    // so the callback runs in place.
    struct Recycle
    {
        EventQueue &q;
        std::uint32_t slot;
        ~Recycle() { q.releaseNode(slot); }
    } recycle{*this, slot};
    node(slot).cb();
    return true;
}

bool
EventQueue::runNext()
{
    return dispatchNext(kTickNever);
}

std::uint64_t
EventQueue::run(std::uint64_t maxEvents)
{
    std::uint64_t count = 0;
    while (count < maxEvents && runNext())
        ++count;
    return count;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (dispatchNext(limit))
        ++count;
    if (_now < limit)
        _now = limit;
    return count;
}

} // namespace persim
