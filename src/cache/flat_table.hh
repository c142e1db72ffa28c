/**
 * @file
 * Flat, pooled request-path containers for the LLC banks.
 *
 * gprof pinned ~15% of sweep runtime on the node-based
 * std::unordered_map tables that tracked per-line transaction queues
 * and pin-waiters in LlcBank: every insert/erase was a malloc/free
 * pair, every lookup a pointer chase through a bucket list. The two
 * structures here remove both costs from the simulated path:
 *
 *  - FlatAddrMap: an open-addressed, power-of-two, linearly probed
 *    hash table keyed by line address. Deletion uses backward-shift
 *    (tombstone-free), so probe chains stay contiguous and lookups
 *    never degrade as entries churn. Slots store the key and a small
 *    POD value inline — one contiguous allocation total.
 *
 *  - NodePool: an index-based freelist arena (the same pattern as the
 *    callback arena in sim/inline_callback.hh and the event-node pool
 *    in sim/event_queue.hh). Intrusive singly-linked lists thread
 *    through node indices, so list nodes are reused LIFO with no
 *    allocation in steady state, and indices stay valid across the
 *    vector growth that pointers would not survive.
 *
 * The flush engines, the ordering checker and the workloads' lock
 * manager use the same two containers for their per-line state.
 *
 * Both containers are deterministic: iteration order of FlatAddrMap
 * depends only on the insertion/erasure history, never on pointer
 * values, so sweep output stays byte-identical across runs.
 */

#ifndef PERSIM_CACHE_FLAT_TABLE_HH
#define PERSIM_CACHE_FLAT_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace persim::cache
{

/**
 * Open-addressed hash map from line address to a small value type.
 *
 * The key ~0 (never a line-aligned address) marks an empty slot, so no
 * separate occupancy metadata is needed. Values must be cheap to move
 * (the table relocates them on growth and on backward-shift erase) and
 * default-constructible. References returned by insertOrFind()/find()
 * are invalidated by any subsequent insert or erase.
 */
template <typename V>
class FlatAddrMap
{
  public:
    explicit FlatAddrMap(std::size_t initialCapacity = 64)
    {
        std::size_t cap = 16;
        while (cap < initialCapacity)
            cap <<= 1;
        _slots.resize(cap);
        _shift = 64 - log2OfPow2(cap);
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    std::size_t capacity() const { return _slots.size(); }

    /** Find the value for @p key, or insert a default-constructed one. */
    V &
    insertOrFind(Addr key)
    {
        if ((_size + 1) * 4 > _slots.size() * 3)
            grow();
        std::size_t i = idealSlot(key);
        while (true) {
            if (_slots[i].key == key)
                return _slots[i].value;
            if (_slots[i].key == kEmptyKey) {
                _slots[i].key = key;
                ++_size;
                return _slots[i].value;
            }
            i = (i + 1) & mask();
        }
    }

    V *
    find(Addr key)
    {
        std::size_t i = idealSlot(key);
        while (true) {
            if (_slots[i].key == key)
                return &_slots[i].value;
            if (_slots[i].key == kEmptyKey)
                return nullptr;
            i = (i + 1) & mask();
        }
    }

    const V *
    find(Addr key) const
    {
        return const_cast<FlatAddrMap *>(this)->find(key);
    }

    /**
     * Remove @p key, repairing the probe sequence by shifting every
     * displaced follower back toward its ideal slot (no tombstones).
     *
     * @return true if the key was present.
     */
    bool
    erase(Addr key)
    {
        std::size_t pos = idealSlot(key);
        while (true) {
            if (_slots[pos].key == key)
                break;
            if (_slots[pos].key == kEmptyKey)
                return false;
            pos = (pos + 1) & mask();
        }
        std::size_t next = (pos + 1) & mask();
        while (_slots[next].key != kEmptyKey) {
            const std::size_t home = idealSlot(_slots[next].key);
            // The follower may move into the hole only if doing so does
            // not lift it above its home slot in probe order.
            if (((next - home) & mask()) >= ((next - pos) & mask())) {
                _slots[pos] = std::move(_slots[next]);
                pos = next;
            }
            next = (next + 1) & mask();
        }
        _slots[pos].key = kEmptyKey;
        _slots[pos].value = V{};
        --_size;
        return true;
    }

    /** Visit every (key, value) pair; do not mutate the table inside. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : _slots) {
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        Addr key = kEmptyKey;
        V value{};
    };

    /** Never a line-aligned address, so it can mark empty slots. */
    static constexpr Addr kEmptyKey = ~static_cast<Addr>(0);

    static unsigned
    log2OfPow2(std::size_t v)
    {
        unsigned r = 0;
        while ((std::size_t{1} << r) < v)
            ++r;
        return r;
    }

    std::size_t mask() const { return _slots.size() - 1; }

    /** Fibonacci hash of the line number, folded to a slot index. */
    std::size_t
    idealSlot(Addr key) const
    {
        return static_cast<std::size_t>(
            (lineNum(key) * UINT64_C(0x9E3779B97F4A7C15)) >> _shift);
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(_slots);
        _slots.clear();
        _slots.resize(old.size() * 2);
        _shift = 64 - log2OfPow2(_slots.size());
        _size = 0;
        for (Slot &s : old) {
            if (s.key != kEmptyKey)
                insertOrFind(s.key) = std::move(s.value);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    unsigned _shift = 0;
};

/**
 * Index-based freelist arena for intrusive singly-linked list nodes.
 *
 * alloc() pops a recycled node (LIFO) or appends one; free() pushes the
 * node back after resetting its payload to T{} (releasing any resources
 * a move-only payload holds). The embedded `next` index serves both the
 * caller's intrusive list and the internal free list.
 */
template <typename T>
class NodePool
{
  public:
    /** Null link / "end of list". */
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    std::uint32_t
    alloc(T &&item)
    {
        std::uint32_t idx;
        if (_freeHead != kNil) {
            idx = _freeHead;
            _freeHead = _nodes[idx].next;
        } else {
            simAssert(_nodes.size() < kNil, "NodePool overflow");
            idx = static_cast<std::uint32_t>(_nodes.size());
            _nodes.emplace_back();
        }
        _nodes[idx].item = std::move(item);
        _nodes[idx].next = kNil;
        ++_live;
        return idx;
    }

    void
    release(std::uint32_t idx)
    {
        _nodes[idx].item = T{};
        _nodes[idx].next = _freeHead;
        _freeHead = idx;
        --_live;
    }

    T &at(std::uint32_t idx) { return _nodes[idx].item; }
    const T &at(std::uint32_t idx) const { return _nodes[idx].item; }

    std::uint32_t next(std::uint32_t idx) const { return _nodes[idx].next; }
    void setNext(std::uint32_t idx, std::uint32_t n) { _nodes[idx].next = n; }

    /** Nodes currently handed out. */
    std::size_t live() const { return _live; }

    /** High-water mark: nodes ever created (pool footprint). */
    std::size_t allocated() const { return _nodes.size(); }

  private:
    struct Node
    {
        T item{};
        std::uint32_t next = kNil;
    };

    std::vector<Node> _nodes;
    std::uint32_t _freeHead = kNil;
    std::size_t _live = 0;
};

/**
 * FIFO intrusive list head/tail pair over NodePool indices. The pool is
 * passed to each operation so the (tiny, POD) links can live inside
 * FlatAddrMap values without back-pointers.
 */
struct ListRef
{
    std::uint32_t head = 0xFFFFFFFFu;
    std::uint32_t tail = 0xFFFFFFFFu;

    bool empty() const { return head == 0xFFFFFFFFu; }

    template <typename Pool>
    void
    pushBack(Pool &pool, std::uint32_t node)
    {
        pool.setNext(node, Pool::kNil);
        if (empty())
            head = node;
        else
            pool.setNext(tail, node);
        tail = node;
    }

    /** Unlink and return the head node (list must be non-empty). */
    template <typename Pool>
    std::uint32_t
    popFront(Pool &pool)
    {
        const std::uint32_t node = head;
        head = pool.next(node);
        if (head == Pool::kNil)
            tail = Pool::kNil;
        return node;
    }
};

} // namespace persim::cache

#endif // PERSIM_CACHE_FLAT_TABLE_HH
