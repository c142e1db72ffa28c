/**
 * @file
 * Red-black-tree micro-benchmark (Table 2).
 *
 * The tree is a full CLRS red-black tree maintained host-side, with each
 * node bound to a 512B simulated NVRAM entry. Every node an operation
 * reads (the search path) or writes (insertions, rotations, recolors,
 * fixups) is recorded so the benchmark emits an address-accurate memory
 * stream for it.
 */

#ifndef PERSIM_WORKLOAD_MICRO_RBTREE_HH
#define PERSIM_WORKLOAD_MICRO_RBTREE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "workload/micro/micro_benchmark.hh"

namespace persim::workload
{

/** A red-black tree over simulated NVRAM entries. */
class RbTree
{
  public:
    /**
     * @param heap Backing allocator.
     * @param owner Thread whose allocation pool node entries use.
     */
    explicit RbTree(NvHeap &heap, CoreId owner = 0);
    ~RbTree();

    RbTree(const RbTree &) = delete;
    RbTree &operator=(const RbTree &) = delete;

    /**
     * Insert @p key.
     *
     * @param path Entry addresses read while descending (out).
     * @param touched Entry addresses written, in write order (out).
     * @return false if the key already existed (nothing written).
     */
    bool insert(std::uint64_t key, std::vector<Addr> &path,
                std::vector<Addr> &touched);

    /**
     * Erase @p key.
     * @return false if the key was absent.
     */
    bool erase(std::uint64_t key, std::vector<Addr> &path,
               std::vector<Addr> &touched);

    /** Record the search path for @p key; @return found. */
    bool lookup(std::uint64_t key, std::vector<Addr> &path) const;

    std::size_t size() const { return _size; }

    /**
     * Check the red-black invariants (root black, no red-red edge,
     * equal black height on every path). @return true when valid.
     */
    bool validate() const;

  private:
    struct Node
    {
        std::uint64_t key = 0;
        Node *left = nullptr;
        Node *right = nullptr;
        Node *parent = nullptr;
        bool red = false;
        Addr addr = 0;
    };

    void touch(Node *n);
    void rotateLeft(Node *x);
    void rotateRight(Node *x);
    void insertFixup(Node *z);
    void eraseFixup(Node *x);
    void transplant(Node *u, Node *v);
    Node *minimum(Node *n) const;
    int blackHeight(const Node *n, bool &ok) const;
    void destroy(Node *n);

    NvHeap &_heap;
    CoreId _owner;
    Node *_nil;
    Node *_root;
    std::size_t _size = 0;
    std::vector<Addr> *_touchLog = nullptr;
    /** Erased nodes, reused by the next inserts. */
    std::vector<Node *> _spareNodes;
};

/**
 * Shared state of the rbtree micro-benchmark: one tree per thread
 * (NVHeaps-style partitioning), each with its own lock so that
 * cross-thread operations stay safe.
 */
struct RbTreeState
{
    explicit RbTreeState(unsigned numThreads);

    struct PerTree
    {
        std::unique_ptr<RbTree> tree;
        std::vector<std::uint64_t> liveKeys;
        Addr lockWord = 0;
        std::uint64_t nextKey = 1;
    };

    NvHeap heap;
    LockManager locks;
    unsigned numThreads;
    std::vector<PerTree> trees;
};

/** One thread of the rbtree micro-benchmark (global tree lock). */
class RbTreeBenchmark : public MicroBenchmark
{
  public:
    RbTreeBenchmark(const MicroParams &params,
                    std::shared_ptr<RbTreeState> state)
        : MicroBenchmark(params, state->locks), _state(std::move(state))
    {
    }

  protected:
    void buildTransaction() override;

  private:
    std::shared_ptr<RbTreeState> _state;
    /** buildTransaction's tree walk and write set, reused. */
    std::vector<Addr> _path;
    std::vector<Addr> _touched;
};

} // namespace persim::workload

#endif // PERSIM_WORKLOAD_MICRO_RBTREE_HH
