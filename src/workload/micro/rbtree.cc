#include "workload/micro/rbtree.hh"

#include "sim/logging.hh"

namespace persim::workload
{

RbTree::RbTree(NvHeap &heap, CoreId owner) : _heap(heap), _owner(owner)
{
    _nil = new Node();
    _nil->red = false;
    _nil->left = _nil->right = _nil->parent = _nil;
    _root = _nil;
}

RbTree::~RbTree()
{
    destroy(_root);
    for (Node *n : _spareNodes)
        delete n;
    delete _nil;
}

void
RbTree::destroy(Node *n)
{
    if (n == _nil)
        return;
    destroy(n->left);
    destroy(n->right);
    delete n;
}

void
RbTree::touch(Node *n)
{
    if (n != _nil && _touchLog)
        _touchLog->push_back(n->addr);
}

void
RbTree::rotateLeft(Node *x)
{
    Node *y = x->right;
    x->right = y->left;
    if (y->left != _nil)
        y->left->parent = x;
    y->parent = x->parent;
    if (x->parent == _nil)
        _root = y;
    else if (x == x->parent->left)
        x->parent->left = y;
    else
        x->parent->right = y;
    y->left = x;
    x->parent = y;
    touch(x);
    touch(y);
    touch(y->parent);
}

void
RbTree::rotateRight(Node *x)
{
    Node *y = x->left;
    x->left = y->right;
    if (y->right != _nil)
        y->right->parent = x;
    y->parent = x->parent;
    if (x->parent == _nil)
        _root = y;
    else if (x == x->parent->right)
        x->parent->right = y;
    else
        x->parent->left = y;
    y->right = x;
    x->parent = y;
    touch(x);
    touch(y);
    touch(y->parent);
}

bool
RbTree::insert(std::uint64_t key, std::vector<Addr> &path,
               std::vector<Addr> &touched)
{
    Node *y = _nil;
    Node *x = _root;
    while (x != _nil) {
        path.push_back(x->addr);
        y = x;
        if (key == x->key)
            return false;
        x = key < x->key ? x->left : x->right;
    }
    Node *z;
    if (_spareNodes.empty()) {
        z = new Node();
    } else {
        z = _spareNodes.back();
        _spareNodes.pop_back();
        *z = Node{};
    }
    z->key = key;
    z->left = z->right = _nil;
    z->parent = y;
    z->red = true;
    z->addr = _heap.alloc(kEntryBytes, _owner);

    _touchLog = &touched;
    touch(z);
    if (y == _nil)
        _root = z;
    else if (key < y->key)
        y->left = z;
    else
        y->right = z;
    touch(y);
    insertFixup(z);
    _touchLog = nullptr;
    ++_size;
    return true;
}

void
RbTree::insertFixup(Node *z)
{
    while (z->parent->red) {
        if (z->parent == z->parent->parent->left) {
            Node *uncle = z->parent->parent->right;
            if (uncle->red) {
                z->parent->red = false;
                uncle->red = false;
                z->parent->parent->red = true;
                touch(z->parent);
                touch(uncle);
                touch(z->parent->parent);
                z = z->parent->parent;
            } else {
                if (z == z->parent->right) {
                    z = z->parent;
                    rotateLeft(z);
                }
                z->parent->red = false;
                z->parent->parent->red = true;
                touch(z->parent);
                touch(z->parent->parent);
                rotateRight(z->parent->parent);
            }
        } else {
            Node *uncle = z->parent->parent->left;
            if (uncle->red) {
                z->parent->red = false;
                uncle->red = false;
                z->parent->parent->red = true;
                touch(z->parent);
                touch(uncle);
                touch(z->parent->parent);
                z = z->parent->parent;
            } else {
                if (z == z->parent->left) {
                    z = z->parent;
                    rotateRight(z);
                }
                z->parent->red = false;
                z->parent->parent->red = true;
                touch(z->parent);
                touch(z->parent->parent);
                rotateLeft(z->parent->parent);
            }
        }
    }
    if (_root->red) {
        _root->red = false;
        touch(_root);
    }
}

void
RbTree::transplant(Node *u, Node *v)
{
    if (u->parent == _nil)
        _root = v;
    else if (u == u->parent->left)
        u->parent->left = v;
    else
        u->parent->right = v;
    v->parent = u->parent;
    touch(u->parent);
    touch(v);
}

RbTree::Node *
RbTree::minimum(Node *n) const
{
    while (n->left != _nil)
        n = n->left;
    return n;
}

bool
RbTree::erase(std::uint64_t key, std::vector<Addr> &path,
              std::vector<Addr> &touched)
{
    Node *z = _root;
    while (z != _nil) {
        path.push_back(z->addr);
        if (key == z->key)
            break;
        z = key < z->key ? z->left : z->right;
    }
    if (z == _nil)
        return false;

    _touchLog = &touched;
    Node *y = z;
    bool yWasRed = y->red;
    Node *x;
    if (z->left == _nil) {
        x = z->right;
        transplant(z, z->right);
    } else if (z->right == _nil) {
        x = z->left;
        transplant(z, z->left);
    } else {
        y = minimum(z->right);
        yWasRed = y->red;
        x = y->right;
        if (y->parent == z) {
            x->parent = y;
        } else {
            transplant(y, y->right);
            y->right = z->right;
            y->right->parent = y;
            touch(y);
        }
        transplant(z, y);
        y->left = z->left;
        y->left->parent = y;
        y->red = z->red;
        touch(y);
        touch(y->left);
    }
    if (!yWasRed)
        eraseFixup(x);
    _touchLog = nullptr;

    _heap.free(z->addr, kEntryBytes, _owner);
    _spareNodes.push_back(z);
    --_size;
    return true;
}

void
RbTree::eraseFixup(Node *x)
{
    while (x != _root && !x->red) {
        if (x == x->parent->left) {
            Node *w = x->parent->right;
            if (w->red) {
                w->red = false;
                x->parent->red = true;
                touch(w);
                touch(x->parent);
                rotateLeft(x->parent);
                w = x->parent->right;
            }
            if (!w->left->red && !w->right->red) {
                w->red = true;
                touch(w);
                x = x->parent;
            } else {
                if (!w->right->red) {
                    w->left->red = false;
                    w->red = true;
                    touch(w->left);
                    touch(w);
                    rotateRight(w);
                    w = x->parent->right;
                }
                w->red = x->parent->red;
                x->parent->red = false;
                w->right->red = false;
                touch(w);
                touch(x->parent);
                touch(w->right);
                rotateLeft(x->parent);
                x = _root;
            }
        } else {
            Node *w = x->parent->left;
            if (w->red) {
                w->red = false;
                x->parent->red = true;
                touch(w);
                touch(x->parent);
                rotateRight(x->parent);
                w = x->parent->left;
            }
            if (!w->right->red && !w->left->red) {
                w->red = true;
                touch(w);
                x = x->parent;
            } else {
                if (!w->left->red) {
                    w->right->red = false;
                    w->red = true;
                    touch(w->right);
                    touch(w);
                    rotateLeft(w);
                    w = x->parent->left;
                }
                w->red = x->parent->red;
                x->parent->red = false;
                w->left->red = false;
                touch(w);
                touch(x->parent);
                touch(w->left);
                rotateRight(x->parent);
                x = _root;
            }
        }
    }
    if (x->red) {
        x->red = false;
        touch(x);
    }
}

bool
RbTree::lookup(std::uint64_t key, std::vector<Addr> &path) const
{
    const Node *n = _root;
    while (n != _nil) {
        path.push_back(n->addr);
        if (key == n->key)
            return true;
        n = key < n->key ? n->left : n->right;
    }
    return false;
}

int
RbTree::blackHeight(const Node *n, bool &ok) const
{
    if (n == _nil)
        return 1;
    if (n->red && (n->left->red || n->right->red))
        ok = false; // red-red edge
    const int lh = blackHeight(n->left, ok);
    const int rh = blackHeight(n->right, ok);
    if (lh != rh)
        ok = false;
    return lh + (n->red ? 0 : 1);
}

bool
RbTree::validate() const
{
    if (_root->red)
        return false;
    bool ok = true;
    blackHeight(_root, ok);
    return ok;
}

RbTreeState::RbTreeState(unsigned numThreads_)
    : numThreads(numThreads_), trees(numThreads_)
{
    for (unsigned t = 0; t < numThreads_; ++t) {
        trees[t].tree =
            std::make_unique<RbTree>(heap, static_cast<CoreId>(t));
        trees[t].lockWord =
            NvHeap::kDefaultBase - static_cast<Addr>(t + 1) * kLineBytes;
    }
}

void
RbTreeBenchmark::buildTransaction()
{
    unsigned slot = params().thread;
    if (_state->numThreads > 1 && rng().chance(params().crossFraction))
        slot = static_cast<unsigned>(rng().below(_state->numThreads));
    auto &st = _state->trees[slot];
    std::vector<Addr> &path = _path;
    std::vector<Addr> &touched = _touched;
    path.clear();
    touched.clear();
    const double r = rng().real();

    emitLockAcquire(st.lockWord);
    if (r < params().searchFraction && !st.liveKeys.empty()) {
        const std::uint64_t key =
            st.liveKeys[rng().below(st.liveKeys.size())];
        st.tree->lookup(key, path);
        for (Addr a : path)
            emitLoad(a);
    } else if (rng().chance(0.5) && st.liveKeys.size() > 8) {
        const std::size_t idx = rng().below(st.liveKeys.size());
        const std::uint64_t key = st.liveKeys[idx];
        st.liveKeys[idx] = st.liveKeys.back();
        st.liveKeys.pop_back();
        st.tree->erase(key, path, touched);
        for (Addr a : path)
            emitLoad(a);
        for (Addr a : touched)
            emitStore(a); // fixup writes (header lines)
        emitBarrier();
    } else {
        const std::uint64_t key = st.nextKey++;
        st.liveKeys.push_back(key);
        const bool inserted = st.tree->insert(key, path, touched);
        simAssert(inserted, "duplicate rbtree key generated");
        for (Addr a : path)
            emitLoad(a);
        // Epoch A: initialize the new node's full 512B entry (the first
        // touched address is the new node).
        if (!touched.empty())
            emitEntryWrite(touched.front());
        emitBarrier();
        // Epoch B: link + rebalance writes.
        for (std::size_t i = 1; i < touched.size(); ++i)
            emitStore(touched[i]);
        emitBarrier();
    }
    emitLockRelease(st.lockWord);
    emitCompute(params().thinkCycles);
    emitTxnDone();
}

} // namespace persim::workload
