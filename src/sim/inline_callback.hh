/**
 * @file
 * Small-buffer-optimized, move-only callables for the simulation kernel.
 *
 * Every event and continuation on the hot path used to be a
 * std::function<void()>; each capture larger than the library's tiny
 * SBO window (two pointers on libstdc++) cost a malloc/free pair per
 * scheduled event. InlineFunction keeps captures of up to
 * kInlineBytes (six pointers) in the object itself, and routes the
 * rare oversized closure — deep continuation chains built by conflict
 * resolution — through a per-thread free-list of fixed-size blocks,
 * so steady-state simulation performs no general-purpose allocation
 * per event at all.
 */

#ifndef PERSIM_SIM_INLINE_CALLBACK_HH
#define PERSIM_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace persim
{

namespace detail
{

/**
 * Thread-local free-list allocator for oversized callback closures.
 *
 * All closures above the inline budget share one block size so a
 * single LIFO free list serves them; closures above kBlockBytes (none
 * on the current hot paths) fall back to operator new. Blocks are
 * returned to the owning thread's list on destruction and released to
 * the system when the thread exits, which keeps sanitizer leak checks
 * clean.
 */
class CallbackArena
{
  public:
    /** One size class covers every oversized closure we ever build. */
    static constexpr std::size_t kBlockBytes = 256;

    static void *
    allocate(std::size_t bytes)
    {
        if (bytes > kBlockBytes)
            return ::operator new(bytes);
        FreeList &fl = list();
        if (fl.head) {
            void *p = fl.head;
            fl.head = *static_cast<void **>(p);
            --fl.cached;
            return p;
        }
        ++fl.allocated;
        return ::operator new(kBlockBytes);
    }

    static void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        if (bytes > kBlockBytes) {
            ::operator delete(p);
            return;
        }
        FreeList &fl = list();
        *static_cast<void **>(p) = fl.head;
        fl.head = p;
        ++fl.cached;
    }

    /** Blocks ever taken from operator new by this thread (probe). */
    static std::uint64_t blocksAllocated() { return list().allocated; }

    /** Blocks currently parked on this thread's free list (probe). */
    static std::uint64_t blocksCached() { return list().cached; }

  private:
    struct FreeList
    {
        void *head = nullptr;
        std::uint64_t allocated = 0;
        std::uint64_t cached = 0;

        ~FreeList()
        {
            while (head) {
                void *next = *static_cast<void **>(head);
                ::operator delete(head);
                head = next;
            }
        }
    };

    static FreeList &
    list()
    {
        thread_local FreeList fl;
        return fl;
    }
};

} // namespace detail

template <typename Sig>
class InlineFunction;

/**
 * Move-only callable with a six-pointer inline buffer.
 *
 * Closures that fit kInlineBytes (and are nothrow-move-constructible)
 * live inside the object; larger ones live in a CallbackArena block.
 * An inline closure that is trivially copyable and trivially
 * destructible (copyOnly) gets no manager at all, so moving the
 * InlineFunction copies its storage and destroying it calls nothing.
 * Use inlineOnly() at hot call sites to turn an accidental capture
 * growth into a compile error instead of a silent allocation.
 */
template <typename R, typename... Args>
class InlineFunction<R(Args...)>
{
  public:
    /** Inline capture budget: six pointers (the ISSUE floor is three). */
    static constexpr std::size_t kInlineBytes = 6 * sizeof(void *);

    /** True when @p F will be stored inline (no allocation at all). */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(std::decay_t<F>) <= kInlineBytes &&
        alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<std::decay_t<F>>;

    /**
     * True when an inline @p F needs no manager: moving it is a copy of
     * the storage bytes and destroying it is a no-op. Hot captures
     * such as [this, addr] take this path.
     */
    template <typename F>
    static constexpr bool copyOnly =
        std::is_trivially_copyable_v<std::decay_t<F>> &&
        std::is_trivially_destructible_v<std::decay_t<F>>;

    /** Callables (other than InlineFunction itself) it can hold. */
    template <typename F>
    using Accepts = std::enable_if_t<
        !std::is_same_v<std::decay_t<F>, InlineFunction> &&
        std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>;

    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F, typename = Accepts<F>>
    InlineFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    /**
     * Replace the held closure with @p f, built directly in this
     * object's storage (no temporary InlineFunction and no relocation).
     * The event queue builds every event in its pooled node this way.
     */
    template <typename F, typename = Accepts<F>>
    void
    emplace(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
    }

    /** Construct with a compile-time guarantee of inline storage. */
    template <typename F>
    static InlineFunction
    inlineOnly(F &&f)
    {
        static_assert(fitsInline<F>,
                      "hot-path callback capture exceeds the inline "
                      "budget (kInlineBytes); shrink the capture list");
        return InlineFunction(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept
        : _invoke(other._invoke), _manage(other._manage)
    {
        relocateFrom(other);
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            _invoke = other._invoke;
            _manage = other._manage;
            relocateFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return _invoke != nullptr; }

    R
    operator()(Args... args)
    {
        return _invoke(&_store, std::forward<Args>(args)...);
    }

  private:
    union Storage
    {
        alignas(std::max_align_t) unsigned char buf[kInlineBytes];
        void *heap;
    };

    /** Build @p f into this (empty) object. */
    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>) {
            // A copy-only closure is relocated by copying the whole
            // buffer, so give its unused tail defined bytes.
            if constexpr (copyOnly<Fn>)
                std::memset(_store.buf, 0, kInlineBytes);
            ::new (static_cast<void *>(_store.buf))
                Fn(std::forward<F>(f));
            _invoke = &invokeInline<Fn>;
            if constexpr (!copyOnly<Fn>)
                _manage = &manageInline<Fn>;
        } else {
            void *p = detail::CallbackArena::allocate(sizeof(Fn));
            try {
                ::new (p) Fn(std::forward<F>(f));
            } catch (...) {
                detail::CallbackArena::deallocate(p, sizeof(Fn));
                throw;
            }
            _store.heap = p;
            _invoke = &invokeHeap<Fn>;
            _manage = &manageHeap<Fn>;
        }
    }

    void
    reset() noexcept
    {
        if (_manage) {
            _manage(nullptr, &_store);
            _manage = nullptr;
        }
        _invoke = nullptr;
    }

    /** Take over @p other's closure (_invoke/_manage already copied). */
    void
    relocateFrom(InlineFunction &other) noexcept
    {
        if (_manage)
            _manage(&_store, &other._store);
        else if (_invoke)
            // Copy-only closure: memcpy implicitly creates the
            // trivially copyable closure object in our storage.
            std::memcpy(&_store, &other._store, sizeof(Storage));
        other._invoke = nullptr;
        other._manage = nullptr;
    }

    template <typename Fn>
    static R
    invokeInline(Storage *s, Args... args)
    {
        return (*std::launder(reinterpret_cast<Fn *>(s->buf)))(
            std::forward<Args>(args)...);
    }

    template <typename Fn>
    static R
    invokeHeap(Storage *s, Args... args)
    {
        return (*static_cast<Fn *>(s->heap))(std::forward<Args>(args)...);
    }

    /** dst == nullptr destroys @p src; otherwise relocates src to dst. */
    template <typename Fn>
    static void
    manageInline(Storage *dst, Storage *src) noexcept
    {
        Fn *f = std::launder(reinterpret_cast<Fn *>(src->buf));
        if (dst)
            ::new (static_cast<void *>(dst->buf)) Fn(std::move(*f));
        f->~Fn();
    }

    template <typename Fn>
    static void
    manageHeap(Storage *dst, Storage *src) noexcept
    {
        if (dst) {
            dst->heap = src->heap;
        } else {
            Fn *f = static_cast<Fn *>(src->heap);
            f->~Fn();
            detail::CallbackArena::deallocate(src->heap, sizeof(Fn));
        }
        src->heap = nullptr;
    }

    R (*_invoke)(Storage *, Args...) = nullptr;
    void (*_manage)(Storage *, Storage *) noexcept = nullptr;
    Storage _store;
};

/** The kernel's event/continuation callable. */
using InlineCallback = InlineFunction<void()>;

} // namespace persim

#endif // PERSIM_SIM_INLINE_CALLBACK_HH
