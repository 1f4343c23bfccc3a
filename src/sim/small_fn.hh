/**
 * @file
 * Small-buffer-optimized callable for the simulator's hot paths.
 *
 * Every simulated event, mesh delivery and controller continuation is
 * a SmallFn. std::function's ~16-byte inline buffer (libstdc++) forces
 * a heap allocation for nearly every capture list in the codebase;
 * SmallFn stores callables up to Capacity bytes in place and only
 * falls back to the heap beyond that, so the access path runs
 * allocation-free for ordinary protocol callbacks.
 *
 * Semantics: SmallFn<R(Args...), Capacity> is a type-erased callable,
 * movable and copyable (copying panics at runtime if the stored
 * callable is not copy-constructible — a duplicated mesh message
 * copies its closure, and with it every SmallFn the closure
 * captures). Like std::function, operator() is const and invokes the
 * stored callable as a mutable lvalue. emplace() builds a callable
 * straight into an existing SmallFn, which is how the event queue
 * fills its nodes.
 *
 * A callable may move its own SmallFn away while it runs (a
 * continuation handing itself on). Inline storage relocates the
 * callable in that move, so from then on it must touch only locals;
 * nothing in SmallFn touches the storage after the call returns.
 */

#ifndef SIM_SMALL_FN_HH
#define SIM_SMALL_FN_HH

#include <cstddef>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "logging.hh"

namespace nosync
{

template <typename Signature, std::size_t Capacity>
class SmallFn;

template <typename R, typename... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity>
{
  public:
    SmallFn() = default;
    SmallFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &,
                                        Args...>>>
    SmallFn(F &&f)
    {
        construct(std::forward<F>(f));
    }

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFn(const SmallFn &other)
    {
        if (other._ops) {
            panic_if(!other._ops->copy,
                     "copying a SmallFn holding a non-copyable "
                     "callable");
            other._ops->copy(other._storage, _storage);
            _ops = other._ops;
        }
    }

    SmallFn &
    operator=(const SmallFn &other)
    {
        if (this != &other) {
            SmallFn tmp(other);
            reset();
            moveFrom(tmp);
        }
        return *this;
    }

    ~SmallFn() { reset(); }

    R
    operator()(Args... args) const
    {
        panic_if(!_ops, "invoking an empty SmallFn");
        return _ops->invoke(_storage, std::forward<Args>(args)...);
    }

    /**
     * Replace the stored callable with @p f, built directly in this
     * SmallFn's storage: no temporary SmallFn, no type-erased
     * relocation. Another SmallFn of this type is move- or
     * copy-assigned.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, SmallFn>) {
            *this = std::forward<F>(f);
        } else {
            reset();
            construct(std::forward<F>(f));
        }
    }

    explicit operator bool() const { return _ops != nullptr; }

    /** Whether the callable lives in the inline buffer (tests). */
    bool
    storedInline() const
    {
        return _ops != nullptr && !_ops->onHeap;
    }

    /** Whether a callable of type @p Fn is stored inline. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Capacity && alignof(Fn) <= kAlign &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    void
    reset()
    {
        if (_ops) {
            _ops->destroy(_storage);
            _ops = nullptr;
        }
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *src, void *dst);
        /** Copy-construct dst from src; null if not copyable. */
        void (*copy)(const void *src, void *dst);
        void (*destroy)(void *);
        /** Relocation is a plain byte copy (no ops call needed). */
        bool trivialRelocate;
        bool onHeap;
    };

    /**
     * Pointer alignment keeps a SmallFn as compact as a std::function
     * of the same capacity inside the records that hold one; a
     * callable aligned more strictly lives on the heap.
     */
    static constexpr std::size_t kAlign = alignof(void *);

    /** Build @p f in the (empty) storage. */
    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            new (_storage) Fn(std::forward<F>(f));
            _ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(_storage) =
                new Fn(std::forward<F>(f));
            _ops = &heapOps<Fn>;
        }
    }

    void
    moveFrom(SmallFn &other) noexcept
    {
        _ops = other._ops;
        if (!_ops)
            return;
        if (_ops->trivialRelocate)
            std::memcpy(_storage, other._storage, Capacity);
        else
            _ops->relocate(other._storage, _storage);
        other._ops = nullptr;
    }

    template <typename Fn>
    static R
    invokeInline(void *s, Args &&...args)
    {
        return std::invoke(*std::launder(reinterpret_cast<Fn *>(s)),
                           std::forward<Args>(args)...);
    }

    template <typename Fn>
    static R
    invokeHeap(void *s, Args &&...args)
    {
        return std::invoke(**reinterpret_cast<Fn **>(s),
                           std::forward<Args>(args)...);
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        &invokeInline<Fn>,
        [](void *src, void *dst) {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        []() -> void (*)(const void *, void *) {
            if constexpr (std::is_copy_constructible_v<Fn>) {
                return [](const void *src, void *dst) {
                    new (dst) Fn(*std::launder(
                        reinterpret_cast<const Fn *>(src)));
                };
            } else {
                return nullptr;
            }
        }(),
        [](void *s) {
            std::launder(reinterpret_cast<Fn *>(s))->~Fn();
        },
        std::is_trivially_copyable_v<Fn> &&
            std::is_trivially_destructible_v<Fn>,
        false,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        &invokeHeap<Fn>,
        [](void *src, void *dst) {
            *reinterpret_cast<Fn **>(dst) =
                *reinterpret_cast<Fn **>(src);
        },
        []() -> void (*)(const void *, void *) {
            if constexpr (std::is_copy_constructible_v<Fn>) {
                return [](const void *src, void *dst) {
                    *reinterpret_cast<Fn **>(dst) = new Fn(
                        **reinterpret_cast<Fn *const *>(src));
                };
            } else {
                return nullptr;
            }
        }(),
        [](void *s) { delete *reinterpret_cast<Fn **>(s); },
        true, // relocating a heap callable just moves its pointer
        true,
    };

    /** First, so a small callable shares a cache line with it. */
    const Ops *_ops = nullptr;
    alignas(kAlign) mutable unsigned char _storage[Capacity];
};

} // namespace nosync

#endif // SIM_SMALL_FN_HH
