// v6t::sim — small-buffer-optimized move-only callable for engine actions.
//
// std::function's inline buffer (two pointers on libstdc++) is smaller
// than the typical engine lambda — `[this, feed]`, `[this, sid, index]`,
// `[this, state]` — so the old `Engine::Action` paid one heap
// allocation per scheduled event, millions per run. SmallFunc stores up to
// kInlineBytes of capture state inline in the event-queue entry itself.
// Callables that do not fit (or whose move may throw) fall back to plain
// operator new/delete. No hot-path action takes that path: hot-path sites
// schedule through Engine::scheduleInline, which static_asserts
// fitsInline<F>(), so a capture that outgrows the buffer does not compile.
//
// Move-only by design: the event queue never copies actions, and dropping
// the copy requirement is what lets move-only captures (unique_ptr, etc.)
// ride along for free.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace v6t::sim {

class SmallFunc {
public:
  /// Inline capture capacity: sized for `this` plus a handful of values.
  static constexpr std::size_t kInlineBytes = 48;

  /// True when a callable of type Fn is stored inline (no allocation).
  template <typename Fn>
  static constexpr bool fitsInline() {
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  SmallFunc() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, SmallFunc> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  SmallFunc(F&& f) { // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inlineOps<Fn>;
    } else {
      *reinterpret_cast<void**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &heapOps<Fn>;
    }
  }

  SmallFunc(SmallFunc&& other) noexcept { moveFrom(other); }
  SmallFunc& operator=(SmallFunc&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  SmallFunc(const SmallFunc&) = delete;
  SmallFunc& operator=(const SmallFunc&) = delete;

  ~SmallFunc() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }
  /// True when the callable lives in the inline buffer — bench/test hook.
  [[nodiscard]] bool usesInline() const noexcept {
    return ops_ != nullptr && ops_->inlineStored;
  }

private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inlineStored;
  };

  template <typename Fn>
  static constexpr Ops inlineOps{
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* from, void* to) noexcept {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr Ops heapOps{
      [](void* s) { (*static_cast<Fn*>(*static_cast<void**>(s)))(); },
      [](void* from, void* to) noexcept {
        *static_cast<void**>(to) = *static_cast<void**>(from);
      },
      [](void* s) noexcept {
        delete static_cast<Fn*>(*static_cast<void**>(s));
      },
      false,
  };

  void moveFrom(SmallFunc& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

} // namespace v6t::sim
