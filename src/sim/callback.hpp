// Move-only, small-buffer callable for simulation events.
//
// Every event the engine runs is a `void()` closure, and the hot ones —
// a link delivery, a stack traversal step, a switch forward — capture a
// liveness guard, a pointer or an index and a util::Buffer frame handle:
// 64 to 72 bytes.  libstdc++'s std::function stores only 16 bytes inline
// and must be copyable, so each of those events paid a malloc/free and
// could not capture move-only state.  Callback stores closures of up to
// kInlineBytes in place, falls back to one heap block for larger ones,
// and is move-only (a captured std::unique_ptr is fine).
//
// Moving a Callback relocates the closure (move-construct into the new
// storage, destroy the old); a moved-from Callback is empty.
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace ipop::sim {

class Callback {
 public:
  /// Closures up to this size, with at most pointer alignment and a
  /// noexcept move, live inline.
  static constexpr std::size_t kInlineBytes = 80;
  template <typename D>
  static constexpr bool kStoredInline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  Callback() noexcept = default;

  /// Implicit, so every schedule_* call site passes a lambda as before.
  /// The enable_if keeps this from hiding the move constructor.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {
    if constexpr (kStoredInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  Callback(Callback&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  Callback& operator=(Callback&& o) noexcept {
    if (this != &o) {
      reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(buf_, o.buf_);
        ops_ = std::exchange(o.ops_, nullptr);
      }
    }
    return *this;
  }
  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;
  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invoke the closure; undefined on an empty Callback.
  void operator()() { ops_->invoke(buf_); }

 private:
  /// Destroy the closure (releasing whatever it captured) and become empty.
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct into `dst` and destroy the source.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { std::invoke(*static_cast<D*>(s)); },
      [](void* dst, void* src) noexcept {
        D& from = *static_cast<D*>(src);
        ::new (dst) D(std::move(from));
        from.~D();
      },
      [](void* s) noexcept { static_cast<D*>(s)->~D(); }};

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { std::invoke(**static_cast<D**>(s)); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* s) noexcept { delete *static_cast<D**>(s); }};

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ipop::sim
