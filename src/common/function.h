#ifndef P2PDT_COMMON_FUNCTION_H_
#define P2PDT_COMMON_FUNCTION_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace p2pdt {

/// Move-only type-erased `void()` callable with a small-buffer optimization.
///
/// `std::function` requires its target to be copy-constructible, which
/// forbids lambdas that capture move-only payloads (`std::unique_ptr`,
/// etc.). The simulator schedules tens of millions of events at 100k+
/// peers, so its callback type must (a) accept move-only captures — the
/// old `priority_queue::top()` copy-out workaround is gone — and (b) avoid
/// a heap allocation for the common small-capture case.
///
/// Only what the event loop needs is provided: construct from any callable,
/// move, invoke once or more via operator(), test for emptiness. Copying is
/// deliberately deleted. As with `std::function`, wrapping a null function
/// pointer or an empty `std::function` yields an empty UniqueFunction, so
/// `if (fn)` keeps meaning "there is something to call".
class UniqueFunction {
 public:
  static constexpr std::size_t kInlineSize = 48;

  /// True when wrapping a callable of type F allocates nothing: it is
  /// stored in the inline buffer.
  template <typename F>
  static constexpr bool kStoredInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  UniqueFunction() = default;
  UniqueFunction(std::nullptr_t) {}  // NOLINT — mirrors std::function

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFunction(F&& f) {  // NOLINT — converting, like std::function
    using Decayed = std::decay_t<F>;
    if constexpr (IsNullable<Decayed>::value) {
      if (f == nullptr) return;
    }
    if constexpr (kStoredInline<Decayed>) {
      ::new (static_cast<void*>(buffer_)) Decayed(std::forward<F>(f));
      vtable_ = &InlineVTable<Decayed>::value;
    } else {
      ::new (static_cast<void*>(buffer_))
          Decayed*(new Decayed(std::forward<F>(f)));
      vtable_ = &HeapVTable<Decayed>::value;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { MoveFrom(other); }
  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }
  UniqueFunction& operator=(std::nullptr_t) {
    Reset();
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { Reset(); }

  void operator()() { vtable_->invoke(buffer_); }

  explicit operator bool() const { return vtable_ != nullptr; }

 private:
  /// Callables that can hold "nothing": wrapping one of those must not
  /// produce a non-empty UniqueFunction that throws when invoked.
  template <typename F>
  struct IsNullable : std::is_pointer<F> {};
  template <typename R, typename... Args>
  struct IsNullable<std::function<R(Args...)>> : std::true_type {};

  struct VTable {
    void (*invoke)(unsigned char*);
    void (*move)(unsigned char* dst, unsigned char* src);
    void (*destroy)(unsigned char*);
  };

  template <typename F>
  struct InlineVTable {
    static void Invoke(unsigned char* buf) {
      (*std::launder(reinterpret_cast<F*>(buf)))();
    }
    static void Move(unsigned char* dst, unsigned char* src) {
      F* from = std::launder(reinterpret_cast<F*>(src));
      ::new (static_cast<void*>(dst)) F(std::move(*from));
      from->~F();
    }
    static void Destroy(unsigned char* buf) {
      std::launder(reinterpret_cast<F*>(buf))->~F();
    }
    static constexpr VTable value = {&Invoke, &Move, &Destroy};
  };

  template <typename F>
  struct HeapVTable {
    static F*& Slot(unsigned char* buf) {
      return *std::launder(reinterpret_cast<F**>(buf));
    }
    static void Invoke(unsigned char* buf) { (*Slot(buf))(); }
    static void Move(unsigned char* dst, unsigned char* src) {
      ::new (static_cast<void*>(dst)) F*(Slot(src));
      Slot(src) = nullptr;
    }
    static void Destroy(unsigned char* buf) { delete Slot(buf); }
    static constexpr VTable value = {&Invoke, &Move, &Destroy};
  };

  void MoveFrom(UniqueFunction& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->move(buffer_, other.buffer_);
      other.vtable_ = nullptr;
    }
  }

  void Reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(buffer_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buffer_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

template <typename F>
constexpr UniqueFunction::VTable UniqueFunction::InlineVTable<F>::value;
template <typename F>
constexpr UniqueFunction::VTable UniqueFunction::HeapVTable<F>::value;

}  // namespace p2pdt

#endif  // P2PDT_COMMON_FUNCTION_H_
