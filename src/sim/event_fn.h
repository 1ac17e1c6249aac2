#ifndef GRIDVINE_SIM_EVENT_FN_H_
#define GRIDVINE_SIM_EVENT_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gridvine {

/// Opt-in marker for callables that may be relocated with memcpy (moved to a
/// new address and the source abandoned without running its destructor).
/// Trivially copyable types qualify automatically; a type whose members are
/// individually trivially relocatable but not trivially copyable (e.g. one
/// holding a shared_ptr) can opt in with
///   static constexpr bool kTriviallyRelocatable = true;
/// EventFn relocates such callables with a straight 48-byte copy instead of
/// an indirect move-construct+destroy call — the difference is visible in
/// heap sift operations, which relocate events on every reheap level.
template <typename T, typename = void>
struct IsTriviallyRelocatable : std::is_trivially_copyable<T> {};
template <typename T>
struct IsTriviallyRelocatable<T,
                              std::void_t<decltype(T::kTriviallyRelocatable)>>
    : std::bool_constant<T::kTriviallyRelocatable> {};

/// Move-only callable with small-buffer optimization, purpose-built for the
/// simulator's event queue. Captures up to `kInlineSize` bytes live inside
/// the EventFn itself — scheduling an ordinary timer or a network delivery
/// allocates nothing. Larger (or throwing-move) callables fall back to the
/// heap, like std::function.
///
/// Unlike std::function the wrapped callable only needs to be *move*-
/// constructible, and moving an EventFn never allocates or throws. Invoking
/// an empty/moved-from EventFn is undefined.
class EventFn {
 public:
  /// Inline capture budget. 48 bytes fits the transport's delivery record
  /// (pointer + two node ids + shared_ptr body) and typical timer lambdas
  /// (a couple of pointers and ids) with room to spare.
  static constexpr size_t kInlineSize = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_v<std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &InlineModel<D>::kOps;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &HeapModel<D>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept { MoveFrom(other); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the callable into `dst` from `src`, destroying `src`.
    /// nullptr means "relocate by memcpy of the whole inline buffer".
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineSize && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  struct InlineModel {
    static void Invoke(void* self) { (*static_cast<D*>(self))(); }
    static void Relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void Destroy(void* self) noexcept { static_cast<D*>(self)->~D(); }
    static constexpr Ops kOps = {
        &Invoke, IsTriviallyRelocatable<D>::value ? nullptr : &Relocate,
        &Destroy};
  };

  template <typename D>
  struct HeapModel {
    static void Invoke(void* self) { (**static_cast<D**>(self))(); }
    static void Destroy(void* self) noexcept { delete *static_cast<D**>(self); }
    // Relocation is a pointer copy — memcpy-relocatable by construction.
    static constexpr Ops kOps = {&Invoke, nullptr, &Destroy};
  };

  void MoveFrom(EventFn& other) noexcept {
    if (other.ops_) {
      if (other.ops_->relocate) {
        other.ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineSize);
      }
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  // Zeroed so MoveFrom's whole-buffer memcpy never copies bytes a smaller
  // callable left unwritten.
  alignas(std::max_align_t) unsigned char storage_[kInlineSize] = {};
  const Ops* ops_ = nullptr;
};

}  // namespace gridvine

#endif  // GRIDVINE_SIM_EVENT_FN_H_
