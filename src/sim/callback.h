// Move-only callable with inline storage: the one callable type of the
// simulator, the cluster substrate and the front end's request path.
//
// The simulator schedules hundreds of millions of events per run, and each
// request walks several continuations; std::function heap-allocates any capture
// larger than its tiny SBO (16 bytes on libstdc++), which makes every scheduled
// event and most continuations a malloc/free pair. InlineFunction keeps
// captures up to its Capacity inside the object itself (event records live in
// the simulator's slab, pending ops in the front end's flat tables, so a
// small-capture callback performs zero allocations end to end) and falls back
// to the heap only for oversized captures.
//
// Unlike std::function it is move-only (so callbacks can own move-only state)
// and invokes the target as non-const (so `mutable` lambdas can move their
// captures onward, e.g. handing a Message to the next delivery hop without
// copying).

#ifndef SRC_SIM_CALLBACK_H_
#define SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace sns {

template <typename Signature, size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  static constexpr size_t kInlineCapacity = Capacity;

  InlineFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &InlineVtable<D>::kOps;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapVtable<D>::kOps;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(std::move(other)); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Precondition: holds a target.
  R operator()(Args... args) { return ops_->invoke(buf_, std::forward<Args>(args)...); }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*invoke)(void* buf, Args&&... args);
    void (*move)(void* dst, void* src) noexcept;  // src is destroyed.
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static R Call(D& target, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(target, std::forward<Args>(args)...);
    } else {
      return std::invoke(target, std::forward<Args>(args)...);
    }
  }

  template <typename D>
  struct InlineVtable {
    static D* Get(void* buf) noexcept { return std::launder(reinterpret_cast<D*>(buf)); }
    static R Invoke(void* buf, Args&&... args) {
      return Call(*Get(buf), std::forward<Args>(args)...);
    }
    static void Move(void* dst, void* src) noexcept {
      D* s = Get(src);
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void Destroy(void* buf) noexcept { Get(buf)->~D(); }
    static constexpr Ops kOps = {&Invoke, &Move, &Destroy};
  };

  template <typename D>
  struct HeapVtable {
    static D*& Ptr(void* buf) noexcept { return *std::launder(reinterpret_cast<D**>(buf)); }
    static R Invoke(void* buf, Args&&... args) {
      return Call(*Ptr(buf), std::forward<Args>(args)...);
    }
    static void Move(void* dst, void* src) noexcept { ::new (dst) D*(Ptr(src)); }
    static void Destroy(void* buf) noexcept { delete Ptr(buf); }
    static constexpr Ops kOps = {&Invoke, &Move, &Destroy};
  };

  void MoveFrom(InlineFunction&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineCapacity];
};

// An event callback. Large enough for the SAN delivery-hop lambdas (Message +
// SendOptions + a couple of scalars); small lambdas waste the tail, oversized
// ones heap-spill.
using SimCallback = InlineFunction<void(), 160>;

// A callback that Process::After or Cluster::RunOnCpu wraps in a SimCallback
// together with up to 32 bytes of its own bookkeeping; sized so the wrapper
// still fits SimCallback's inline storage.
using SimTask = InlineFunction<void(), SimCallback::kInlineCapacity - 48>;

}  // namespace sns

#endif  // SRC_SIM_CALLBACK_H_
