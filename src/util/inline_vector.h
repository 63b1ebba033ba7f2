// Vector of trivially copyable values that keeps its first N elements inline.
//
// Replica chains are built for every cache probe and put: at the usual
// replication factors (R <= N) a chain lives entirely inside its owner (a stack
// frame, a pending op) and costs no allocation. Appending past N moves the
// elements into a heap vector, so an unusually large R still works, just not
// for free.

#ifndef SRC_UTIL_INLINE_VECTOR_H_
#define SRC_UTIL_INLINE_VECTOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <vector>

namespace sns {

template <typename T, size_t N>
class InlineVector {
  static_assert(std::is_trivially_copyable_v<T>, "InlineVector holds trivially copyable values");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVector() = default;
  InlineVector(std::initializer_list<T> values) {
    for (const T& v : values) push_back(v);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(const T& value) {
    if (size_ < N) {
      inline_[size_++] = value;
      return;
    }
    if (size_ == N) {
      spill_.assign(inline_.begin(), inline_.end());
    }
    spill_.push_back(value);
    ++size_;
  }

  void clear() {
    size_ = 0;
    spill_.clear();
  }

  T* data() { return size_ <= N ? inline_.data() : spill_.data(); }
  const T* data() const { return size_ <= N ? inline_.data() : spill_.data(); }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }

  bool operator==(const InlineVector& other) const {
    return std::equal(begin(), end(), other.begin(), other.end());
  }
  bool operator!=(const InlineVector& other) const { return !(*this == other); }

 private:
  std::array<T, N> inline_{};
  std::vector<T> spill_;  // All elements once size_ > N; empty before.
  size_t size_ = 0;
};

}  // namespace sns

#endif  // SRC_UTIL_INLINE_VECTOR_H_
