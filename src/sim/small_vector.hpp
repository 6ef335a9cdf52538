// Small-buffer vector for per-call scratch on the hot path.
//
// A collective call needs a handful of short lists: the aggregators a rank
// touches, the sources an aggregator hears from, the requests it waits on.
// Their lengths follow the peers one call touches, usually a few, so a
// std::vector for each costs a heap allocation per list per call.
// SmallVector keeps its first N elements inline and moves to the heap only
// past them, like SmallCallback (sim/callback.hpp) does for captures. It
// lives in the call's frame and frees what it took when the call returns,
// so nothing is retained between calls. Elements must be nothrow-movable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace parcoll::sim {

template <typename T, std::size_t N>
class SmallVector {
  static_assert(N > 0);
  static_assert(std::is_nothrow_move_constructible_v<T>);

 public:
  SmallVector() = default;

  SmallVector(SmallVector&& other) noexcept { take(other); }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  SmallVector(const SmallVector&) = delete;
  SmallVector& operator=(const SmallVector&) = delete;

  ~SmallVector() { release(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T& front() { return data_[0]; }
  [[nodiscard]] const T& front() const { return data_[0]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  operator std::span<T>() { return {data_, size_}; }  // NOLINT
  operator std::span<const T>() const { return {data_, size_}; }  // NOLINT

  void reserve(std::size_t capacity) {
    if (capacity > capacity_) grow(capacity);
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow(capacity_ * 2);
    T* slot = ::new (static_cast<void*>(data_ + size_)) T(
        std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  /// Resize to `count` elements; new ones are value-initialized.
  void resize(std::size_t count) {
    reserve(count);
    while (size_ < count) emplace_back();
    while (size_ > count) data_[--size_].~T();
  }

  void clear() {
    std::destroy(data_, data_ + size_);
    size_ = 0;
  }

 private:
  [[nodiscard]] T* inline_data() {
    return std::launder(reinterpret_cast<T*>(buffer_));
  }

  void grow(std::size_t capacity) {
    T* heap = std::allocator<T>().allocate(capacity);
    std::uninitialized_move(data_, data_ + size_, heap);
    std::destroy(data_, data_ + size_);
    if (data_ != inline_data()) {
      std::allocator<T>().deallocate(data_, capacity_);
    }
    data_ = heap;
    capacity_ = capacity;
  }

  void release() {
    std::destroy(data_, data_ + size_);
    if (data_ != inline_data()) {
      std::allocator<T>().deallocate(data_, capacity_);
    }
    data_ = inline_data();
    size_ = 0;
    capacity_ = N;
  }

  /// Move `other`'s elements in (this is empty and inline): steal a heap
  /// buffer, or move an inline one element by element.
  void take(SmallVector& other) noexcept {
    if (other.data_ != other.inline_data()) {
      data_ = std::exchange(other.data_, other.inline_data());
      capacity_ = std::exchange(other.capacity_, N);
      size_ = std::exchange(other.size_, 0);
      return;
    }
    std::uninitialized_move(other.data_, other.data_ + other.size_, data_);
    size_ = other.size_;
    other.clear();
  }

  alignas(T) unsigned char buffer_[N * sizeof(T)];
  T* data_ = inline_data();
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace parcoll::sim
