// Growable FIFO ring for queues that churn in steady state.
//
// std::deque allocates a block every few hundred push_backs and frees one
// every few hundred pop_fronts, even when its length stays flat.  A
// RingQueue keeps one power-of-two buffer that only grows (doubling when
// full), so a queue whose length plateaus allocates nothing afterwards.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace eslurm::util {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Buffer slots; grows only when a push finds the ring full.
  std::size_t capacity() const { return buffer_.size(); }

  void push_back(T value) {
    if (size_ == buffer_.size()) grow();
    buffer_[(head_ + size_) & (buffer_.size() - 1)] = std::move(value);
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return buffer_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (buffer_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(buffer_.empty() ? 16 : 2 * buffer_.size());
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(buffer_[(head_ + i) & (buffer_.size() - 1)]);
    buffer_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buffer_;  ///< power-of-two size, or empty
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace eslurm::util
