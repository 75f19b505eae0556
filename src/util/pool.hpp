// Index-handled slab pools for steady-state-zero-allocation hot paths.
//
// A SlabPool hands out 32-bit slot indices into a growable slab.  Freed
// slots go on an intrusive LIFO free list and are *recycled as-is*:
// release() never destroys the stored T, so buffers the slot accumulated
// (std::any payloads, callback captures, vector capacity) survive into
// the next acquire and the steady state allocates nothing.  Callers
// overwrite the fields they use -- a recycled slot's old values are
// stale data, not cleared state.
//
// The free list is LIFO and the slab grows append-only, so the sequence
// of indices a deterministic caller observes is itself deterministic --
// pools never introduce cross-run divergence.
//
// Storage flavours:
//   * SlabPool<T>            -- vector-backed, contiguous, best cache
//     behaviour.  Growth MOVES existing slots: never hold a T& across an
//     acquire() (the sim engine moves the callable out of its slot
//     before running it for exactly this reason).
//   * SlabPool<T, true>      -- deque-backed, stable addresses.  For
//     slots that must stay referenceable while arbitrary reentrant code
//     runs (the network dispatches a handler while the send's slot is
//     live, and the handler may send again).
//
// HandlePool<T> puts generation-checked handles in front of a vector-
// backed SlabPool, for records whose handles outlive them: the front-end
// hands request and session handles to timers, wire bodies and callbacks
// that may fire after the record is gone and its slot reused.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace eslurm::util {

template <typename T, bool StableStorage = false>
class SlabPool {
 public:
  using Index = std::uint32_t;
  static constexpr Index kNone = UINT32_MAX;

  /// Returns a slot index: a recycled slot (contents stale, not reset)
  /// or a freshly default-constructed one appended to the slab.
  Index acquire() {
    if (free_head_ != kNone) {
      const Index index = free_head_;
      Slot& slot = slots_[index];
      free_head_ = slot.next_free;
      slot.next_free = kNone;
      ++in_use_;
      return index;
    }
    assert(slots_.size() < kNone);
    slots_.emplace_back();
    ++in_use_;
    return static_cast<Index>(slots_.size() - 1);
  }

  /// Returns a slot to the free list.  The stored T is kept alive for
  /// recycling; release heavyweight resources (payloads, callbacks)
  /// before releasing the slot if prompt reclamation matters.
  void release(Index index) {
    assert(index < slots_.size());
    assert(slots_[index].next_free == kNone && "double release");
    slots_[index].next_free = free_head_;
    free_head_ = index;
    --in_use_;
  }

  T& operator[](Index index) { return slots_[index].value; }
  const T& operator[](Index index) const { return slots_[index].value; }

  /// Slots ever created (live + recyclable); the pool's high-water mark.
  std::size_t capacity() const { return slots_.size(); }
  std::size_t in_use() const { return in_use_; }

  void reserve(std::size_t slots) {
    if constexpr (!StableStorage) slots_.reserve(slots);
  }

 private:
  struct Slot {
    T value{};
    Index next_free = kNone;
  };
  using Store =
      std::conditional_t<StableStorage, std::deque<Slot>, std::vector<Slot>>;

  Store slots_;
  Index free_head_ = kNone;
  std::size_t in_use_ = 0;
};

/// Vector-backed slots addressed by 56-bit handles: the slot index in the
/// low 24 bits, the slot's generation in the 32 above.  A slot's
/// generation is odd while it is live and even while it is free; acquire
/// and release each bump it.  find() is one bounds check and one compare,
/// and a stale handle -- its record released, the slot free or reused --
/// never matches.  A handle can only alias after its slot is reused 2^31
/// times.  The pool holds at most 2^24 live slots.
template <typename T>
class HandlePool {
 public:
  using Handle = std::uint64_t;
  static constexpr int kSlotBits = 24;
  static constexpr int kHandleBits = kSlotBits + 32;

  /// Returns the handle of a recycled slot (contents stale, as with
  /// SlabPool: the caller sets every field) or of a new one.
  Handle acquire() {
    const auto index = slots_.acquire();
    if (index >> kSlotBits) {
      slots_.release(index);
      throw std::length_error("HandlePool: more than 2^24 live slots");
    }
    Entry& entry = slots_[index];
    ++entry.generation;
    return (Handle{entry.generation} << kSlotBits) | index;
  }

  /// The live record behind `handle`; nullptr when it was released.
  T* find(Handle handle) {
    const auto index = static_cast<std::uint32_t>(handle & kSlotMask);
    if (index >= slots_.capacity()) return nullptr;
    Entry& entry = slots_[index];
    return entry.generation == (handle >> kSlotBits) ? &entry.value : nullptr;
  }

  /// The record behind a handle the caller knows is live.
  T& operator[](Handle handle) {
    assert(find(handle) && "stale HandlePool handle");
    return slots_[static_cast<std::uint32_t>(handle & kSlotMask)].value;
  }

  /// Frees a live handle's slot; the handle and every copy of it go stale.
  void release(Handle handle) {
    const auto index = static_cast<std::uint32_t>(handle & kSlotMask);
    assert(find(handle) && "releasing a stale HandlePool handle");
    ++slots_[index].generation;
    slots_.release(index);
  }

  std::size_t in_use() const { return slots_.in_use(); }
  /// Slots ever created: the high-water mark of in_use().
  std::size_t capacity() const { return slots_.capacity(); }

 private:
  static constexpr Handle kSlotMask = (Handle{1} << kSlotBits) - 1;

  struct Entry {
    T value{};
    std::uint32_t generation = 0;  ///< odd while live
  };

  SlabPool<Entry> slots_;
};

}  // namespace eslurm::util
