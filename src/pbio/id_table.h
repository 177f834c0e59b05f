// A stream's table of the format ids it has seen, with a small value per
// id: a Resolver's resolutions, a Writer's descriptions and announcement
// flags. One owner, no lock.
//
// Open addressing with linear probing over a power-of-two array, kept at
// most three quarters full. Format ids are content hashes, so a
// multiplicative spread of the id picks the home slot. The array starts at
// four slots and doubles when it would pass the load bound, so a stream
// that meets K ids allocates O(log K) times and a known id allocates
// nothing. Values are default-constructed and assignable; clear() resets
// them and keeps the array. A value's address is stable until the next
// insert() or clear().
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace pbio {

template <typename V>
class IdTable {
 public:
  /// The value stored for `id`, or nullptr.
  V* find(std::uint64_t id) {
    if (slots_ == nullptr) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.id == id) return &s.value;
    }
  }

  /// Store `value` for `id`, which must not be in the table.
  V& insert(std::uint64_t id, V value) {
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    ++size_;
    return place(id, std::move(value));
  }

  /// Forget every id.
  void clear() {
    if (size_ == 0) return;
    for (std::size_t i = 0; i < capacity(); ++i) slots_[i] = Slot{};
    size_ = 0;
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t id = 0;
    bool used = false;
    V value{};
  };

  std::size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1; }

  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  V& place(std::uint64_t id, V value) {
    std::size_t i = home(id);
    while (slots_[i].used) i = (i + 1) & mask_;
    slots_[i].id = id;
    slots_[i].used = true;
    slots_[i].value = std::move(value);
    return slots_[i].value;
  }

  void grow() {
    const std::size_t old_capacity = capacity();
    const std::size_t new_capacity = old_capacity == 0 ? 4 : old_capacity * 2;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_ = std::make_unique<Slot[]>(new_capacity);
    mask_ = new_capacity - 1;
    shift_ = static_cast<unsigned>(64 - std::countr_zero(new_capacity));
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].used) place(old[i].id, std::move(old[i].value));
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace pbio
