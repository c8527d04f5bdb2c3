// The MSHR table of the L1s and of the L2: a map from a line number to the
// waiters of that line's one outstanding miss.
//
// Open addressing with linear probing, and backward-shift erase, so there
// are no tombstones.  An erased entry's waiter vector stays in the table,
// cleared, so once the table has seen as many concurrent misses as it will
// hold, a miss allocates nothing.  The table doubles when it is half full,
// so it holds any number of lines: the L2's MSHR count is a soft limit.
// Nothing iterates the table, so its layout never reaches a result.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tbp::sim {

template <typename Waiter>
class LineTable {
 public:
  /// Sized so that `expected_lines` entries fill at most a quarter of it.
  explicit LineTable(std::size_t expected_lines) {
    resize(std::bit_ceil(std::max<std::size_t>(4 * expected_lines, 2)));
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// The waiters of `line`, or null when it has no entry.
  [[nodiscard]] std::vector<Waiter>* find(std::uint64_t line) noexcept {
    for (std::size_t i = home(line);; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (!slot.used) return nullptr;
      if (slot.line == line) return &slot.waiters;
    }
  }

  /// Adds an entry for `line`, which must have none, and returns its empty
  /// waiter list.
  std::vector<Waiter>& insert(std::uint64_t line) {
    if (2 * (size_ + 1) > slots_.size()) resize(2 * slots_.size());
    std::size_t i = home(line);
    while (slots_[i].used) {
      assert(slots_[i].line != line);
      i = (i + 1) & mask_;
    }
    slots_[i].used = true;
    slots_[i].line = line;
    ++size_;
    return slots_[i].waiters;
  }

  /// Removes the entry of `line`, which must exist.
  void erase(std::uint64_t line) noexcept {
    std::size_t hole = home(line);
    while (slots_[hole].line != line || !slots_[hole].used) {
      assert(slots_[hole].used);
      hole = (hole + 1) & mask_;
    }
    slots_[hole].waiters.clear();
    // Move each later entry of the probe run whose home does not lie
    // strictly between the hole and itself back into the hole.
    for (std::size_t i = (hole + 1) & mask_; slots_[i].used;
         i = (i + 1) & mask_) {
      if (((i - home(slots_[i].line)) & mask_) < ((i - hole) & mask_)) continue;
      slots_[hole].line = slots_[i].line;
      std::swap(slots_[hole].waiters, slots_[i].waiters);
      hole = i;
    }
    slots_[hole].used = false;
    --size_;
  }

 private:
  struct Slot {
    std::uint64_t line = 0;
    bool used = false;
    std::vector<Waiter> waiters;  ///< empty, capacity kept, while unused
  };

  /// Fibonacci hashing: line numbers of one access pattern differ in their
  /// low bits, which the multiply spreads over the top bits kept.
  [[nodiscard]] std::size_t home(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void resize(std::size_t n_slots) {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n_slots));
    mask_ = n_slots - 1;
    shift_ = 64 - std::countr_zero(n_slots);
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.used) insert(slot.line).swap(slot.waiters);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace tbp::sim
