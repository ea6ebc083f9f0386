// Reorder buffer of StreamDetector's hardened ingest path: holds
// accepted events until the low watermark passes them, then releases
// them in exact (time, seq) order.
//
// A platform feed arrives almost in time order, so the buffer is a
// sorted run plus a min-heap. An arrival at or after the run's tail is
// appended to the run; only stragglers go to the heap. top()/pop() take
// the smaller of the two heads. An in-order feed therefore never touches
// the heap and every operation is O(1), while any feed releases in
// exactly the order a single priority queue would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "osn/events.h"

namespace sybil::core {

class ReorderBuffer {
 public:
  /// One accepted event. The sort key is the event's own time, then the
  /// transport seq (unique among buffered entries: the detector
  /// deduplicates seqs before buffering).
  struct Entry {
    std::uint64_t seq;
    osn::Event event;
  };

  /// Strict (time, seq) order.
  static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.event.time != b.event.time) return a.event.time < b.event.time;
    return a.seq < b.seq;
  }

  bool empty() const noexcept { return run_.empty() && heap_.empty(); }
  std::size_t size() const noexcept { return run_.size() + heap_.size(); }
  /// Entries that arrived behind the run's tail (held in the heap).
  std::size_t stragglers() const noexcept { return heap_.size(); }

  void push(const Entry& e);
  /// The smallest (time, seq) entry. Requires !empty().
  const Entry& top() const noexcept {
    return heap_first() ? heap_.front() : run_.front();
  }
  /// Removes top(). Requires !empty().
  void pop();

  /// Every entry in ascending (time, seq) order — the checkpoint form.
  std::vector<Entry> sorted() const;
  /// Replaces the contents with `entries`, given in any order.
  void assign(std::vector<Entry> entries);

 private:
  /// True when the heap holds the overall smallest entry.
  bool heap_first() const noexcept {
    return !heap_.empty() &&
           (run_.empty() || before(heap_.front(), run_.front()));
  }

  std::deque<Entry> run_;    // ascending (time, seq)
  std::vector<Entry> heap_;  // min-heap of the stragglers
};

}  // namespace sybil::core
