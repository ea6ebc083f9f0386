#include "core/reorder_buffer.h"

#include <algorithm>
#include <iterator>

namespace sybil::core {

namespace {

/// Heap comparator: std::*_heap keep the largest element under `less`,
/// so the inverted order keeps the smallest (time, seq) at the front.
bool after(const ReorderBuffer::Entry& a,
           const ReorderBuffer::Entry& b) noexcept {
  return ReorderBuffer::before(b, a);
}

}  // namespace

void ReorderBuffer::push(const Entry& e) {
  if (run_.empty() || !before(e, run_.back())) {
    run_.push_back(e);
    return;
  }
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), after);
}

void ReorderBuffer::pop() {
  if (heap_first()) {
    std::pop_heap(heap_.begin(), heap_.end(), after);
    heap_.pop_back();
  } else {
    run_.pop_front();
  }
}

std::vector<ReorderBuffer::Entry> ReorderBuffer::sorted() const {
  std::vector<Entry> stragglers = heap_;
  std::sort(stragglers.begin(), stragglers.end(), before);
  std::vector<Entry> out;
  out.reserve(size());
  std::merge(run_.begin(), run_.end(), stragglers.begin(), stragglers.end(),
             std::back_inserter(out), before);
  return out;
}

void ReorderBuffer::assign(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(), before);
  run_.assign(entries.begin(), entries.end());
  heap_.clear();
}

}  // namespace sybil::core
