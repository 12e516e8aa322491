#include "src/sim/event_queue.h"

namespace dcs {

// The heap is 4-ary: half the depth of a binary heap, so pushes (which pay
// one compare per level on the way up) and pops (whose compares touch
// adjacent entries on one cache line per level) both get shorter paths.

void EventQueue::FlushStaging() {
  for (const HeapEntry& entry : staging_) {
    // Grow by a blank entry and let SiftUp place this one.
    heap_.emplace_back();
    SiftUp(heap_.size() - 1, entry);
  }
  staging_.clear();
}

void EventQueue::Clear() {
  for (const HeapEntry& entry : heap_) {
    ReleaseSlot(entry.slot);
  }
  for (const HeapEntry& entry : staging_) {
    ReleaseSlot(entry.slot);
  }
  heap_.clear();
  staging_.clear();
  // Restart the FIFO tie-break counter so a cleared queue orders simultaneous
  // events exactly like a fresh one (slot generations are deliberately left
  // advanced, so ids stay unique for the queue's lifetime).
  next_seq_ = 0;
}

}  // namespace dcs
