// Cancellable priority queue of timed events for the discrete-event engine.
//
// Layout: callbacks live in a slot pool (free-listed vector, no hashing, no
// per-event allocation thanks to InlineFunction's small-buffer storage); the
// heap itself holds only 24-byte {time, seq, slot} entries, so sift moves
// are cheap.  The heap is indexed: each heaped slot records its heap
// position, and every sift move keeps it current, so cancelling a heaped
// event removes its entry on the spot.  The heap holds exactly the live
// events ordered so far — nothing to skip at a pop, nothing to compact.
//
// Pushes land in an unsorted staging buffer first and are only sifted into
// the heap when a Pop or NextTime needs ordering.  The kernel frequently
// schedules a completion and cancels it within the same tick callback (task
// blocked, task preempted), and a staged event cancels by O(1) swap-erase —
// it never pays heap work, which keeps cancel storms cheap.  The slot's
// spare word records where its event lives (free list link, staging index,
// or heap position), so both cancel paths and SeqOf are constant-time.
// Pop order is the strict (time, seq) order either way, so neither staging
// nor the index is visible to simulation results.
//
// EventId encoding: bits [63:32] hold the slot's generation, bits [31:0] the
// slot index.  Generations start at 1 and advance every time a slot is freed
// (cancel, pop, or Clear), so an id is live iff its generation matches its
// slot's current one — stale ids from any earlier lifetime of the slot fail
// the match, and kInvalidEventId (0) can never collide because no issued id
// has generation 0.  A single slot would need 2^32 free transitions for its
// generation to wrap and an id to repeat; no simulated workload approaches
// that.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/arena.h"
#include "src/sim/inline_function.h"
#include "src/sim/time.h"

namespace dcs {

// Identifies a scheduled event; returned by Push() and accepted by Cancel().
// Ids are unique for the lifetime of the queue and never reused.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

// Event callback type.  48 inline bytes covers every capture list in the
// tree ([this] plus a few words) without touching the heap.
using EventFn = InlineFunction<void(), 48>;

class EventQueue {
 public:
  // Heap-backed by default; binding an Arena routes the slot pool, heap and
  // staging storage through it so a reused queue allocates nothing in
  // steady state.
  EventQueue() = default;
  explicit EventQueue(Arena* arena)
      : slots_(ArenaAllocator<Slot>(arena)),
        heap_(ArenaAllocator<HeapEntry>(arena)),
        staging_(ArenaAllocator<HeapEntry>(arena)) {}

  // Non-copyable: callbacks frequently capture raw pointers to simulator
  // state, so an accidental copy would double-fire events.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Push / Cancel / Pop are defined inline below: they run once per
  // simulated event, and keeping them visible to callers lets the compiler
  // build each callback directly in its slot instead of bouncing it through
  // a by-value parameter.

  // Schedules `fn` at absolute time `at`.  Events that tie on time fire in
  // insertion order.  Accepts any callable (built directly in its slot) or
  // a ready-made EventFn (moved in).
  template <typename F>
  EventId Push(SimTime at, F&& fn);

  // Cancels a previously scheduled event.  Returns true if the event was
  // still pending (i.e. had not fired and had not already been cancelled).
  bool Cancel(EventId id);

  // True if no live events remain.
  bool Empty() const { return heap_.empty() && staging_.empty(); }

  // Number of live (non-cancelled, not-yet-fired) events.
  std::size_t Size() const { return heap_.size() + staging_.size(); }

  // Time of the earliest live event.  Requires !Empty().
  SimTime NextTime();

  // Removes and returns the earliest live event.  Requires !Empty().
  struct Entry {
    SimTime at;
    EventId id;
    EventFn fn;
  };
  Entry Pop();

  // Removes everything (the queue can be reused afterwards).
  void Clear();

  // Consumes one insertion sequence number without scheduling anything.
  // Simulator::FireInline runs an event in place of a push and a pop; taking
  // its number keeps every later event's sequence (and so every tie-break
  // and snapshot image) the same as the queued path's.
  void SkipSeq() { ++next_seq_; }

  // Entries in the ordered heap (diagnostics); equals Size() once a Pop or
  // NextTime has flushed the staging buffer.
  std::size_t heap_entries() const { return heap_.size(); }

  // Original insertion sequence number of a live event.  The snapshot layer
  // records it at save time so restored events can be re-armed in their
  // original FIFO tie-break order (src/sim/snapshot.h).  Returns 0 for ids
  // that are no longer live.
  std::uint64_t SeqOf(EventId id) const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Tags a slot link as a staging index rather than a heap position.
  static constexpr std::uint32_t kStaged = 0x80000000u;

  struct Slot {
    std::uint32_t generation = 1;
    // While free: index of the next free slot (kNoSlot ends the list).
    // While occupied: kStaged | the event's staging_ index, or its heap_
    // position once flushed.
    std::uint32_t link = kNoSlot;
    EventFn fn;
  };
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  }

  // The live slot `id` names, or kNoSlot if the id is stale.
  std::uint32_t LiveSlot(EventId id) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(id);
    const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size() || slots_[slot].generation != generation) {
      return kNoSlot;
    }
    return slot;
  }

  // Frees `slot` (destroys its callback, invalidates its ids) and returns it
  // to the free list.
  void ReleaseSlot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.fn = nullptr;
    ++s.generation;
    s.link = free_head_;
    free_head_ = slot;
  }

  // Sifts every staged entry into the heap.  Out of line: the common Pop
  // in a busy loop finds staging empty or short.
  void FlushStaging();
  void Flush() {
    if (!staging_.empty()) {
      FlushStaging();
    }
  }

  // Stores `entry` at heap position `i` and records that in its slot.
  void Place(std::size_t i, const HeapEntry& entry) {
    heap_[i] = entry;
    slots_[entry.slot].link = static_cast<std::uint32_t>(i);
  }

  // Index of the smallest child of heap_[i], or n if i is a leaf.
  std::size_t MinChild(std::size_t i, std::size_t n) const {
    const std::size_t first = 4 * i + 1;
    if (first >= n) {
      return n;
    }
    if (first + 4 <= n) {
      // Interior node: all four children exist, no bounds checks needed.
      const std::size_t a =
          Earlier(heap_[first + 1], heap_[first]) ? first + 1 : first;
      const std::size_t b =
          Earlier(heap_[first + 3], heap_[first + 2]) ? first + 3 : first + 2;
      return Earlier(heap_[b], heap_[a]) ? b : a;
    }
    std::size_t best = first;
    for (std::size_t child = first + 1; child < n; ++child) {
      if (Earlier(heap_[child], heap_[best])) {
        best = child;
      }
    }
    return best;
  }

  // Places `entry` at position i or above, wherever the heap order puts it.
  void SiftUp(std::size_t i, const HeapEntry& entry) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!Earlier(entry, heap_[parent])) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, entry);
  }

  // Removes the entry at heap position `hole` (the root for a pop, any
  // position for a cancel) via a hole sift: walk the hole down to a leaf
  // pulling the smaller child up (3 compares per level, no compare against
  // a sinking entry), then drop the detached last element into the hole and
  // float it up — past the hole's start, for a mid-heap cancel, if needed.
  void RemoveAt(std::size_t hole) {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (hole == n) {
      return;
    }
    for (;;) {
      const std::size_t best = MinChild(hole, n);
      if (best >= n) {
        break;
      }
      Place(hole, heap_[best]);
      hole = best;
    }
    SiftUp(hole, last);
  }

  ArenaVector<Slot> slots_;
  ArenaVector<HeapEntry> heap_;
  // Pushes since the last Pop/NextTime, not yet heap-ordered.
  ArenaVector<HeapEntry> staging_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
};

template <typename F>
inline EventId EventQueue::Push(SimTime at, F&& fn) {
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].link;
  } else {
    // Heap positions and staging indices must stay below the kStaged tag.
    assert(slots_.size() < kStaged && "slot index space exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>) {
    s.fn = std::forward<F>(fn);  // rvalue required: EventFn is move-only
  } else {
    s.fn.Emplace(std::forward<F>(fn));
  }
  s.link = kStaged | static_cast<std::uint32_t>(staging_.size());
  // Filled in place, field by field, with no temporary to copy from.
  HeapEntry& entry = staging_.emplace_back();
  entry.at = at;
  entry.seq = next_seq_++;
  entry.slot = slot;
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

inline bool EventQueue::Cancel(EventId id) {
  const std::uint32_t slot = LiveSlot(id);
  if (slot == kNoSlot) {
    return false;
  }
  const std::uint32_t link = slots_[slot].link;
  ReleaseSlot(slot);
  if ((link & kStaged) == 0) {
    RemoveAt(link);
    return true;
  }
  // Still in the staging buffer: remove it outright by swapping the tail
  // into its place — no heap entry ever existed for it.
  const std::size_t pos = link & ~kStaged;
  if (pos + 1 != staging_.size()) {
    staging_[pos] = staging_.back();
    slots_[staging_[pos].slot].link = link;
  }
  staging_.pop_back();
  return true;
}

inline SimTime EventQueue::NextTime() {
  Flush();
  assert(!heap_.empty() && "NextTime() on empty queue");
  return heap_[0].at;
}

inline EventQueue::Entry EventQueue::Pop() {
  Flush();
  assert(!heap_.empty() && "Pop() on empty queue");
  const HeapEntry top = heap_[0];
  RemoveAt(0);
  Slot& s = slots_[top.slot];
  Entry entry{top.at, (static_cast<EventId>(s.generation) << 32) | top.slot,
              std::move(s.fn)};
  ReleaseSlot(top.slot);
  return entry;
}

inline std::uint64_t EventQueue::SeqOf(EventId id) const {
  const std::uint32_t slot = LiveSlot(id);
  if (slot == kNoSlot) {
    return 0;
  }
  const std::uint32_t link = slots_[slot].link;
  return (link & kStaged) != 0 ? staging_[link & ~kStaged].seq : heap_[link].seq;
}

}  // namespace dcs

#endif  // SRC_SIM_EVENT_QUEUE_H_
