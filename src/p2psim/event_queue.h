#ifndef P2PDT_P2PSIM_EVENT_QUEUE_H_
#define P2PDT_P2PSIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/function.h"

namespace p2pdt {

/// One scheduled simulation event: absolute time, monotone sequence number
/// (the FIFO tie-break at equal timestamps that keeps runs reproducible)
/// and the callback. The callback is move-only, so events can carry
/// move-only payloads (`std::unique_ptr` captures and the like).
struct SimEvent {
  double time = 0.0;
  uint64_t seq = 0;
  UniqueFunction fn;
};

/// The event scheduler behind the 100k-peer simulator: a 4-ary min-heap of
/// compact (time, seq, slot) keys over a slot array of callbacks.
///
/// Only the 24-byte keys move while the heap is restored, so a push or pop
/// costs O(log n) key compares and copies however large the callbacks are.
/// Each callback is moved once into its slot at Push and once out at
/// PopMin. Freed slots are chained through a free list and reused, so at a
/// steady in-flight population the queue allocates nothing.
///
/// Ordering contract — the part the equivalence tests pin down: events pop
/// in exactly ascending (time, seq) order, i.e. the *identical* order a
/// stable binary heap over (time, seq) would produce. Equal timestamps pop
/// FIFO in scheduling order.
///
/// Cancellation: `PushCancelable` returns an id that `Cancel` accepts while
/// the event is pending. Cancel destroys the callback (and whatever it
/// captured) at once and frees its slot; the key stays in the heap as a
/// tombstone that PopMin/MinTime discard when it surfaces, recognised by
/// its slot no longer carrying the key's sequence number.
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute `time` (negative or non-finite times are
  /// clamped to 0); returns the event id (its sequence number).
  uint64_t Push(double time, UniqueFunction&& fn);

  /// Like Push, but the returned id may later be passed to Cancel.
  uint64_t PushCancelable(double time, UniqueFunction&& fn);

  /// Cancels a pending event pushed with PushCancelable and destroys its
  /// callback. Returns false when the event already popped, was already
  /// cancelled, or the id was not issued by PushCancelable.
  bool Cancel(uint64_t id);

  /// Live (pending, uncancelled) events.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  /// Timestamp of the next event to pop. Requires !empty().
  double MinTime();

  /// Removes and returns the (time, seq)-minimal live event. Requires
  /// !empty().
  SimEvent PopMin();

  /// Total events ever pushed (== next id).
  uint64_t total_pushed() const { return next_seq_; }

  /// Times the key heap or the slot array had to grow its storage.
  std::size_t num_resizes() const { return resizes_; }

 private:
  struct Key {
    double time;
    uint64_t seq;
    uint32_t slot;
  };

  /// A callback and the sequence number of the event that owns it. A free
  /// slot stores kFreeTag | (next free slot) instead, which no event's
  /// sequence number can equal.
  struct Slot {
    UniqueFunction fn;
    uint64_t seq = 0;
  };

  /// Four children per node halve the depth of a binary heap. On sim-pace
  /// (4-core x86-64 host) this took ~5% off train time against
  /// std::push_heap/pop_heap over the same keys, winning 9 of 10 pairs.
  static constexpr std::size_t kArity = 4;
  static constexpr uint64_t kFreeTag = uint64_t{1} << 63;
  static constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

  static bool Less(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  /// Places the event in a slot and its key in the heap.
  Key Insert(double time, UniqueFunction&& fn);
  /// Takes a free slot (or grows the array) and places `fn` in it.
  uint32_t Acquire(uint64_t seq, UniqueFunction&& fn);
  /// Returns a slot to the free list; its callback must already be gone.
  void Release(uint32_t slot);
  bool IsLive(const Key& key) const {
    return slots_[key.slot].seq == key.seq;
  }
  /// Removes the heap's top key.
  void PopTop();
  /// Pops tombstones off the top until a live key is there. Requires
  /// live_ > 0.
  void SkipCancelled();

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
  /// Pending events pushed with PushCancelable: id -> slot.
  std::unordered_map<uint64_t, uint32_t> cancelable_;
  uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t resizes_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_EVENT_QUEUE_H_
