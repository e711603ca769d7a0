#include "p2psim/event_queue.h"

#include <algorithm>
#include <cmath>

namespace p2pdt {

uint64_t EventQueue::Push(double time, UniqueFunction&& fn) {
  return Insert(time, std::move(fn)).seq;
}

uint64_t EventQueue::PushCancelable(double time, UniqueFunction&& fn) {
  const Key key = Insert(time, std::move(fn));
  cancelable_.emplace(key.seq, key.slot);
  return key.seq;
}

EventQueue::Key EventQueue::Insert(double time, UniqueFunction&& fn) {
  if (time < 0.0 || !std::isfinite(time)) time = 0.0;
  const uint64_t seq = next_seq_++;
  const Key key{time, seq, Acquire(seq, std::move(fn))};
  if (heap_.size() == heap_.capacity()) ++resizes_;
  heap_.push_back(key);
  // Sift up: move parents down into the hole until the key fits.
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!Less(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
  ++live_;
  return key;
}

bool EventQueue::Cancel(uint64_t id) {
  auto it = cancelable_.find(id);
  if (it == cancelable_.end()) return false;
  const uint32_t slot = it->second;
  cancelable_.erase(it);
  // The payload is destroyed here, at Cancel — but only after the queue is
  // consistent again, since its destructor may run arbitrary code.
  UniqueFunction dead = std::move(slots_[slot].fn);
  Release(slot);
  --live_;
  if (live_ == 0) heap_.clear();  // only tombstones were left
  return true;
}

double EventQueue::MinTime() {
  SkipCancelled();
  return heap_.front().time;
}

SimEvent EventQueue::PopMin() {
  SkipCancelled();
  const Key top = heap_.front();
  PopTop();
  SimEvent out{top.time, top.seq, std::move(slots_[top.slot].fn)};
  Release(top.slot);
  --live_;
  if (!cancelable_.empty()) cancelable_.erase(top.seq);
  if (live_ == 0) heap_.clear();
  return out;
}

uint32_t EventQueue::Acquire(uint64_t seq, UniqueFunction&& fn) {
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = static_cast<uint32_t>(slots_[slot].seq);
  } else {
    if (slots_.size() == slots_.capacity()) ++resizes_;
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  return slot;
}

void EventQueue::Release(uint32_t slot) {
  slots_[slot].seq = kFreeTag | free_head_;
  free_head_ = slot;
}

void EventQueue::PopTop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return;
  // Sift the former last key down from the root: move the smallest child
  // up into the hole until the key fits.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (Less(heap_[c], heap_[best])) best = c;
    }
    if (!Less(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

void EventQueue::SkipCancelled() {
  while (!IsLive(heap_.front())) PopTop();
}

}  // namespace p2pdt
