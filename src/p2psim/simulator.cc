#include "p2psim/simulator.h"

#include <algorithm>

namespace p2pdt {

void Simulator::Schedule(SimTime delay, Callback&& fn) {
  ScheduleAt(now_ + std::max(delay, 0.0), std::move(fn));
}

void Simulator::ScheduleAt(SimTime when, Callback&& fn) {
  queue_.Push(std::max(when, now_), std::move(fn));
}

Simulator::EventId Simulator::ScheduleCancelable(SimTime delay,
                                                 Callback&& fn) {
  return queue_.PushCancelable(now_ + std::max(delay, 0.0), std::move(fn));
}

bool Simulator::Cancel(EventId id) { return queue_.Cancel(id); }

bool Simulator::Step() {
  if (queue_.empty()) return false;
  // The queue hands the event out by value: the callback moves out of its
  // slot (no copy), so move-only payloads work, and it may push events
  // freely while it runs.
  SimEvent ev = queue_.PopMin();
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

std::size_t Simulator::RunUntil(SimTime until) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.MinTime() <= until) {
    Step();
    ++count;
  }
  if (now_ < until) now_ = until;
  return count;
}

std::size_t Simulator::RunAll() {
  std::size_t count = 0;
  while (Step()) ++count;
  return count;
}

}  // namespace p2pdt
