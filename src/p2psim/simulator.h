#ifndef P2PDT_P2PSIM_SIMULATOR_H_
#define P2PDT_P2PSIM_SIMULATOR_H_

#include <cstdint>

#include "common/function.h"
#include "p2psim/event_queue.h"

namespace p2pdt {

/// Simulated time in seconds since simulation start.
using SimTime = double;

/// Discrete-event simulation core: a time-ordered queue of callbacks.
///
/// This is the heart of P2PDMT (the paper's simulation toolkit): every
/// network delivery, churn transition, stabilization round and scheduled
/// evaluation is an event. Events at equal timestamps run in scheduling
/// order (a monotone sequence number breaks ties), which keeps runs
/// fully deterministic.
///
/// The scheduler is an EventQueue: a 4-ary heap of (time, seq, slot) keys
/// over a slot array of callbacks, so a message costs O(log n) key moves
/// and its callback is moved once in and once out. The pop order is
/// bit-identical to the stable heap the first versions used — the
/// equivalence property tests in event_queue_test pin that down.
///
/// Callbacks are move-only (UniqueFunction), so events may carry move-only
/// payloads; `std::function` and any other copyable callable convert
/// implicitly.
class Simulator {
 public:
  using Callback = UniqueFunction;
  /// Handle for Cancel(); returned by ScheduleCancelable.
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = static_cast<EventId>(-1);

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0; negative
  /// delays are clamped to 0).
  void Schedule(SimTime delay, Callback&& fn);

  /// Schedules `fn` at an absolute simulated time (clamped to >= Now()).
  void ScheduleAt(SimTime when, Callback&& fn);

  /// Like Schedule, but returns a handle the caller may later Cancel —
  /// e.g. a retransmission timer disarmed by an early ACK. A cancelled
  /// event never runs; its callback is destroyed at Cancel and only a
  /// 24-byte tombstone key stays in the queue.
  EventId ScheduleCancelable(SimTime delay, Callback&& fn);

  /// Cancels a pending cancelable event. Returns true when the event was
  /// still pending (it will not run); false when it already ran, was
  /// already cancelled, or the id was never issued by ScheduleCancelable.
  bool Cancel(EventId id);

  /// Runs events until the queue empties or simulated time would exceed
  /// `until`. Events at exactly `until` are executed. Returns the number of
  /// events executed.
  std::size_t RunUntil(SimTime until);

  /// Runs until the queue is fully drained. Use with care under recurring
  /// (self-rescheduling) events — prefer RunUntil.
  std::size_t RunAll();

  /// Executes at most one pending event; returns false when idle.
  bool Step();

  std::size_t pending_events() const { return queue_.size(); }
  std::size_t executed_events() const { return executed_; }

  /// Scheduler introspection (benchmarks and tests).
  const EventQueue& queue() const { return queue_; }

 private:
  SimTime now_ = 0.0;
  std::size_t executed_ = 0;
  EventQueue queue_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_SIMULATOR_H_
