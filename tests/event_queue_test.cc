#include "p2psim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "p2psim/simulator.h"

namespace p2pdt {
namespace {

// Reference model: the stable heap the first engine used — a priority
// queue over (time, seq) popping ascending. The event queue's contract is
// to reproduce its pop order bit-for-bit.
using RefEvent = std::pair<double, uint64_t>;
using RefQueue =
    std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>>;

void SkipCancelled(RefQueue& ref,
                   const std::unordered_set<uint64_t>& cancelled) {
  while (!ref.empty() && cancelled.count(ref.top().second) > 0) ref.pop();
}

/// Pops one event from `q` and asserts it is the reference's minimum.
void PopAndCompare(EventQueue& q, RefQueue& ref) {
  ASSERT_FALSE(ref.empty());
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.MinTime(), ref.top().first);
  SimEvent ev = q.PopMin();
  EXPECT_EQ(ev.time, ref.top().first);
  EXPECT_EQ(ev.seq, ref.top().second);
  ref.pop();
}

/// Drives an EventQueue and the reference heap through the same random
/// push/cancel/pop schedule and asserts identical observable behavior at
/// every step. `time_scale` stretches the sampled inter-event gaps so one
/// harness covers dense (every event within a microsecond) through sparse
/// (events up to a million seconds apart) timelines. With `with_cancel`
/// every event is pushed cancelable and a share of them is cancelled.
void FuzzAgainstReference(uint64_t seed, int ops, double time_scale,
                          bool with_cancel) {
  SCOPED_TRACE(::testing::Message() << "seed=" << seed << " scale="
                                    << time_scale << " cancel=" << with_cancel);
  EventQueue q;
  RefQueue ref;
  std::vector<uint64_t> pending;  // ids not yet popped or cancelled
  std::unordered_set<uint64_t> cancelled;
  Rng rng(seed);
  double now = 0.0;
  std::vector<double> tie_pool;  // recent times re-used to force ties

  for (int op = 0; op < ops; ++op) {
    const uint64_t roll = rng.NextU64(100);
    if (roll < 55 || q.empty()) {
      double t;
      if (!tie_pool.empty() && rng.NextU64(4) == 0) {
        t = tie_pool[rng.NextU64(tie_pool.size())];
      } else {
        t = now +
            static_cast<double>(rng.NextU64(1000000)) * 1e-6 * time_scale;
        tie_pool.push_back(t);
        if (tie_pool.size() > 32) tie_pool.erase(tie_pool.begin());
      }
      if (t < now) t = now;
      const uint64_t id =
          with_cancel ? q.PushCancelable(t, [] {}) : q.Push(t, [] {});
      ref.push({t, id});
      pending.push_back(id);
    } else if (with_cancel && roll < 68 && !pending.empty()) {
      const std::size_t k = rng.NextU64(pending.size());
      const uint64_t id = pending[k];
      pending.erase(pending.begin() + k);
      EXPECT_TRUE(q.Cancel(id));
      EXPECT_FALSE(q.Cancel(id));  // cancel-once is checked, not assumed
      cancelled.insert(id);
    } else {
      SkipCancelled(ref, cancelled);
      ASSERT_FALSE(ref.empty());  // q was non-empty, sizes must agree
      const RefEvent expect = ref.top();
      PopAndCompare(q, ref);
      now = std::max(now, expect.first);
      pending.erase(std::find(pending.begin(), pending.end(), expect.second));
      if (with_cancel) {
        EXPECT_FALSE(q.Cancel(expect.second));  // already ran
      }
    }
    EXPECT_EQ(q.size(), pending.size());
  }

  // Drain: the full remaining pop sequence must match the reference.
  while (true) {
    SkipCancelled(ref, cancelled);
    if (ref.empty()) break;
    PopAndCompare(q, ref);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

/// Pushes `times` in order, then drains, comparing every pop with the
/// reference heap.
void PushAllThenDrain(const std::vector<double>& times, EventQueue& q) {
  RefQueue ref;
  for (double t : times) ref.push({t, q.Push(t, [] {})});
  EXPECT_EQ(q.size(), times.size());
  while (!ref.empty()) PopAndCompare(q, ref);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FuzzEquivalenceDefaultTimeline) {
  for (uint64_t seed : {1u, 42u, 20100913u}) {
    FuzzAgainstReference(seed, 4000, 1.0, false);
  }
}

TEST(EventQueueTest, FuzzEquivalenceWithCancellations) {
  for (uint64_t seed : {7u, 99u, 123457u}) {
    FuzzAgainstReference(seed, 4000, 1.0, true);
  }
}

TEST(EventQueueTest, FuzzEquivalenceSparseAndDenseTimelines) {
  FuzzAgainstReference(11, 2500, 1e6, true);
  FuzzAgainstReference(13, 2500, 1e-6, true);
}

TEST(EventQueueTest, FuzzEquivalenceAtFormerBucketRegimes) {
  // The seeds of the calendar queue's bucket/width sweep (1, 2 and 1,024
  // buckets; widths 1e-7, 0.05 and 1e4 s), with the timeline scaled by
  // 0.05 s / width: events many calendar years apart, the default
  // regime, and the whole run inside one bucket day.
  for (uint64_t seed : {6u, 7u, 1029u}) {
    for (double scale : {5e5, 1.0, 5e-6}) {
      FuzzAgainstReference(seed, 1500, scale, true);
    }
  }
}

TEST(EventQueueTest, FormerBucketBoundaryTimestamps) {
  // Times exactly on the old 0.25 s bucket boundaries, pushed in
  // descending order across several of the old calendar years.
  std::vector<double> times;
  for (int k = 40; k >= 0; --k) times.push_back(0.25 * k);
  EventQueue q;
  PushAllThenDrain(times, q);
}

TEST(EventQueueTest, GrowThenShrinkPopulationKeepsOrder) {
  // The population the calendar queue needed to resize for: 20,000 random
  // events up to 100 s out, drained to empty, then a second, smaller wave
  // on the same queue reusing the freed slots.
  Rng rng(321);
  std::vector<double> wave;
  for (int i = 0; i < 20000; ++i) {
    wave.push_back(static_cast<double>(rng.NextU64(1000000)) * 1e-4);
  }
  EventQueue q;
  PushAllThenDrain(wave, q);
  const std::size_t grown = q.num_resizes();
  EXPECT_GT(grown, 0u);
  wave.resize(500);
  PushAllThenDrain(wave, q);
  EXPECT_EQ(q.num_resizes(), grown);  // freed slots were reused
}

TEST(EventQueueTest, BroadcastShapedLoadMatchesReference) {
  // The message pattern of a finger-table broadcast: each popped event
  // pushes a burst of follow-ups, many at identical timestamps (equal
  // latency classes, zero-delay self-sends) and most earlier than events
  // already queued. Interleaved pops keep the reference check exact.
  EventQueue q;
  RefQueue ref;
  Rng rng(2010);
  const double latencies[] = {0.0, 0.010, 0.025, 0.025, 0.060, 0.120};
  ref.push({0.0, q.Push(0.0, [] {})});
  uint64_t pushed = 1;
  uint64_t earlier_than_tail = 0;
  double tail = 0.0;
  while (!ref.empty()) {
    const double now = ref.top().first;
    PopAndCompare(q, ref);
    if (pushed >= 120000) continue;
    const uint64_t burst = rng.NextU64(7);
    for (uint64_t i = 0; i < burst; ++i) {
      const double t = now + latencies[rng.NextU64(6)];
      if (t < tail) ++earlier_than_tail;
      tail = std::max(tail, t);
      ref.push({t, q.Push(t, [] {})});
      ++pushed;
    }
  }
  EXPECT_GE(pushed, 100000u);
  EXPECT_GT(earlier_than_tail, pushed / 4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_pushed(), pushed);
}

TEST(EventQueueTest, EqualTimestampsPopFifo) {
  EventQueue q;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(q.Push(5.0, [] {}));
  // Interleave: pop half, push more at the same timestamp, drain.
  for (int i = 0; i < 500; ++i) {
    SimEvent ev = q.PopMin();
    EXPECT_EQ(ev.time, 5.0);
    EXPECT_EQ(ev.seq, ids[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < 100; ++i) ids.push_back(q.Push(5.0, [] {}));
  for (std::size_t i = 500; i < ids.size(); ++i) {
    SimEvent ev = q.PopMin();
    EXPECT_EQ(ev.seq, ids[i]);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ZeroDelayPushAtCurrentPopTime) {
  // The self-send pattern: an event at time t pushes follow-ups at exactly
  // t. They must run after every already-pending event at t (FIFO) but
  // before anything later.
  EventQueue q;
  q.Push(1.0, [] {});
  q.Push(1.0, [] {});
  q.Push(2.0, [] {});
  SimEvent first = q.PopMin();
  EXPECT_EQ(first.time, 1.0);
  const uint64_t follow = q.Push(1.0, [] {});  // zero-delay self-send
  SimEvent second = q.PopMin();
  EXPECT_EQ(second.time, 1.0);
  EXPECT_NE(second.seq, follow);  // the older t=1 event goes first
  SimEvent third = q.PopMin();
  EXPECT_EQ(third.time, 1.0);
  EXPECT_EQ(third.seq, follow);
  SimEvent fourth = q.PopMin();
  EXPECT_EQ(fourth.time, 2.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelHeadAndAll) {
  EventQueue q;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(q.PushCancelable(1.0 + i, [] {}));
  EXPECT_TRUE(q.Cancel(ids[0]));  // cancel the head
  EXPECT_EQ(q.MinTime(), 2.0);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_TRUE(q.Cancel(ids[i]));
  EXPECT_TRUE(q.empty());
  // The queue stays usable after a full cancel.
  q.Push(7.0, [] {});
  EXPECT_EQ(q.MinTime(), 7.0);
  EXPECT_EQ(q.PopMin().time, 7.0);
}

TEST(EventQueueTest, OnlyCancelableIdsCancel) {
  EventQueue q;
  const uint64_t plain = q.Push(1.0, [] {});
  const uint64_t timer = q.PushCancelable(2.0, [] {});
  EXPECT_FALSE(q.Cancel(plain));
  EXPECT_FALSE(q.Cancel(timer + 1));  // never issued
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.Cancel(timer));
  EXPECT_EQ(q.PopMin().seq, plain);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelDestroysMoveOnlyPayloadAtOnce) {
  // A cancelled timer must not pin what it captured until its timestamp
  // comes round: the payload goes at Cancel, and its slot is reused.
  struct Probe {
    explicit Probe(int* counter) : destroyed(counter) {}
    ~Probe() { ++*destroyed; }
    int* destroyed;
  };
  int destroyed = 0;
  EventQueue q;
  q.Push(5.0, [] {});
  const uint64_t id = q.PushCancelable(
      9.0, [p = std::make_unique<Probe>(&destroyed)] {});
  EXPECT_EQ(destroyed, 0);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_EQ(destroyed, 1);
  // A new event takes the freed slot; the tombstone must not shadow it.
  bool ran = false;
  q.Push(20.0, [&ran] { ran = true; });
  SimEvent a = q.PopMin();
  EXPECT_EQ(a.time, 5.0);
  SimEvent b = q.PopMin();
  EXPECT_EQ(b.time, 20.0);
  b.fn();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(destroyed, 1);
}

TEST(EventQueueTest, MoveOnlyPayloadsInvokeExactlyOnce) {
  // Regression for the first priority_queue engine, whose const_cast
  // copy-out of top() silently required copyable callbacks. Events are
  // UniqueFunction: move-only captures flow through untouched.
  EventQueue q;
  auto payload = std::make_unique<int>(41);
  int out = 0;
  q.Push(1.0, [p = std::move(payload), &out] { out = *p + 1; });
  SimEvent ev = q.PopMin();
  ev.fn();
  EXPECT_EQ(out, 42);
}

TEST(EventQueueTest, SimulatorCarriesMoveOnlyEventPayloads) {
  // End-to-end through Simulator::Schedule / ScheduleCancelable: the
  // scheduling surface the protocols actually use must accept move-only
  // lambdas, and Cancel frees the cancelled payload immediately.
  Simulator sim;
  std::vector<int> got;
  sim.Schedule(1.0, [p = std::make_unique<int>(1), &got] {
    got.push_back(*p);
  });
  auto cancelled_payload = std::make_shared<int>(99);
  std::weak_ptr<int> watch = cancelled_payload;
  Simulator::EventId dead = sim.ScheduleCancelable(
      2.0, [p = std::make_unique<std::shared_ptr<int>>(
                std::move(cancelled_payload)),
            &got] { got.push_back(**p); });
  sim.ScheduleCancelable(3.0, [p = std::make_unique<int>(3), &got] {
    got.push_back(*p);
  });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.Cancel(dead));
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(sim.Cancel(dead));
  sim.RunAll();
  EXPECT_EQ(got, (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(EventQueueTest, TotalPushedCountsAllIds) {
  EventQueue q;
  EXPECT_EQ(q.total_pushed(), 0u);
  uint64_t a = q.Push(1.0, [] {});
  uint64_t b = q.PushCancelable(1.0, [] {});
  EXPECT_EQ(a + 1, b);
  EXPECT_EQ(q.total_pushed(), 2u);
  q.PopMin();
  q.Cancel(b);
  EXPECT_EQ(q.total_pushed(), 2u);  // ids are never reused
}

}  // namespace
}  // namespace p2pdt
