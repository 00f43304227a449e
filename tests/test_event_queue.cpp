#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace blam {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(Time::from_ms(30), [&] { fired.push_back(3); });
  q.schedule(Time::from_ms(10), [&] { fired.push_back(1); });
  q.schedule(Time::from_ms(20), [&] { fired.push_back(2); });
  while (!q.empty()) {
    auto [time, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::from_ms(5), [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventHandle h = q.schedule(Time::from_ms(1), [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelIsHarmless) {
  EventQueue q;
  const EventHandle h = q.schedule(Time::from_ms(1), [] {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
  EXPECT_FALSE(q.cancel(EventHandle{}));  // null handle
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventHandle h = q.schedule(Time::from_ms(1), [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsRejected) {
  EventQueue q;
  const EventHandle h1 = q.schedule(Time::from_ms(1), [] {});
  (void)q.pop();  // frees the slot
  const EventHandle h2 = q.schedule(Time::from_ms(2), [] {});
  // h1 very likely reuses the slot of h2; cancelling h1 must NOT kill h2.
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(h2));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle early = q.schedule(Time::from_ms(1), [] {});
  q.schedule(Time::from_ms(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), Time::from_ms(5));
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  const EventHandle a = q.schedule(Time::from_ms(1), [] {});
  q.schedule(Time::from_ms(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, SlotsAreRecycledUnderChurn) {
  // Schedule/cancel far more events than remain pending; the slot store
  // must stay small (indirectly: no crash, correct ordering).
  EventQueue q;
  Rng rng{99};
  std::vector<EventHandle> live;
  for (int round = 0; round < 10000; ++round) {
    live.push_back(q.schedule(Time::from_us(rng.uniform_int(0, 1000000)), [] {}));
    if (live.size() > 16) {
      q.cancel(live.front());
      live.erase(live.begin());
    }
    if (round % 7 == 0 && !q.empty()) (void)q.pop();
  }
  Time prev = Time::zero();
  std::size_t drained = 0;
  while (!q.empty()) {
    auto [time, cb] = q.pop();
    EXPECT_GE(time, prev);
    prev = time;
    ++drained;
  }
  EXPECT_LE(drained, 17u);
}

TEST(EventQueue, CancelRescheduleChurnPreservesMonotonicityAndLiveness) {
  // The retransmission path cancels and re-schedules the same logical timer
  // constantly; under that churn pops must stay time-ordered and exactly the
  // live (never-cancelled) events must fire.
  EventQueue q;
  Rng rng{777};
  std::vector<EventHandle> pending;
  std::size_t scheduled = 0;
  std::size_t cancelled = 0;
  std::size_t fired = 0;
  Time now = Time::zero();

  for (int round = 0; round < 20'000; ++round) {
    const int op = rng.uniform_int(0, 9);
    if (op < 5 || pending.empty()) {
      // Schedule at or after `now` — the engine's contract.
      const Time t = now + Time::from_us(rng.uniform_int(0, 60'000'000));
      pending.push_back(q.schedule(t, [] {}));
      ++scheduled;
    } else if (op < 8) {
      // Cancel a random pending handle (it may have fired already).
      const std::size_t k =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(pending.size()) - 1));
      if (q.cancel(pending[k])) ++cancelled;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (!q.empty()) {
      // Pop: time must never regress.
      auto [t, cb] = q.pop();
      ASSERT_GE(t.us(), now.us()) << "round " << round;
      now = t;
      ++fired;
    }
  }
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    ASSERT_GE(t.us(), now.us());
    now = t;
    ++fired;
  }
  EXPECT_EQ(fired + cancelled, scheduled);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RandomizedOrderingProperty) {
  EventQueue q;
  Rng rng{1234};
  for (int i = 0; i < 5000; ++i) {
    q.schedule(Time::from_us(rng.uniform_int(0, 10'000'000)), [] {});
  }
  Time prev = Time::zero();
  while (!q.empty()) {
    auto [time, cb] = q.pop();
    EXPECT_GE(time.us(), prev.us());
    prev = time;
  }
}

/// Test-side record of one scheduled event, kept in step with the queue.
struct ShadowEvent {
  EventHandle handle;
  Time time;
  std::uint64_t seq;
  bool pending;
};

/// lookup() must answer exactly what a scan of the schedule would.
void expect_lookups_match(const EventQueue& q, const std::vector<ShadowEvent>& events) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ShadowEvent& e = events[i];
    const auto got = q.lookup(e.handle);
    ASSERT_EQ(got.has_value(), e.pending) << "event " << i;
    if (got.has_value()) {
      EXPECT_EQ(got->time.us(), e.time.us()) << "event " << i;
      EXPECT_EQ(got->seq, e.seq) << "event " << i;
    }
  }
}

TEST(EventQueue, LookupMatchesBruteForceUnderChurn) {
  EventQueue q;
  std::vector<ShadowEvent> events;
  std::vector<std::size_t> fired;
  Rng rng{77};
  Time now = Time::zero();
  const auto schedule = [&](Time t) {
    const std::size_t index = events.size();
    const std::uint64_t seq = q.next_seq();
    const EventHandle h = q.schedule(t, [&fired, index] { fired.push_back(index); });
    events.push_back({h, t, seq, true});
  };
  const auto churn = [&](int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::int64_t op = rng.uniform_int(0, 9);
      if (op < 5 || events.empty()) {
        schedule(Time::from_us(now.us() + rng.uniform_int(0, 1000)));
      } else if (op < 7) {
        ShadowEvent& e = events[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(events.size()) - 1))];
        EXPECT_EQ(q.cancel(e.handle), e.pending);
        e.pending = false;
      } else if (!q.empty()) {
        auto popped = q.pop();
        now = popped.time;
        popped.callback();
        events[fired.back()].pending = false;
      }
      // Lookups between mutations rebuild the index many times over.
      if (step % 37 == 0) expect_lookups_match(q, events);
    }
    expect_lookups_match(q, events);
  };
  churn(3000);

  // Restore path: clear() invalidates every handle, then events come back
  // under explicit seqs in arbitrary order, reusing slot numbers.
  q.clear();
  events.clear();
  fired.clear();
  for (const std::uint64_t seq : {std::uint64_t{41}, std::uint64_t{7}, std::uint64_t{19}}) {
    const Time t = Time::from_us(now.us() + static_cast<std::int64_t>(seq));
    const std::size_t index = events.size();
    const EventHandle h =
        q.schedule_with_seq(t, seq, [&fired, index] { fired.push_back(index); });
    events.push_back({h, t, seq, true});
  }
  expect_lookups_match(q, events);
  q.set_next_seq(42);
  churn(1000);
}

}  // namespace
}  // namespace blam
