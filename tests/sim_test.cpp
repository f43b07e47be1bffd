// Unit tests for src/sim: event loop, CPU scheduler, link, switch.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/event_loop.hpp"
#include "sim/link.hpp"
#include "sim/switch.hpp"
#include "util/lifetime.hpp"

namespace ipop::sim {
namespace {

using util::microseconds;
using util::milliseconds;
using util::seconds;

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  loop.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), milliseconds(30));
}

TEST(EventLoopTest, FifoAtEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.schedule_at(milliseconds(1), [&] { ran = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, CancelAfterRunIsHarmless) {
  EventLoop loop;
  auto id = loop.schedule_at(milliseconds(1), [] {});
  loop.run();
  loop.cancel(id);  // must not crash or corrupt
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(milliseconds(10), [&] { ++count; });
  loop.schedule_at(milliseconds(20), [&] { ++count; });
  loop.schedule_at(milliseconds(30), [&] { ++count; });
  loop.run_until(milliseconds(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), milliseconds(20));
  loop.run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoopTest, EventsScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_after(milliseconds(1), recurse);
  };
  loop.schedule_after(milliseconds(1), recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), milliseconds(5));
}

TEST(EventLoopTest, PastTimestampsClampToNow) {
#ifndef NDEBUG
  // Debug builds treat a past timestamp as a cross-shard synchronization
  // bug and abort so the offender is caught at its source.
  EventLoop loop;
  loop.schedule_at(milliseconds(10), [] {});
  loop.run();
  EXPECT_DEATH(loop.schedule_at(milliseconds(1), [] {}),
               "schedule into the past");
#else
  // Release builds clamp to now() (late is better than time travel) and
  // count the offence so soaks can assert the count stayed zero.
  EventLoop loop;
  loop.schedule_at(milliseconds(10), [] {});
  loop.run();
  EXPECT_EQ(loop.clamped_schedules(), 0u);
  bool ran = false;
  loop.schedule_at(milliseconds(1), [&] { ran = true; });  // in the past
  loop.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.now(), milliseconds(10));
  EXPECT_EQ(loop.clamped_schedules(), 1u);
#endif
}

TEST(EventLoopTest, StaleIdCannotCancelRecycledSlot) {
  // EventIds carry a generation stamp: once a timer fires, its slot can
  // be recycled by a later schedule, and cancelling the *old* id must not
  // kill the new tenant.
  EventLoop loop;
  bool second = false;
  const auto id1 = loop.schedule_at(milliseconds(1), [] {});
  loop.run();  // id1's slot is released and eligible for reuse
  const auto id2 = loop.schedule_at(milliseconds(2), [&] { second = true; });
  EXPECT_NE(id1, id2);  // generation differs even when the slot is reused
  loop.cancel(id1);     // stale handle: must be a no-op
  EXPECT_EQ(loop.pending(), 1u);
  loop.run();
  EXPECT_TRUE(second);
}

TEST(EventLoopTest, StopInterruptsRun) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(milliseconds(1), [&] {
    ++count;
    loop.stop();
  });
  loop.schedule_at(milliseconds(2), [&] { ++count; });
  loop.run();
  EXPECT_EQ(count, 1);
  loop.run();
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, CancelledDebrisIsCompacted) {
  // Churn pattern: schedule far-future timers and cancel almost all of
  // them (keepalive/renew timers of departing nodes).  pending() must
  // track live events exactly, and the heap must shed lazily-cancelled
  // slots instead of accumulating them — queue_depth() stays O(pending()).
  EventLoop loop;
  std::vector<EventLoop::EventId> ids;
  constexpr int kRounds = 200;
  constexpr int kPerRound = 100;
  for (int r = 0; r < kRounds; ++r) {
    ids.clear();
    for (int i = 0; i < kPerRound; ++i) {
      ids.push_back(loop.schedule_at(seconds(3600 + r), [] {}));
    }
    // Cancel all but one per round, as a departing node would.
    for (std::size_t i = 1; i < ids.size(); ++i) loop.cancel(ids[i]);
  }
  EXPECT_EQ(loop.pending(), static_cast<std::size_t>(kRounds));
  // 20k cancels against 200 survivors: without compaction queue_depth()
  // would be ~20200.  The lazy-cancel bound is 2x live + the small
  // compaction floor.
  EXPECT_LE(loop.queue_depth(), 2 * loop.pending() + 64);
  // Survivors still run, in order, exactly once.
  std::size_t ran = loop.run();
  EXPECT_EQ(ran, static_cast<std::size_t>(kRounds));
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.queue_depth(), 0u);
}

TEST(EventLoopTest, CancelledTimerNeverFiresAfterOwnerDestruction) {
  // The timer-lifetime pattern the lint pass enforces: an owner whose
  // callback captures `this` must either cancel its EventId on
  // destruction or capture a liveness guard.  Model both and destroy the
  // owner before its deadline — neither callback may touch freed state.
  EventLoop loop;
  int fired = 0;

  struct CancellingOwner {
    EventLoop& loop;
    int& fired;
    EventLoop::EventId id = 0;
    CancellingOwner(EventLoop& l, int& f) : loop(l), fired(f) {
      id = loop.schedule_after(milliseconds(10), [this] { ++fired; });
    }
    ~CancellingOwner() { loop.cancel(id); }
  };
  struct GuardedOwner {
    int& fired;
    util::AliveToken alive_;
    GuardedOwner(EventLoop& l, int& f) : fired(f) {
      l.schedule_after(milliseconds(10),
                       [this, alive = alive_.guard()] {
                         if (!alive) return;
                         ++fired;
                       });
    }
  };

  {
    CancellingOwner a(loop, fired);
    GuardedOwner b(loop, fired);
  }  // both destroyed before their deadlines
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.pending(), 0u);

  // Control: the same owners left alive past the deadline do fire.
  auto a = std::make_unique<CancellingOwner>(loop, fired);
  auto b = std::make_unique<GuardedOwner>(loop, fired);
  loop.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, QueueDepthBoundedUnderCancelHeavyLoad) {
  // Steady-state churn: every tick reschedules a keepalive (cancel the
  // old timer, schedule a replacement) for each of kNodes nodes.  The
  // heap must stay O(live) *throughout* the run, not just after a final
  // drain — an unbounded high-water mark is the regression this guards.
  EventLoop loop;
  constexpr int kNodes = 50;
  constexpr int kTicks = 400;
  std::vector<EventLoop::EventId> keepalive(kNodes, 0);
  for (int n = 0; n < kNodes; ++n) {
    keepalive[n] = loop.schedule_at(seconds(3600), [] {});
  }
  std::size_t max_depth = 0;
  for (int t = 1; t <= kTicks; ++t) {
    loop.run_until(milliseconds(t));
    for (int n = 0; n < kNodes; ++n) {
      loop.cancel(keepalive[n]);
      keepalive[n] = loop.schedule_at(seconds(3600 + t), [] {});
    }
    max_depth = std::max(max_depth, loop.queue_depth());
  }
  EXPECT_EQ(loop.pending(), static_cast<std::size_t>(kNodes));
  // 20k cancels with 50 live events: the lazy-cancel invariant bounds the
  // heap at 2x live + the compaction floor at every observation point.
  EXPECT_LE(max_depth, 2 * static_cast<std::size_t>(kNodes) + 64);
  loop.run();
  EXPECT_EQ(loop.queue_depth(), 0u);
}

// Seeded random mix of timers, deliveries and cancels, checked online
// against a sorted reference model of the ordering contract: every event
// that runs must be the smallest live (at, key0, key1) key.  Callbacks
// schedule and cancel too, and one of them schedules a burst big enough
// to grow the slot arena while it is itself running.
class OrderingModel {
 public:
  static constexpr int kEvents = 20000;
  static constexpr int kBurst = 600;  // > one arena chunk of slots

  void seed_events(int n) {
    for (int i = 0; i < n; ++i) schedule_one();
  }
  EventLoop& loop() { return loop_; }
  int ran() const { return ran_; }
  int out_of_order() const { return out_of_order_; }
  int scheduled() const { return next_tag_; }
  bool model_empty() const { return live_.empty(); }

 private:
  using Key = std::tuple<TimePoint, std::uint64_t, std::uint64_t>;

  void schedule_one() {
    if (next_tag_ >= kEvents) return;
    const int tag = next_tag_++;
    // A narrow time range so timestamps tie often.
    const TimePoint at = loop_.now() + microseconds(rng_.uniform_int(0, 40));
    if (rng_.chance(0.5)) {
      const Key k{at, 0, timer_seq_++};
      const auto id = loop_.schedule_at(at, [this, tag] { fire(tag); });
      live_.emplace(k, tag);
      timers_.emplace(tag, std::pair{id, k});
    } else {
      const auto s = static_cast<std::size_t>(rng_.uniform_int(0, 3));
      const Key k{at, s + 1, stream_seq_[s]};
      loop_.schedule_delivery(at, s, stream_seq_[s]++, 0,
                              [this, tag] { fire(tag); });
      live_.emplace(k, tag);
    }
  }

  void cancel_one() {
    if (timers_.empty()) return;
    auto it = timers_.begin();
    std::advance(it, rng_.uniform_int(
                         0, static_cast<std::int64_t>(timers_.size()) - 1));
    loop_.cancel(it->second.first);
    live_.erase(it->second.second);
    timers_.erase(it);
  }

  void fire(int tag) {
    ++ran_;
    if (live_.empty() || live_.begin()->second != tag) {
      ++out_of_order_;
    } else {
      live_.erase(live_.begin());
    }
    timers_.erase(tag);
    if (tag == 10) {
      for (int i = 0; i < kBurst; ++i) schedule_one();
    }
    const auto n = rng_.uniform_int(0, 3);  // mean 1.5: the mix grows
    for (std::int64_t i = 0; i < n; ++i) schedule_one();
    if (rng_.chance(0.3)) cancel_one();
  }

  EventLoop loop_;
  util::Rng rng_{0x0D3E7};
  std::map<Key, int> live_;  // the reference model, in canonical order
  std::map<int, std::pair<EventLoop::EventId, Key>> timers_;
  std::uint64_t timer_seq_ = 0;
  std::array<std::uint64_t, 4> stream_seq_{};
  int next_tag_ = 0;
  int ran_ = 0;
  int out_of_order_ = 0;
};

TEST(EventLoopTest, RandomMixRunsInCanonicalKeyOrder) {
  OrderingModel m;
  m.seed_events(64);
  m.loop().run();
  EXPECT_EQ(m.scheduled(), OrderingModel::kEvents);
  EXPECT_EQ(m.out_of_order(), 0);
  EXPECT_TRUE(m.model_empty());
  EXPECT_EQ(m.loop().pending(), 0u);
  EXPECT_GT(m.ran(), OrderingModel::kEvents / 2);  // cancels took the rest
}

TEST(EventLoopTest, CallbacksAcceptMoveOnlyCaptures) {
  EventLoop loop;
  int got = 0;
  auto p = std::make_unique<int>(42);
  loop.schedule_after(milliseconds(1), [p = std::move(p), &got] { got = *p; });
  loop.run();
  EXPECT_EQ(got, 42);
}

TEST(EventLoopTest, OversizeClosuresFallBackToTheHeap) {
  // A link-delivery-sized closure stays inline; a larger one moves to one
  // heap block and must still move, run and destroy exactly once.
  std::array<std::uint8_t, Callback::kInlineBytes> fits{};
  auto small = [fits] { (void)fits; };
  static_assert(Callback::kStoredInline<decltype(small)>);

  auto owner = std::make_shared<int>(0);
  std::array<std::uint8_t, 200> big{};
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  int sum = 0;
  auto large = [big, owner, &sum] {
    for (auto b : big) sum += b;
  };
  static_assert(!Callback::kStoredInline<decltype(large)>);
  Callback cb(std::move(large));
  EXPECT_EQ(owner.use_count(), 2);
  Callback moved = std::move(cb);
  EXPECT_FALSE(cb);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(owner.use_count(), 2);

  EventLoop loop;
  loop.schedule_after(milliseconds(1), std::move(moved));
  loop.run();
  EXPECT_EQ(sum, 199 * 200 / 2);
  EXPECT_EQ(owner.use_count(), 1);  // closure destroyed after it ran
}

TEST(EventLoopTest, CancelReleasesCapturesImmediately) {
  EventLoop loop;
  auto small = std::make_shared<int>(1);
  auto large = std::make_shared<int>(2);
  std::weak_ptr<int> small_w = small, large_w = large;
  std::array<std::uint8_t, 200> pad{};
  const auto a = loop.schedule_after(milliseconds(5),
                                     [s = std::move(small)] { (void)s; });
  const auto b = loop.schedule_after(
      milliseconds(5), [l = std::move(large), pad] { (void)l, (void)pad; });
  EXPECT_FALSE(small_w.expired());
  loop.cancel(a);
  loop.cancel(b);
  // Released at cancel(), not when the dead key is popped or compacted.
  EXPECT_TRUE(small_w.expired());
  EXPECT_TRUE(large_w.expired());
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopTest, ClosureDestructorMayCancelOtherEvents) {
  // cancel() destroys the closure after the loop's bookkeeping is
  // consistent, so a captured object whose destructor cancels another
  // event re-enters cancel() safely.
  struct CancelOnDestroy {
    EventLoop* loop;
    EventLoop::EventId other;
    ~CancelOnDestroy() { loop->cancel(other); }
  };
  EventLoop loop;
  bool ran = false;
  const auto victim = loop.schedule_after(milliseconds(2), [&] { ran = true; });
  const auto first = loop.schedule_after(
      milliseconds(1),
      [c = std::make_unique<CancelOnDestroy>(CancelOnDestroy{&loop, victim})] {
        (void)c;
      });
  loop.cancel(first);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_FALSE(ran);
}

// --- CpuScheduler --------------------------------------------------------------

TEST(CpuTest, SerializesWork) {
  EventLoop loop;
  CpuScheduler cpu(loop, "cpu");
  std::vector<std::int64_t> done_at;
  cpu.run(milliseconds(10), [&] { done_at.push_back(loop.now().count()); });
  cpu.run(milliseconds(5), [&] { done_at.push_back(loop.now().count()); });
  loop.run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], milliseconds(10).count());
  EXPECT_EQ(done_at[1], milliseconds(15).count());  // queued behind first
}

TEST(CpuTest, LoadScalesCost) {
  EventLoop loop;
  CpuScheduler cpu(loop, "cpu");
  cpu.set_load(9.0);  // 10x slowdown
  std::int64_t done = 0;
  cpu.run(milliseconds(10), [&] { done = loop.now().count(); });
  loop.run();
  EXPECT_EQ(done, milliseconds(100).count());
}

TEST(CpuTest, IdleGapsDoNotAccumulate) {
  EventLoop loop;
  CpuScheduler cpu(loop, "cpu");
  std::int64_t done = 0;
  cpu.run(milliseconds(1), [] {});
  loop.run();
  loop.schedule_at(milliseconds(100), [&] {
    cpu.run(milliseconds(2), [&] { done = loop.now().count(); });
  });
  loop.run();
  EXPECT_EQ(done, milliseconds(102).count());
  EXPECT_EQ(cpu.busy_total(), milliseconds(3));
  EXPECT_EQ(cpu.tasks(), 2u);
}

// --- Link -----------------------------------------------------------------------

sim::Frame make_frame(std::size_t size) {
  return sim::Frame::filled(size, 0x5A);
}

TEST(LinkTest, DeliversWithPropagationDelay) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.delay = milliseconds(5);
  cfg.bandwidth_bps = 0;  // no serialization
  Link link(loop, cfg, util::Rng(1));
  std::int64_t arrival = -1;
  link.end_b().set_receiver([&](Frame) { arrival = loop.now().count(); });
  link.end_a().send(make_frame(100));
  loop.run();
  EXPECT_EQ(arrival, milliseconds(5).count());
}

TEST(LinkTest, SerializationDelayMatchesBandwidth) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.delay = Duration{0};
  cfg.bandwidth_bps = 8e6;  // 1 byte per microsecond
  Link link(loop, cfg, util::Rng(1));
  std::int64_t arrival = -1;
  link.end_b().set_receiver([&](Frame) { arrival = loop.now().count(); });
  link.end_a().send(make_frame(1000));
  loop.run();
  EXPECT_EQ(arrival, microseconds(1000).count());
}

TEST(LinkTest, BackToBackFramesQueueBehindEachOther) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.delay = Duration{0};
  cfg.bandwidth_bps = 8e6;
  Link link(loop, cfg, util::Rng(1));
  std::vector<std::int64_t> arrivals;
  link.end_b().set_receiver([&](Frame) { arrivals.push_back(loop.now().count()); });
  link.end_a().send(make_frame(1000));
  link.end_a().send(make_frame(1000));
  loop.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], microseconds(1000).count());
  EXPECT_EQ(arrivals[1], microseconds(2000).count());
}

TEST(LinkTest, DropTailQueueOverflow) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.delay = Duration{0};
  cfg.bandwidth_bps = 8e6;
  cfg.queue_bytes = 2500;  // fits two 1000B frames plus change
  Link link(loop, cfg, util::Rng(1));
  int delivered = 0;
  link.end_b().set_receiver([&](Frame) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.end_a().send(make_frame(1000));
  loop.run();
  EXPECT_LT(delivered, 10);
  EXPECT_EQ(link.stats_a_to_b().frames_dropped_queue,
            10u - static_cast<unsigned>(delivered));
}

TEST(LinkTest, RandomLossDropsApproximatelyRate) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.delay = microseconds(1);
  cfg.bandwidth_bps = 0;
  cfg.loss_rate = 0.3;
  Link link(loop, cfg, util::Rng(99));
  int delivered = 0;
  link.end_b().set_receiver([&](Frame) { ++delivered; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) link.end_a().send(make_frame(64));
  loop.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.03);
}

TEST(LinkTest, DirectionsAreIndependent) {
  EventLoop loop;
  LinkConfig ab;
  ab.delay = milliseconds(1);
  ab.bandwidth_bps = 0;
  LinkConfig ba;
  ba.delay = milliseconds(7);
  ba.bandwidth_bps = 0;
  Link link(loop, ab, ba, util::Rng(1));
  std::int64_t at_b = -1, at_a = -1;
  link.end_b().set_receiver([&](Frame) { at_b = loop.now().count(); });
  link.end_a().set_receiver([&](Frame) { at_a = loop.now().count(); });
  link.end_a().send(make_frame(10));
  link.end_b().send(make_frame(10));
  loop.run();
  EXPECT_EQ(at_b, milliseconds(1).count());
  EXPECT_EQ(at_a, milliseconds(7).count());
}

TEST(LinkTest, DownLinkDropsEverything) {
  EventLoop loop;
  LinkConfig cfg;
  Link link(loop, cfg, util::Rng(1));
  int delivered = 0;
  link.end_b().set_receiver([&](Frame) { ++delivered; });
  link.set_up(false);
  link.end_a().send(make_frame(10));
  loop.run();
  EXPECT_EQ(delivered, 0);
  link.set_up(true);
  link.end_a().send(make_frame(10));
  loop.run();
  EXPECT_EQ(delivered, 1);
}

TEST(LinkTest, JitterBoundsDelay) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.delay = milliseconds(10);
  cfg.bandwidth_bps = 0;
  cfg.jitter = milliseconds(5);
  Link link(loop, cfg, util::Rng(5));
  std::vector<std::int64_t> arrivals;
  std::int64_t sent_at = 0;
  link.end_b().set_receiver([&](Frame) { arrivals.push_back(loop.now().count()); });
  for (int i = 0; i < 100; ++i) {
    loop.schedule_at(seconds(i), [&link] { link.end_a().send(make_frame(8)); });
  }
  loop.run();
  ASSERT_EQ(arrivals.size(), 100u);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    sent_at = seconds(static_cast<std::int64_t>(i)).count();
    const auto delay = arrivals[i] - sent_at;
    EXPECT_GE(delay, milliseconds(10).count());
    EXPECT_LT(delay, milliseconds(15).count());
  }
}

// --- Switch -----------------------------------------------------------------------

struct SwitchFixture : ::testing::Test {
  // Three "hosts" hanging off one switch; frames are hand-rolled
  // [dst6][src6][type2] headers.
  EventLoop loop;
  Switch sw{loop, "sw"};
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::vector<Frame>> received{3};

  void SetUp() override {
    LinkConfig cfg;
    cfg.delay = microseconds(10);
    for (int i = 0; i < 3; ++i) {
      links.push_back(std::make_unique<Link>(loop, cfg, util::Rng(i + 1)));
      sw.attach(links[i]->end_b());
      links[i]->end_a().set_receiver(
          [this, i](Frame f) { received[i].push_back(std::move(f)); });
    }
  }

  static Frame frame(int dst, int src) {
    Frame f = Frame::filled(64, 0);
    auto set_mac = [&](std::size_t off, int idx) {
      if (idx < 0) {
        std::fill(f.data() + off, f.data() + off + 6, 0xFF);
      } else {
        f[off + 5] = static_cast<std::uint8_t>(idx + 1);
      }
    };
    set_mac(0, dst);
    set_mac(6, src);
    f[12] = 0x08;
    return f;
  }
};

TEST_F(SwitchFixture, FloodsUnknownDestination) {
  links[0]->end_a().send(frame(2, 0));
  loop.run();
  EXPECT_EQ(received[0].size(), 0u);  // never echoed to sender
  EXPECT_EQ(received[1].size(), 1u);
  EXPECT_EQ(received[2].size(), 1u);
}

TEST_F(SwitchFixture, LearnsAndForwardsUnicast) {
  links[2]->end_a().send(frame(-1, 2));  // teach the switch where MAC 2 lives
  loop.run();
  received.assign(3, {});
  links[0]->end_a().send(frame(2, 0));
  loop.run();
  EXPECT_EQ(received[1].size(), 0u);  // no flood: learned port
  EXPECT_EQ(received[2].size(), 1u);
  EXPECT_GE(sw.frames_forwarded(), 1u);
}

TEST_F(SwitchFixture, BroadcastReachesAllOthers) {
  links[1]->end_a().send(frame(-1, 1));
  loop.run();
  EXPECT_EQ(received[0].size(), 1u);
  EXPECT_EQ(received[1].size(), 0u);
  EXPECT_EQ(received[2].size(), 1u);
}

TEST_F(SwitchFixture, RuntFramesDropped) {
  links[0]->end_a().send(Frame::filled(5, 0xAA));
  loop.run();
  EXPECT_EQ(received[1].size(), 0u);
  EXPECT_EQ(received[2].size(), 0u);
}

}  // namespace
}  // namespace ipop::sim
