// Unit tests for the discrete-event engine: simulator ordering, completions,
// stream semantics, thread pools, and the max-min fair bandwidth network.

#include <gtest/gtest.h>

#include <vector>

#include "ssdtrain/sim/bandwidth_network.hpp"
#include "ssdtrain/sim/completion.hpp"
#include "ssdtrain/sim/simulator.hpp"
#include "ssdtrain/sim/stream.hpp"
#include "ssdtrain/sim/thread_pool.hpp"
#include "ssdtrain/util/check.hpp"
#include "ssdtrain/util/units.hpp"

namespace sim = ssdtrain::sim;
namespace u = ssdtrain::util;

TEST(Simulator, RunsEventsInTimeOrder) {
  sim::Simulator s;
  std::vector<int> order;
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, EqualTimesRunFifo) {
  sim::Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, RejectsPastEvents) {
  sim::Simulator s;
  s.schedule_at(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), u::ContractViolation);
  EXPECT_THROW(s.schedule_after(-1.0, [] {}), u::ContractViolation);
}

TEST(Simulator, EventsCanScheduleEvents) {
  sim::Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] {
    s.schedule_after(1.0, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  sim::Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(10.0, [&] { ++fired; });
  s.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulator, LogicalStampsStrictlyIncrease) {
  sim::Simulator s;
  const auto a = s.next_logical_stamp();
  const auto b = s.next_logical_stamp();
  EXPECT_LT(a, b);
}

TEST(Completion, FiresWaitersOnce) {
  sim::Simulator s;
  auto c = sim::Completion::create(s, "c");
  int count = 0;
  c->add_waiter([&] { ++count; });
  EXPECT_FALSE(c->done());
  s.schedule_at(2.0, [&] { c->fire(); });
  s.run();
  EXPECT_TRUE(c->done());
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(c->completion_time(), 2.0);
  EXPECT_THROW(c->fire(), u::ContractViolation);
}

TEST(Completion, LateWaiterRunsImmediately) {
  sim::Simulator s;
  auto c = sim::Completion::already_done(s);
  int count = 0;
  c->add_waiter([&] { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(Completion, WhenAllWaitsForEveryDep) {
  sim::Simulator s;
  auto a = sim::Completion::create(s);
  auto b = sim::Completion::create(s);
  auto all = sim::when_all(s, {a, b});
  s.schedule_at(1.0, [&] { a->fire(); });
  s.schedule_at(2.0, [&] { b->fire(); });
  s.run();
  EXPECT_TRUE(all->done());
  EXPECT_DOUBLE_EQ(all->completion_time(), 2.0);
}

TEST(Completion, WhenAllOfNothingIsDone) {
  sim::Simulator s;
  EXPECT_TRUE(sim::when_all(s, {})->done());
}

TEST(Stream, ExecutesTasksSequentially) {
  sim::Simulator s;
  sim::Stream stream(s, "compute");
  auto t1 = stream.enqueue("k1", 1.0);
  auto t2 = stream.enqueue("k2", 2.0);
  s.run();
  EXPECT_DOUBLE_EQ(t1->completion_time(), 1.0);
  EXPECT_DOUBLE_EQ(t2->completion_time(), 3.0);
  EXPECT_DOUBLE_EQ(stream.busy_time(), 3.0);
  EXPECT_EQ(stream.tasks_completed(), 2u);
  EXPECT_TRUE(stream.idle());
}

TEST(Stream, CrossStreamDependencyDelaysStart) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  sim::Stream b(s, "b");
  auto ka = a.enqueue("ka", 5.0);
  auto kb = b.enqueue("kb", 1.0, {ka});
  s.run();
  EXPECT_DOUBLE_EQ(kb->completion_time(), 6.0);
  // b was blocked, not busy, while a ran.
  EXPECT_DOUBLE_EQ(b.busy_time(), 1.0);
}

TEST(Stream, WaitForAppliesToSubsequentTasks) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  sim::Stream b(s, "b");
  auto ka = a.enqueue("ka", 4.0);
  b.wait_for(ka);
  auto kb = b.enqueue("kb", 1.0);
  s.run();
  EXPECT_DOUBLE_EQ(kb->completion_time(), 5.0);
}

// A wait orders the next task on the stream, and stream order then covers
// every later task, so the stream must drop the wait once a task has taken
// it. Kept, every cross-stream gate of a long session (one per TP
// all-reduce or DP gate) would stay alive and be folded into every later
// task.
TEST(Stream, WaitsExpireOnceATaskHasTakenThem) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  sim::Stream b(s, "b");
  std::size_t live_after_first_round = 0;
  for (int round = 0; round < 20; ++round) {
    b.wait_for(a.enqueue("ka", 1.0));
    b.enqueue("kb", 1.0);
    s.run();
    if (round == 0) live_after_first_round = s.pool()->live();
  }
  EXPECT_EQ(s.pool()->live(), live_after_first_round);
}

TEST(Stream, MarkerFiresAfterPriorWork) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  a.enqueue("k", 2.5);
  auto marker = a.record_marker();
  s.run();
  EXPECT_DOUBLE_EQ(marker->completion_time(), 2.5);
}

TEST(Stream, DynamicTaskFinishesWhenCallbackInvoked) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  auto t = a.enqueue_dynamic("dyn", [&s](std::function<void()> finish) {
    s.schedule_after(3.0, finish);
  });
  auto after = a.enqueue("next", 1.0);
  s.run();
  EXPECT_DOUBLE_EQ(t->completion_time(), 3.0);
  EXPECT_DOUBLE_EQ(after->completion_time(), 4.0);
}

TEST(Stream, ObserverSeesTaskRecords) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  std::vector<sim::Stream::TaskRecord> records;
  a.set_observer([&](const sim::Stream::TaskRecord& r) {
    records.push_back(r);
  });
  a.enqueue("k1", 1.0);
  a.enqueue("k2", 2.0);
  s.run();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].label, "k1");
  EXPECT_DOUBLE_EQ(records[1].start, 1.0);
  EXPECT_DOUBLE_EQ(records[1].end, 3.0);
}

TEST(Stream, StaleFinishTokenIsRejected) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  sim::Stream::FinishToken stolen;
  a.enqueue_dynamic("dyn", [&stolen, &s](sim::Stream::FinishToken finish) {
    stolen = finish;
    s.schedule_after(1.0, finish);
  });
  s.run();
  // The task already finished; invoking its token again must trip the
  // double-finish guard instead of corrupting stream state.
  EXPECT_THROW(stolen(), u::ContractViolation);
}

TEST(Stream, LabelsAreOnlyRetainedWhileObserved) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  std::vector<std::string> labels;
  // Tasks enqueued before the observer attaches trace with empty names
  // (lazy-label contract); tasks enqueued after carry their labels.
  a.enqueue("before", 1.0);
  a.set_observer([&](const sim::Stream::TaskRecord& r) {
    labels.push_back(r.label);
  });
  a.enqueue("after1", 1.0);
  a.enqueue("after2", 1.0);
  s.run();
  EXPECT_EQ(labels, (std::vector<std::string>{"", "after1", "after2"}));
}

TEST(Stream, SingleDependencyUsesTheDepDirectly) {
  sim::Simulator s;
  sim::Stream a(s, "a");
  sim::Stream b(s, "b");
  auto ka = a.enqueue("ka", 2.0);
  auto kb = b.enqueue_after("kb", 1.0, ka);
  s.run();
  EXPECT_DOUBLE_EQ(kb->completion_time(), 3.0);
  EXPECT_DOUBLE_EQ(b.busy_time(), 1.0);
}

TEST(ThreadPool, StaleFinishTokenIsRejected) {
  sim::Simulator s;
  sim::SimThreadPool pool(s, "store", 1);
  sim::SimThreadPool::FinishToken stolen;
  pool.submit("job", [&stolen, &s](sim::SimThreadPool::FinishToken finish) {
    stolen = finish;
    s.schedule_after(1.0, finish);
  });
  s.run();
  EXPECT_THROW(stolen(), u::ContractViolation);
  EXPECT_EQ(pool.jobs_completed(), 1u);
}

TEST(ThreadPool, SingleWorkerIsFifo) {
  sim::Simulator s;
  sim::SimThreadPool pool(s, "store", 1);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    pool.submit("job", [&s, &order, i](std::function<void()> finish) {
      s.schedule_after(1.0, [&order, i, finish]() {
        order.push_back(i);
        finish();
      });
    });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(pool.jobs_completed(), 3u);
}

TEST(ThreadPool, MultipleWorkersRunConcurrently) {
  sim::Simulator s;
  sim::SimThreadPool pool(s, "store", 2);
  std::vector<sim::CompletionPtr> done;
  for (int i = 0; i < 4; ++i) {
    done.push_back(
        pool.submit("job", [&s](std::function<void()> finish) {
          s.schedule_after(1.0, finish);
        }));
  }
  s.run();
  // Two workers, four 1s jobs: pairs finish at t=1 and t=2.
  EXPECT_DOUBLE_EQ(done[0]->completion_time(), 1.0);
  EXPECT_DOUBLE_EQ(done[1]->completion_time(), 1.0);
  EXPECT_DOUBLE_EQ(done[2]->completion_time(), 2.0);
  EXPECT_DOUBLE_EQ(done[3]->completion_time(), 2.0);
  EXPECT_TRUE(pool.idle());
}

TEST(Bandwidth, SingleFlowRunsAtCapacity) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  bool done = false;
  net.start_flow("t", u::gb(20), {link}, [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_NEAR(net.resource_delivered(link), 20e9, 1.0);
}

TEST(Bandwidth, TwoFlowsShareFairly) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  double t1 = -1, t2 = -1;
  net.start_flow("a", u::gb(10), {link}, [&] { t1 = s.now(); });
  net.start_flow("b", u::gb(10), {link}, [&] { t2 = s.now(); });
  s.run();
  // Equal shares of 5 GB/s: both finish at t=2.
  EXPECT_NEAR(t1, 2.0, 1e-9);
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(Bandwidth, ShortFlowReleasesCapacityToLongFlow) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  double t_short = -1, t_long = -1;
  net.start_flow("long", u::gb(30), {link}, [&] { t_long = s.now(); });
  net.start_flow("short", u::gb(5), {link}, [&] { t_short = s.now(); });
  s.run();
  // Share 5/5 until short drains at t=1 (5 GB at 5 GB/s); long then has
  // 25 GB left at 10 GB/s -> finishes at t=3.5.
  EXPECT_NEAR(t_short, 1.0, 1e-9);
  EXPECT_NEAR(t_long, 3.5, 1e-9);
}

TEST(Bandwidth, RateCapLimitsFlowBelowFairShare) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  double t_capped = -1, t_free = -1;
  net.start_flow("capped", u::gb(4), {link}, [&] { t_capped = s.now(); },
                 u::gbps(2));
  net.start_flow("free", u::gb(16), {link}, [&] { t_free = s.now(); });
  s.run();
  // Capped flow: 2 GB/s -> done at t=2. Free flow gets 8 GB/s -> done at
  // 16/8 = 2.0 as well.
  EXPECT_NEAR(t_capped, 2.0, 1e-9);
  EXPECT_NEAR(t_free, 2.0, 1e-9);
}

TEST(Bandwidth, MultiResourcePathTakesBottleneck) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto pcie = net.add_resource("pcie", u::gbps(20));
  auto ssd = net.add_resource("ssd", u::gbps(6));
  double t = -1;
  net.start_flow("w", u::gb(12), {pcie, ssd}, [&] { t = s.now(); });
  s.run();
  EXPECT_NEAR(t, 2.0, 1e-9);  // limited by the 6 GB/s SSD
  EXPECT_NEAR(net.resource_delivered(pcie), 12e9, 1.0);
}

TEST(Bandwidth, MaxMinFairnessAcrossSharedBottleneck) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto l1 = net.add_resource("l1", u::gbps(10));
  auto l2 = net.add_resource("l2", u::gbps(4));
  // Flow A uses l1 only; flows B and C traverse l1+l2.
  // Max-min: B and C get 2 each (l2 bottleneck), A gets 10-4=6.
  double ta = -1;
  net.start_flow("a", u::gb(6), {l1}, [&] { ta = s.now(); });
  net.start_flow("b", u::gb(20), {l1, l2}, [] {});
  net.start_flow("c", u::gb(20), {l1, l2}, [] {});
  s.run_until(0.999);
  EXPECT_LT(ta, 0.0);  // A still running just before t=1
  s.run();
  EXPECT_NEAR(ta, 1.0, 1e-6);
}

TEST(Bandwidth, ZeroByteFlowCompletesImmediately) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  (void)link;
  bool done = false;
  net.start_flow("empty", 0, {link}, [&] { done = true; });
  s.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

TEST(Bandwidth, CompletionCallbackCanStartNewFlow) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  double t2 = -1;
  net.start_flow("first", u::gb(10), {link}, [&] {
    net.start_flow("second", u::gb(10), {link}, [&] { t2 = s.now(); });
  });
  s.run();
  EXPECT_NEAR(t2, 2.0, 1e-9);
}

TEST(Bandwidth, UtilizationReflectsBusyFraction) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  net.start_flow("t", u::gb(10), {link}, [] {});
  s.run();            // busy 0..1
  s.run_until(2.0);   // idle 1..2
  EXPECT_NEAR(net.resource_utilization(link), 0.5, 1e-9);
}

TEST(Bandwidth, SetCapacityReratesActiveFlows) {
  sim::Simulator s;
  sim::BandwidthNetwork net(s);
  auto link = net.add_resource("pcie", u::gbps(10));
  double t = -1;
  net.start_flow("t", u::gb(20), {link}, [&] { t = s.now(); });
  s.schedule_at(1.0, [&] { net.set_capacity(link, u::gbps(5)); });
  s.run();
  // 10 GB in first second, remaining 10 GB at 5 GB/s -> t = 3.
  EXPECT_NEAR(t, 3.0, 1e-9);
}
