// Tests for the preemptive CPU scheduler: single-thread timing, round-robin
// sharing, strict-priority preemption, affinity (pbind), context-switch
// accounting and utilization metering.
#include "sim/cpusched.hpp"

#include <gtest/gtest.h>

#include "sim/coro.hpp"

namespace nistream::sim {
namespace {

CpuScheduler::Params one_cpu(Time quantum = Time::ms(10),
                             Time cs = Time::zero()) {
  return {.num_cpus = 1, .quantum = quantum, .context_switch = cs,
          .meter_sample = Time::ms(100)};
}

TEST(CpuSched, SingleThreadRunsToCompletion) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu()};
  auto& thr = sched.create_thread("t", 10);
  Time done = Time::never();
  auto proc = [&]() -> Coro {
    co_await sched.run(thr, Time::ms(35));
    done = eng.now();
  };
  proc().detach();
  eng.run();
  EXPECT_EQ(done, Time::ms(35));
  EXPECT_EQ(thr.cpu_time(), Time::ms(35));
}

TEST(CpuSched, ZeroDemandCompletesInline) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu()};
  auto& thr = sched.create_thread("t", 10);
  bool done = false;
  auto proc = [&]() -> Coro {
    co_await sched.run(thr, Time::zero());
    done = true;
  };
  proc().detach();
  EXPECT_TRUE(done);
}

TEST(CpuSched, EqualPriorityTimeSlices) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(10))};
  auto& a = sched.create_thread("a", 10);
  auto& b = sched.create_thread("b", 10);
  Time done_a = Time::never(), done_b = Time::never();
  auto pa = [&]() -> Coro { co_await sched.run(a, Time::ms(30)); done_a = eng.now(); };
  auto pb = [&]() -> Coro { co_await sched.run(b, Time::ms(30)); done_b = eng.now(); };
  pa().detach();
  pb().detach();
  eng.run();
  // Interleaved 10 ms quanta: a finishes at 50 ms, b at 60 ms.
  EXPECT_EQ(done_a, Time::ms(50));
  EXPECT_EQ(done_b, Time::ms(60));
}

TEST(CpuSched, HigherPriorityPreemptsMidSlice) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(10))};
  auto& low = sched.create_thread("low", 50);
  auto& high = sched.create_thread("high", 1);
  Time low_done = Time::never(), high_done = Time::never();
  auto pl = [&]() -> Coro {
    co_await sched.run(low, Time::ms(20));
    low_done = eng.now();
  };
  auto ph = [&]() -> Coro {
    co_await Delay{eng, Time::ms(3)};  // arrive mid-slice
    co_await sched.run(high, Time::ms(5));
    high_done = eng.now();
  };
  pl().detach();
  ph().detach();
  eng.run();
  EXPECT_EQ(high_done, Time::ms(8));   // 3 (arrival) + 5 (immediate CPU)
  EXPECT_EQ(low_done, Time::ms(25));   // 20 of work + 5 preempted
}

TEST(CpuSched, PreemptedThreadResumesAheadOfItsClass) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(10))};
  auto& a = sched.create_thread("a", 10);
  auto& b = sched.create_thread("b", 10);
  auto& hi = sched.create_thread("hi", 1);
  std::vector<std::string> completion;
  auto worker = [&](CpuScheduler::Thread& t, Time w, const char* n) -> Coro {
    co_await sched.run(t, w);
    completion.push_back(n);
  };
  // a runs first; hi preempts at 2 ms for 1 ms; a must continue before b.
  worker(a, Time::ms(6), "a").detach();
  worker(b, Time::ms(6), "b").detach();
  auto ph = [&]() -> Coro {
    co_await Delay{eng, Time::ms(2)};
    co_await sched.run(hi, Time::ms(1));
    completion.push_back("hi");
  };
  ph().detach();
  eng.run();
  ASSERT_EQ(completion.size(), 3u);
  EXPECT_EQ(completion[0], "hi");
  EXPECT_EQ(completion[1], "a");
  EXPECT_EQ(completion[2], "b");
}

TEST(CpuSched, TwoCpusRunInParallel) {
  Engine eng;
  CpuScheduler sched{eng, {.num_cpus = 2, .quantum = Time::ms(10),
                           .context_switch = Time::zero(),
                           .meter_sample = Time::ms(100)}};
  auto& a = sched.create_thread("a", 10);
  auto& b = sched.create_thread("b", 10);
  Time done_a = Time::never(), done_b = Time::never();
  auto w = [&](CpuScheduler::Thread& t, Time& out) -> Coro {
    co_await sched.run(t, Time::ms(30));
    out = eng.now();
  };
  w(a, done_a).detach();
  w(b, done_b).detach();
  eng.run();
  EXPECT_EQ(done_a, Time::ms(30));
  EXPECT_EQ(done_b, Time::ms(30));  // no contention across 2 CPUs
}

TEST(CpuSched, AffinityPinsThreadToCpu) {
  Engine eng;
  CpuScheduler sched{eng, {.num_cpus = 2, .quantum = Time::ms(10),
                           .context_switch = Time::zero(),
                           .meter_sample = Time::ms(100)}};
  auto& pinned = sched.create_thread("pinned", 10, /*affinity=*/1);
  auto& other = sched.create_thread("other", 10, /*affinity=*/1);
  Time d1 = Time::never(), d2 = Time::never();
  auto w = [&](CpuScheduler::Thread& t, Time& out) -> Coro {
    co_await sched.run(t, Time::ms(20));
    out = eng.now();
  };
  w(pinned, d1).detach();
  w(other, d2).detach();
  eng.run();
  // Both pinned to CPU 1: they serialize even though CPU 0 is idle.
  EXPECT_EQ(std::max(d1, d2), Time::ms(40));
  EXPECT_EQ(sched.cpu_meter(0).total_busy(), Time::zero());
  EXPECT_EQ(sched.cpu_meter(1).total_busy(), Time::ms(40));
}

TEST(CpuSched, UnpinnedThreadPreemptsPastABlockedPinnedHead) {
  // The most urgent waiting thread, a, is pinned to cpu0, which runs the
  // even more urgent x, so a cannot preempt anything. That must not stop the
  // less urgent but unpinned b from preempting y on cpu1.
  Engine eng;
  CpuScheduler sched{eng, {.num_cpus = 2, .quantum = Time::ms(200),
                           .context_switch = Time::zero(),
                           .meter_sample = Time::ms(100)}};
  auto& x = sched.create_thread("x", 1, /*affinity=*/0);
  auto& y = sched.create_thread("y", 10, /*affinity=*/1);
  auto& a = sched.create_thread("a", 5, /*affinity=*/0);
  auto& b = sched.create_thread("b", 6);
  Time done_a = Time::never(), done_b = Time::never(), done_y = Time::never();
  auto w = [&](CpuScheduler::Thread& t, Time at, Time work,
               Time& out) -> Coro {
    co_await Delay{eng, at};
    co_await sched.run(t, work);
    out = eng.now();
  };
  Time done_x = Time::never();
  w(x, Time::zero(), Time::ms(100), done_x).detach();
  w(y, Time::zero(), Time::ms(100), done_y).detach();
  w(a, Time::ms(1), Time::ms(1), done_a).detach();
  w(b, Time::ms(1), Time::ms(1), done_b).detach();
  eng.run();
  EXPECT_EQ(done_b, Time::ms(2));    // preempted y at 1 ms
  EXPECT_EQ(done_y, Time::ms(101));  // 100 ms of work + 1 ms preempted
  EXPECT_EQ(done_x, Time::ms(100));
  EXPECT_EQ(done_a, Time::ms(101));  // waits for x on its own CPU
}

TEST(CpuSched, ContextSwitchCostCharged) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(10), /*cs=*/Time::us(100))};
  auto& a = sched.create_thread("a", 10);
  auto& b = sched.create_thread("b", 10);
  Time done_b = Time::never();
  auto w = [&](CpuScheduler::Thread& t, Time& out) -> Coro {
    co_await sched.run(t, Time::ms(20));
    out = eng.now();
  };
  Time dummy = Time::never();
  w(a, dummy).detach();
  w(b, done_b).detach();
  eng.run();
  // 40 ms of work + 4 switches (a,b,a,b) * 100 us.
  EXPECT_EQ(done_b, Time::ms(40) + Time::us(400));
  EXPECT_EQ(sched.context_switches(), 4u);
}

TEST(CpuSched, UtilizationSeriesReflectsLoad) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu()};
  auto& thr = sched.create_thread("t", 10);
  // Busy 50 ms of every 100 ms for 1 s.
  auto proc = [&]() -> Coro {
    for (int i = 0; i < 10; ++i) {
      co_await sched.run(thr, Time::ms(50));
      co_await Delay{eng, Time::ms(50)};
    }
  };
  proc().detach();
  eng.run();
  const TimeSeries util = sched.utilization_series(Time::sec(1));
  ASSERT_EQ(util.points().size(), 10u);
  for (const auto& [t, v] : util.points()) EXPECT_NEAR(v, 50.0, 0.5);
}

TEST(CpuSched, UtilizationAveragedAcrossCpus) {
  Engine eng;
  CpuScheduler sched{eng, {.num_cpus = 2, .quantum = Time::ms(10),
                           .context_switch = Time::zero(),
                           .meter_sample = Time::ms(100)}};
  auto& thr = sched.create_thread("t", 10, /*affinity=*/0);
  auto proc = [&]() -> Coro { co_await sched.run(thr, Time::ms(100)); };
  proc().detach();
  eng.run();
  const TimeSeries util = sched.utilization_series(Time::ms(100));
  ASSERT_EQ(util.points().size(), 1u);
  EXPECT_NEAR(util.points()[0].second, 50.0, 0.5);  // 1 of 2 CPUs busy
}

TEST(CpuSched, ReservationGuaranteesShareUnderLoad) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(10))};
  auto& reserved = sched.create_thread("reserved", 100);
  sched.set_reservation(reserved, /*fraction=*/0.25, Time::ms(20));
  // Three hogs of the same ordinary priority saturate the CPU.
  std::vector<CpuScheduler::Thread*> hogs;
  for (int i = 0; i < 3; ++i) {
    hogs.push_back(&sched.create_thread("hog" + std::to_string(i), 100));
  }
  auto hog_proc = [&](CpuScheduler::Thread& t) -> Coro {
    co_await sched.run(t, Time::sec(10));
  };
  for (auto* h : hogs) hog_proc(*h).detach();
  // The reserved thread wants 5 ms of CPU every 20 ms = exactly its budget.
  auto res_proc = [&]() -> Coro {
    for (int i = 0; i < 50; ++i) {
      co_await sched.run(reserved, Time::ms(5));
      const Time next_period = Time::ms(20 * (i + 1));
      if (eng.now() < next_period) co_await Delay{eng, next_period - eng.now()};
    }
  };
  res_proc().detach();
  eng.run_until(Time::sec(1));
  // Without the reservation it would receive ~1/4 of the CPU *of its share
  // class* => ~every 40 ms; with it, the full 5 ms per period: 250 ms total.
  EXPECT_NEAR(reserved.cpu_time().to_ms(), 250.0, 10.0);
}

TEST(CpuSched, ReservationBudgetExhaustionDropsPriority) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(10))};
  auto& reserved = sched.create_thread("reserved", 100);
  sched.set_reservation(reserved, /*fraction=*/0.25, Time::ms(100));  // 25 ms
  auto& hog = sched.create_thread("hog", 100);
  Time reserved_done = Time::never();
  // The reserved thread asks for 50 ms straight: the first 25 ms are
  // guaranteed (preempting the hog); the rest competes round-robin.
  auto rp = [&]() -> Coro {
    co_await sched.run(reserved, Time::ms(50));
    reserved_done = eng.now();
  };
  auto hp = [&]() -> Coro { co_await sched.run(hog, Time::sec(1)); };
  hp().detach();
  rp().detach();
  eng.run_until(Time::sec(2));
  // Guaranteed 25 ms + ~2x round-robin for the rest, plus the 100 ms
  // replenishment giving a second 25 ms burst: finishes near 75-85 ms.
  EXPECT_GT(reserved_done, Time::ms(50));
  EXPECT_LT(reserved_done, Time::ms(140));
}

TEST(CpuSched, ReservedThreadPreemptsOnWake) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(50))};
  auto& reserved = sched.create_thread("reserved", 100);
  sched.set_reservation(reserved, 0.5, Time::ms(100));
  auto& hog = sched.create_thread("hog", 100);
  auto hp = [&]() -> Coro { co_await sched.run(hog, Time::sec(1)); };
  hp().detach();
  Time done = Time::never();
  auto rp = [&]() -> Coro {
    co_await Delay{eng, Time::ms(7)};  // wake mid-hog-slice
    co_await sched.run(reserved, Time::ms(3));
    done = eng.now();
  };
  rp().detach();
  eng.run_until(Time::sec(2));
  EXPECT_EQ(done, Time::ms(10));  // immediate preemption at 7 ms + 3 ms work
}

TEST(CpuSched, ManyThreadsStarveEachOtherFairly) {
  Engine eng;
  CpuScheduler sched{eng, one_cpu(Time::ms(10))};
  std::vector<CpuScheduler::Thread*> thrs;
  std::vector<Time> done(8, Time::never());
  for (int i = 0; i < 8; ++i) {
    thrs.push_back(&sched.create_thread("t" + std::to_string(i), 10));
  }
  auto w = [&](int i) -> Coro {
    co_await sched.run(*thrs[static_cast<std::size_t>(i)], Time::ms(10));
    done[static_cast<std::size_t>(i)] = eng.now();
  };
  for (int i = 0; i < 8; ++i) w(i).detach();
  eng.run();
  // FIFO within the class: thread i finishes at (i+1)*10 ms.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(done[static_cast<std::size_t>(i)], Time::ms(10 * (i + 1)));
  }
}

}  // namespace
}  // namespace nistream::sim
