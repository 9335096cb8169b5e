// Differential test of CpuScheduler's indexed ready heaps against the
// linear-scan scheduler they replaced (tests/sim/linear_cpusched.hpp).
//
// Both schedulers are driven by the same seeded coroutine scripts — 1-4
// CPUs, a few priority classes so ties are common, pinned and unpinned
// threads, mid-slice preemptions that leave several preempted threads tied
// at the front of their class, and reservations refilled while their thread
// is queued — and must produce the same (thread, cpu, slice start) trace and
// the same per-thread CPU time.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "linear_cpusched.hpp"
#include "sim/coro.hpp"
#include "sim/cpusched.hpp"
#include "sim/random.hpp"

namespace nistream::sim {
namespace {

struct Script {
  int cpus = 1;
  int threads = 16;
  int classes = 3;           // priorities 10, 20, ...
  int pinned_percent = 30;   // share of threads pinned to a random CPU
  int reserved = 2;          // the first `reserved` threads hold a reservation
  int rounds = 40;           // run() calls per thread
  std::int64_t max_gap_us = 3'000;
  std::int64_t max_run_us = 4'000;
  Time quantum = Time::ms(2);
  Time context_switch = Time::zero();
  Time horizon = Time::sec(5);
  std::uint64_t seed = 1;
};

struct Slice {
  int thread;
  int cpu;
  std::int64_t start_ns;
  bool operator==(const Slice&) const = default;
};

struct Outcome {
  std::vector<Slice> trace;
  std::vector<std::int64_t> cpu_ns;
  std::vector<std::int64_t> done_ns;  // -1 = still running at the horizon
  std::uint64_t context_switches = 0;
};

template <class Sched>
Outcome run_script(const Script& s) {
  Engine eng;
  Sched sched{eng, {.num_cpus = s.cpus, .quantum = s.quantum,
                    .context_switch = s.context_switch,
                    .meter_sample = Time::ms(100)}};
  Rng setup{s.seed};
  std::vector<typename Sched::Thread*> threads;
  for (int i = 0; i < s.threads; ++i) {
    const int prio = 10 * (1 + static_cast<int>(setup.below(
                                   static_cast<std::uint64_t>(s.classes))));
    const bool pinned =
        setup.below(100) < static_cast<std::uint64_t>(s.pinned_percent);
    const int affinity =
        pinned ? static_cast<int>(setup.below(static_cast<std::uint64_t>(s.cpus)))
               : -1;
    threads.push_back(&sched.create_thread(std::to_string(i), prio, affinity));
  }
  for (int i = 0; i < s.reserved && i < s.threads; ++i) {
    sched.set_reservation(*threads[static_cast<std::size_t>(i)], 0.2,
                          Time::us(1'000 + 500 * i));
  }

  Outcome out;
  out.done_ns.assign(static_cast<std::size_t>(s.threads), -1);
  sched.set_slice_probe([&](const auto& t, int cpu, Time start) {
    out.trace.push_back({std::stoi(t.name()), cpu, start.raw_ns()});
  });
  auto proc = [&](int i, std::uint64_t seed) -> Coro {
    Rng rng{seed};
    auto& thread = *threads[static_cast<std::size_t>(i)];
    for (int r = 0; r < s.rounds; ++r) {
      co_await Delay{eng, Time::us(static_cast<double>(rng.below(
                              static_cast<std::uint64_t>(s.max_gap_us))))};
      co_await sched.run(thread,
                         Time::us(static_cast<double>(1 + rng.below(
                             static_cast<std::uint64_t>(s.max_run_us)))));
    }
    out.done_ns[static_cast<std::size_t>(i)] = eng.now().raw_ns();
  };
  for (int i = 0; i < s.threads; ++i) {
    proc(i, s.seed * 1'000'003 + static_cast<std::uint64_t>(i)).detach();
  }
  eng.run_until(s.horizon);

  for (auto* t : threads) out.cpu_ns.push_back(t->cpu_time().raw_ns());
  out.context_switches = sched.context_switches();
  return out;
}

void expect_same(const Script& s) {
  const Outcome heap = run_script<CpuScheduler>(s);
  const Outcome scan = run_script<oracle::LinearScanCpuScheduler>(s);
  ASSERT_GT(scan.trace.size(), static_cast<std::size_t>(s.threads));
  ASSERT_EQ(heap.trace.size(), scan.trace.size());
  for (std::size_t i = 0; i < scan.trace.size(); ++i) {
    ASSERT_EQ(heap.trace[i], scan.trace[i])
        << "first divergence at slice " << i << ": heap ran thread "
        << heap.trace[i].thread << " on cpu " << heap.trace[i].cpu << " at "
        << heap.trace[i].start_ns << " ns, linear scan ran thread "
        << scan.trace[i].thread << " on cpu " << scan.trace[i].cpu << " at "
        << scan.trace[i].start_ns << " ns";
  }
  EXPECT_EQ(heap.cpu_ns, scan.cpu_ns);
  EXPECT_EQ(heap.done_ns, scan.done_ns);
  EXPECT_EQ(heap.context_switches, scan.context_switches);
}

TEST(CpuSchedReadyQueue, MatchesLinearScanAcrossCpuCountsAndSeeds) {
  for (int cpus = 1; cpus <= 4; ++cpus) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      // Odd seeds also charge a context switch per slice.
      const Time cs = seed % 2 ? Time::us(40) : Time::zero();
      SCOPED_TRACE("cpus=" + std::to_string(cpus) +
                   " seed=" + std::to_string(seed));
      expect_same({.cpus = cpus, .threads = 8 + 6 * cpus,
                   .context_switch = cs, .seed = seed});
    }
  }
}

TEST(CpuSchedReadyQueue, MatchesLinearScanUnderHeavyReservationChurn) {
  // Half the threads hold short-period reservations, so refills land while
  // their thread sits queued at its ordinary priority and must re-key it.
  for (int cpus = 1; cpus <= 2; ++cpus) {
    SCOPED_TRACE("cpus=" + std::to_string(cpus));
    expect_same({.cpus = cpus, .threads = 16, .classes = 2,
                 .pinned_percent = 50, .reserved = 8, .seed = 5});
  }
}

TEST(CpuSchedReadyQueue, MatchesLinearScanWith4096Threads) {
  // The dense workload's population: thousands of ready threads, long runs
  // of equal-priority ties, and rare higher-class arrivals preempting.
  for (int cpus = 1; cpus <= 2; ++cpus) {
    SCOPED_TRACE("cpus=" + std::to_string(cpus));
    expect_same({.cpus = cpus, .threads = 4096, .classes = 4,
                 .pinned_percent = 10, .reserved = 4, .rounds = 3,
                 .max_gap_us = 20'000, .max_run_us = 200,
                 .quantum = Time::us(150), .seed = 11});
  }
}

// a and b share a class and are both preempted at 1 ms, a first; both then
// sit at the front of the class with the same rank.
template <class Sched>
std::vector<Slice> preemption_order_trace() {
  Engine eng;
  Sched sched{eng, {.num_cpus = 2, .quantum = Time::ms(10),
                    .context_switch = Time::zero(),
                    .meter_sample = Time::ms(100)}};
  auto& a = sched.create_thread("0", 10);
  auto& b = sched.create_thread("1", 10);
  auto& hi1 = sched.create_thread("2", 1);
  auto& hi2 = sched.create_thread("3", 1);
  std::vector<Slice> out;
  sched.set_slice_probe([&](const auto& t, int cpu, Time start) {
    out.push_back({std::stoi(t.name()), cpu, start.raw_ns()});
  });
  auto run = [&](typename Sched::Thread& t, Time at, Time work) -> Coro {
    co_await Delay{eng, at};
    co_await sched.run(t, work);
  };
  run(a, Time::zero(), Time::ms(5)).detach();
  run(b, Time::zero(), Time::ms(5)).detach();
  run(hi1, Time::ms(1), Time::ms(2)).detach();
  run(hi2, Time::ms(1), Time::ms(1)).detach();
  eng.run();
  return out;
}

TEST(CpuSchedReadyQueue, PreemptedThreadsResumeInPreemptionOrder) {
  // The tie goes to preemption order: a resumes on the CPU that frees first
  // (cpu1, at 2 ms), b on the other (cpu0, at 3 ms).
  const auto ms = [](double v) { return Time::ms(v).raw_ns(); };
  const std::vector<Slice> expected{
      {0, 0, 0},     {1, 1, 0},      // a, b start
      {2, 0, ms(1)}, {3, 1, ms(1)},  // hi1 preempts a, hi2 preempts b
      {0, 1, ms(2)},                 // hi2 done: a, preempted first
      {1, 0, ms(3)},                 // hi1 done: b
  };
  EXPECT_EQ(preemption_order_trace<CpuScheduler>(), expected);
  EXPECT_EQ(preemption_order_trace<oracle::LinearScanCpuScheduler>(),
            expected);
}

}  // namespace
}  // namespace nistream::sim
