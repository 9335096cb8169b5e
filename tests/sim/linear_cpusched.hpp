// Test-only oracle: the linear-scan CpuScheduler that sim::CpuScheduler's
// indexed ready heaps replaced, kept verbatim apart from the class name, the
// slice probe, and the dispatch fix that tries every waiting thread (most
// urgent first) for a preemption victim instead of only the most urgent one.
// Every pick scans the whole ready vector in insertion order, so it states
// the intended picking order directly; the differential test in
// cpusched_ready_queue_test.cpp drives both with identical scripts.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace nistream::sim::oracle {

class LinearScanCpuScheduler {
 public:
  struct Params {
    int num_cpus = 1;
    Time quantum = Time::ms(10);
    Time context_switch = Time::zero();
    /// Granularity of the utilization series (Figure 6's perfmeter).
    Time meter_sample = Time::ms(1000);
  };

  class Thread {
   public:
    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] int priority() const { return priority_; }
    [[nodiscard]] Time cpu_time() const { return cpu_time_; }

   private:
    friend class LinearScanCpuScheduler;
    Thread(std::string name, int priority, int affinity)
        : name_{std::move(name)}, priority_{priority}, affinity_{affinity} {}

    std::string name_;
    int priority_;
    int affinity_;  // -1 = any CPU, otherwise pinned (Solaris pbind)
    Time remaining_ = Time::zero();
    std::coroutine_handle<> waiter_{};
    bool queued_ = false;
    int running_on_ = -1;
    std::uint64_t seq_ = 0;
    Time cpu_time_ = Time::zero();
    // Reservation state (zero budget_per_period_ = no reservation).
    Time budget_per_period_ = Time::zero();
    Time budget_left_ = Time::zero();
  };

  LinearScanCpuScheduler(Engine& engine, Params p);
  LinearScanCpuScheduler(const LinearScanCpuScheduler&) = delete;
  LinearScanCpuScheduler& operator=(const LinearScanCpuScheduler&) = delete;

  /// Create a schedulable context. `affinity` pins the thread to one CPU
  /// (the paper binds the host DWCS scheduler with Solaris `pbind`).
  Thread& create_thread(std::string name, int priority, int affinity = -1);

  /// Grant `t` a CPU reservation: `fraction` of one CPU, replenished every
  /// `period` (Jones et al.'s reservation scheduler, discussed in the
  /// paper's §5). While a reserved thread has budget left in the current
  /// period it outranks every ordinary thread, so its service rate is
  /// guaranteed regardless of load; once the budget is spent it competes at
  /// its normal priority.
  void set_reservation(Thread& t, double fraction, Time period);

  /// co_await sched.run(thread, t): consume `t` of CPU time.
  struct RunAwaiter {
    LinearScanCpuScheduler& sched;
    Thread& thread;
    Time amount;
    bool await_ready() const noexcept { return amount <= Time::zero(); }
    void await_suspend(std::coroutine_handle<> h) {
      sched.submit(thread, amount, h);
    }
    void await_resume() const noexcept {}
  };
  [[nodiscard]] RunAwaiter run(Thread& t, Time amount) {
    return RunAwaiter{*this, t, amount};
  }

  [[nodiscard]] int num_cpus() const { return static_cast<int>(cpus_.size()); }
  [[nodiscard]] Time total_busy() const;
  /// Whole-machine utilization series in percent (0-100), averaged over CPUs.
  [[nodiscard]] TimeSeries utilization_series(Time end) const;
  [[nodiscard]] const UtilizationMeter& cpu_meter(int cpu) const {
    return cpus_[static_cast<std::size_t>(cpu)].meter;
  }
  [[nodiscard]] std::uint64_t context_switches() const { return switches_; }

  using SliceProbe = std::function<void(const Thread&, int, Time)>;
  void set_slice_probe(SliceProbe probe) { probe_ = std::move(probe); }

 private:
  struct Cpu {
    Thread* current = nullptr;
    Thread* last = nullptr;  // for context-switch cost accounting
    EventHandle slice_event;
    Time slice_start;      // includes any context-switch lead-in
    Time run_start;        // when useful work begins (slice_start + cs)
    Time slice_run_len;    // useful run time granted this slice
    UtilizationMeter meter;
    explicit Cpu(Time sample) : meter{sample} {}
  };

  void submit(Thread& t, Time amount, std::coroutine_handle<> h);
  void enqueue(Thread& t, bool to_front);
  void dispatch();
  void start_slice(int cpu_idx, Thread& t);
  void finish_slice(int cpu_idx);
  void preempt(int cpu_idx);
  [[nodiscard]] Thread* pick_ready(int cpu_idx) const;
  [[nodiscard]] int find_preemptable(const Thread& incoming) const;
  /// Reservation-aware rank: reserved threads with budget outrank everyone.
  [[nodiscard]] static int effective_priority(const Thread& t) {
    const bool reserved = t.budget_per_period_ > Time::zero() &&
                          t.budget_left_ > Time::zero();
    return reserved ? std::numeric_limits<int>::min() : t.priority_;
  }

  Engine& engine_;
  Params params_;
  std::vector<Cpu> cpus_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<Thread*> ready_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t switches_ = 0;
  SliceProbe probe_;
};

}  // namespace nistream::sim::oracle
