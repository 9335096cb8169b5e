// Test-only linear-scan CpuScheduler; see linear_cpusched.hpp.
#include "linear_cpusched.hpp"

#include <algorithm>

namespace nistream::sim::oracle {

LinearScanCpuScheduler::LinearScanCpuScheduler(Engine& engine, Params p)
    : engine_{engine}, params_{p} {
  assert(p.num_cpus >= 1);
  cpus_.reserve(static_cast<std::size_t>(p.num_cpus));
  for (int i = 0; i < p.num_cpus; ++i) cpus_.emplace_back(p.meter_sample);
}

LinearScanCpuScheduler::Thread& LinearScanCpuScheduler::create_thread(std::string name,
                                                  int priority, int affinity) {
  assert(affinity >= -1 && affinity < num_cpus());
  threads_.push_back(std::unique_ptr<Thread>(
      new Thread{std::move(name), priority, affinity}));
  return *threads_.back();
}

void LinearScanCpuScheduler::set_reservation(Thread& t, double fraction, Time period) {
  assert(fraction > 0.0 && fraction <= 1.0 && period > Time::zero());
  t.budget_per_period_ = Time::us(period.to_us() * fraction);
  t.budget_left_ = t.budget_per_period_;
  // Periodic replenishment; a fresh budget may entitle the thread to
  // preempt, so re-dispatch on every refill.
  const auto replenish = [this, &t, period](auto&& self) -> void {
    engine_.schedule_in(period, [this, &t, period, self] {
      t.budget_left_ = t.budget_per_period_;
      dispatch();
      self(self);
    });
  };
  replenish(replenish);
}

void LinearScanCpuScheduler::submit(Thread& t, Time amount, std::coroutine_handle<> h) {
  assert(!t.waiter_ && "thread already has an outstanding run()");
  assert(t.running_on_ < 0 && !t.queued_);
  t.remaining_ = amount;
  t.waiter_ = h;
  enqueue(t, /*to_front=*/false);
  dispatch();
}

void LinearScanCpuScheduler::enqueue(Thread& t, bool to_front) {
  assert(!t.queued_);
  // `seq_` orders threads within a priority class: new arrivals and expired
  // quanta go to the back; preempted threads keep their place at the front.
  t.seq_ = to_front ? 0 : next_seq_++;
  t.queued_ = true;
  ready_.push_back(&t);
}

LinearScanCpuScheduler::Thread* LinearScanCpuScheduler::pick_ready(int cpu_idx) const {
  Thread* best = nullptr;
  for (Thread* t : ready_) {
    if (t->affinity_ >= 0 && t->affinity_ != cpu_idx) continue;
    if (!best || effective_priority(*t) < effective_priority(*best) ||
        (effective_priority(*t) == effective_priority(*best) &&
         t->seq_ < best->seq_)) {
      best = t;
    }
  }
  return best;
}

int LinearScanCpuScheduler::find_preemptable(const Thread& incoming) const {
  // Choose the CPU running the least important current thread that the
  // incoming thread is allowed to run on and strictly outranks.
  int victim = -1;
  for (int i = 0; i < num_cpus(); ++i) {
    const auto& cpu = cpus_[static_cast<std::size_t>(i)];
    if (!cpu.current) continue;  // idle CPUs are handled by dispatch()
    if (incoming.affinity_ >= 0 && incoming.affinity_ != i) continue;
    if (effective_priority(*cpu.current) <= effective_priority(incoming)) {
      continue;
    }
    if (victim < 0 ||
        effective_priority(*cpu.current) >
            effective_priority(
                *cpus_[static_cast<std::size_t>(victim)].current)) {
      victim = i;
    }
  }
  return victim;
}

void LinearScanCpuScheduler::dispatch() {
  // Fill idle CPUs first.
  for (int i = 0; i < num_cpus(); ++i) {
    if (cpus_[static_cast<std::size_t>(i)].current) continue;
    if (Thread* t = pick_ready(i)) start_slice(i, *t);
  }
  // Then preempt less important work if anything urgent is still queued:
  // the most urgent waiting thread that has a victim goes first.
  for (;;) {
    Thread* waiting = nullptr;
    for (Thread* t : ready_) {
      if (find_preemptable(*t) < 0) continue;
      if (!waiting || effective_priority(*t) < effective_priority(*waiting) ||
          (effective_priority(*t) == effective_priority(*waiting) &&
           t->seq_ < waiting->seq_)) {
        waiting = t;
      }
    }
    if (!waiting) return;
    const int victim = find_preemptable(*waiting);
    preempt(victim);
    if (Thread* t = pick_ready(victim)) start_slice(victim, *t);
  }
}

void LinearScanCpuScheduler::start_slice(int cpu_idx, Thread& t) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_idx)];
  assert(!cpu.current && t.queued_);
  std::erase(ready_, &t);
  t.queued_ = false;
  t.running_on_ = cpu_idx;
  cpu.current = &t;

  const Time cs = (cpu.last != &t) ? params_.context_switch : Time::zero();
  if (cs > Time::zero()) ++switches_;
  cpu.slice_start = engine_.now();
  cpu.run_start = cpu.slice_start + cs;
  cpu.slice_run_len = std::min(params_.quantum, t.remaining_);
  if (t.budget_per_period_ > Time::zero() && t.budget_left_ > Time::zero()) {
    // A reserved slice must not outrun the remaining budget (past it the
    // thread drops back to its ordinary priority).
    cpu.slice_run_len = std::min(cpu.slice_run_len, t.budget_left_);
  }
  cpu.last = &t;
  if (probe_) probe_(t, cpu_idx, cpu.slice_start);
  cpu.slice_event = engine_.schedule_at(
      cpu.run_start + cpu.slice_run_len, [this, cpu_idx] { finish_slice(cpu_idx); });
}

void LinearScanCpuScheduler::finish_slice(int cpu_idx) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_idx)];
  Thread* t = cpu.current;
  assert(t);
  cpu.meter.add_busy(cpu.slice_start, engine_.now());
  t->cpu_time_ += cpu.slice_run_len;
  t->remaining_ -= cpu.slice_run_len;
  if (t->budget_per_period_ > Time::zero()) {
    t->budget_left_ -= std::min(t->budget_left_, cpu.slice_run_len);
  }
  t->running_on_ = -1;
  cpu.current = nullptr;

  if (t->remaining_ <= Time::zero()) {
    const auto h = t->waiter_;
    t->waiter_ = {};
    engine_.schedule_in(Time::zero(), [h] { h.resume(); });
  } else {
    enqueue(*t, /*to_front=*/false);  // quantum expired: back of the class
  }
  dispatch();
}

void LinearScanCpuScheduler::preempt(int cpu_idx) {
  Cpu& cpu = cpus_[static_cast<std::size_t>(cpu_idx)];
  Thread* t = cpu.current;
  assert(t);
  cpu.slice_event.cancel();
  const Time now = engine_.now();
  // Work actually accomplished: time past the context-switch lead-in.
  const Time done = now > cpu.run_start ? now - cpu.run_start : Time::zero();
  cpu.meter.add_busy(cpu.slice_start, now);
  t->cpu_time_ += done;
  t->remaining_ -= done;
  if (t->budget_per_period_ > Time::zero()) {
    t->budget_left_ -= std::min(t->budget_left_, done);
  }
  t->running_on_ = -1;
  cpu.current = nullptr;

  if (t->remaining_ <= Time::zero()) {
    // The preempter arrived exactly as the slice would have completed.
    const auto h = t->waiter_;
    t->waiter_ = {};
    engine_.schedule_in(Time::zero(), [h] { h.resume(); });
  } else {
    enqueue(*t, /*to_front=*/true);  // keeps its turn at the head of the class
  }
}

Time LinearScanCpuScheduler::total_busy() const {
  Time sum = Time::zero();
  for (const auto& cpu : cpus_) sum += cpu.meter.total_busy();
  return sum;
}

TimeSeries LinearScanCpuScheduler::utilization_series(Time end) const {
  // Average the per-CPU sampled series point-wise; all meters share bucket
  // edges because they share meter_sample.
  std::vector<TimeSeries> per_cpu;
  per_cpu.reserve(cpus_.size());
  std::size_t n_points = 0;
  for (const auto& cpu : cpus_) {
    per_cpu.push_back(cpu.meter.sample(end));
    n_points = std::max(n_points, per_cpu.back().points().size());
  }
  TimeSeries out{"cpu_util"};
  for (std::size_t i = 0; i < n_points; ++i) {
    double sum = 0.0;
    Time t = Time::zero();
    for (const auto& ts : per_cpu) {
      if (i < ts.points().size()) {
        t = ts.points()[i].first;
        sum += ts.points()[i].second;
      }
    }
    out.add(t, sum / static_cast<double>(cpus_.size()));
  }
  return out;
}

}  // namespace nistream::sim::oracle
