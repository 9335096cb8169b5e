// DWCS decision cost, measured from outside the scheduler: the benchmark
// drives its own DwcsScheduler over a workload's stream population and
// frame grid and brackets every schedule_next call. A CpuModelCostHook
// prices the charges on the i960 model (simulated cycles) and a tee counts
// the memory words they touch.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "dwcs/hw_cost_hook.hpp"
#include "dwcs/scheduler.hpp"
#include "hw/calibration.hpp"
#include "hw/cpu.hpp"
#include "report.hpp"
#include "sim/random.hpp"

namespace e2e {

using namespace nistream;

struct DwcsProbe {
  double host_ns_per_decision = 0;
  double sim_cycles_per_decision = 0;
  double mem_words_per_decision = 0;
};

namespace detail {
/// Forwards every charge to the i960 cost model and counts memory words.
class CountingHook final : public dwcs::CostHook {
 public:
  explicit CountingHook(dwcs::CpuModelCostHook& inner) : inner_{inner} {}
  void arith_int(dwcs::Op op, int n) override { inner_.arith_int(op, n); }
  void arith_float(dwcs::Op op, int n) override { inner_.arith_float(op, n); }
  void mem(dwcs::SimAddr a) override {
    ++mem_words;
    inner_.mem(a);
  }
  void reg() override { inner_.reg(); }
  void cycles(std::int64_t n) override { inner_.cycles(n); }
  std::uint64_t mem_words = 0;

 private:
  dwcs::CpuModelCostHook& inner_;
};
}  // namespace detail

/// `streams` streams of period `period`, phases spread by `seed`, one frame
/// per stream per period; `decisions` timed schedule_next calls, each made
/// at the instant its frame arrives.
inline DwcsProbe probe_dwcs(const dwcs::DwcsScheduler::Config& config,
                            std::size_t streams, sim::Time period,
                            std::uint64_t decisions, std::uint64_t seed) {
  const hw::Calibration cal{};
  hw::CpuModel cpu{cal.ni_cpu};
  dwcs::CpuModelCostHook priced{cpu, cal.ni_int, cal.ni_softfp};
  detail::CountingHook hook{priced};
  dwcs::DwcsScheduler sched{config, hook};
  sim::Rng rng{seed ^ 0xD3C5};
  using Arrival = std::pair<std::int64_t, dwcs::StreamId>;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> next;
  for (std::size_t i = 0; i < streams; ++i) {
    const auto id = sched.create_stream(
        dwcs::StreamParams{.tolerance = {1 + static_cast<std::int64_t>(i % 3),
                                         4},
                           .period = period},
        sim::Time::zero());
    next.emplace(static_cast<std::int64_t>(
                     rng.uniform() * static_cast<double>(period.raw_ns())),
                 id);
  }
  std::uint64_t frame_id = 0;
  double host_ns = 0;
  const std::int64_t cycles0 = cpu.cycles();
  const std::uint64_t words0 = hook.mem_words;
  for (std::uint64_t d = 0; d < decisions; ++d) {
    const auto [at, id] = next.top();
    next.pop();
    const sim::Time now = sim::Time::ns(at);
    dwcs::FrameDescriptor f;
    f.frame_id = frame_id++;
    f.bytes = 1000;
    f.enqueued_at = now;
    (void)sched.enqueue(id, f, now);
    next.emplace(at + period.raw_ns(), id);
    const auto h0 = HostClock::now();
    const auto pick = sched.schedule_next(now);
    host_ns += std::chrono::duration<double, std::nano>(HostClock::now() - h0)
                   .count();
    (void)pick;
  }
  DwcsProbe p;
  const double n = static_cast<double>(decisions);
  p.host_ns_per_decision = host_ns / n;
  p.sim_cycles_per_decision = static_cast<double>(cpu.cycles() - cycles0) / n;
  p.mem_words_per_decision =
      static_cast<double>(hook.mem_words - words0) / n;
  return p;
}

}  // namespace e2e
