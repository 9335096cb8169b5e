// What one simulated run of a workload yields, and the slicer that
// advances the engine for the traced run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "sim/engine.hpp"
#include "viewer.hpp"

namespace e2e {

/// One fixed simulated slice of the traced run: host time spent in it,
/// events executed, and the workload's counters at its end.
struct SliceRec {
  double sim_end_s = 0;
  double host_s = 0;
  std::uint64_t events = 0;
  std::vector<double> counters;
};

struct RunResult {
  MetricList sim;     // simulated-clock end-to-end metrics (deterministic)
  MetricList layers;  // per-layer counters read from the same run
  double setup_host_s = 0;  // thread CPU seconds
  double run_host_s = 0;    // thread CPU seconds
  double run_wall_s = 0;    // wall seconds, for the log
  std::uint64_t frames_delivered = 0;  // base of frames_per_host_s
  std::uint64_t setups_answered = 0;   // base of setups_per_host_s
  std::uint64_t fingerprint = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;     // failed correctness checks
  std::vector<std::string> load;       // realised vs intended load
  // Traced run only.
  std::vector<std::string> counter_names;
  std::vector<SliceRec> slices;
  std::vector<FrameSpan> spans;
};

/// Advance `engine` to `until`. Untraced: one run_until call. Traced: fixed
/// slices of `slice`, recording host time, events and `sample()` at each
/// slice end. Either way the simulation executes the same events in the same
/// order; the run fingerprint checks that.
class Slicer {
 public:
  Slicer(bool traced, sim::Time slice,
         std::function<std::vector<double>()> sample, RunResult& out)
      : traced_{traced}, slice_{slice}, sample_{std::move(sample)},
        out_{out} {}

  void advance(sim::Engine& engine, sim::Time until) {
    if (!traced_) {
      engine.run_until(until);
      return;
    }
    while (engine.now() < until) {
      sim::Time next = engine.now() + slice_;
      if (next > until) next = until;
      const std::uint64_t ev0 = engine.events_executed();
      const double h0 = thread_cpu_seconds();
      engine.run_until(next);
      SliceRec r;
      r.host_s = thread_cpu_seconds() - h0;
      r.sim_end_s = next.to_sec();
      r.events = engine.events_executed() - ev0;
      r.counters = sample_();
      out_.slices.push_back(std::move(r));
    }
  }

 private:
  bool traced_;
  sim::Time slice_;
  std::function<std::vector<double>()> sample_;
  RunResult& out_;
};

/// Highest value of counter column `col` over the traced slices.
inline double slice_peak(const RunResult& r, std::size_t col) {
  double peak = 0;
  for (const auto& s : r.slices) {
    if (col < s.counters.size() && s.counters[col] > peak) {
      peak = s.counters[col];
    }
  }
  return peak;
}

inline double slice_mean(const RunResult& r, std::size_t col) {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& s : r.slices) {
    if (col < s.counters.size()) {
      sum += s.counters[col];
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace e2e
