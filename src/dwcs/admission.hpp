// Admission control for window-constrained streams.
//
// The paper's scalability story (abstract, §6) needs servers to accept
// stream requests "with a pre-negotiated bound on service degradation" —
// i.e. admission control. For DWCS the natural feasibility measure is the
// *minimum on-time demand*: a stream with tolerance x/y, period T and mean
// frame size C must receive at least (1 - x/y) of its frames on time, so it
// consumes
//     (1 - x/y) * C / T           of link bandwidth, and
//     (1 - x/y) * (D / T)         of scheduler CPU (D = per-frame decision
//                                  plus dispatch time on the NI),
// and a set of streams is admissible while both sums stay under a headroom
// bound (DWCS needs a few percent of slack for its violation-recovery
// feedback — see the PolicyComparison tests).
#pragma once

#include <cstdint>

#include "dwcs/types.hpp"
#include "sim/time.hpp"

namespace nistream::dwcs {

class AdmissionController {
 public:
  struct Request {
    WindowConstraint tolerance{};
    sim::Time period = sim::Time::ms(33);
    std::uint32_t mean_frame_bytes = 1000;
  };

  /// `link_bytes_per_sec`: the NI's output link capacity.
  /// `per_frame_cpu`: scheduling decision + dispatch time on this NI.
  /// `headroom`: admissible fraction of each resource (default 90%).
  AdmissionController(double link_bytes_per_sec, sim::Time per_frame_cpu,
                      double headroom = 0.90)
      : link_bytes_per_sec_{link_bytes_per_sec},
        per_frame_cpu_{per_frame_cpu},
        headroom_{headroom} {}

  /// Fractional on-time service requirement of the stream: (1 - x/y).
  [[nodiscard]] static double ontime_fraction(const WindowConstraint& c) {
    return 1.0 - static_cast<double>(c.x) / static_cast<double>(c.y);
  }

  /// Link-bandwidth share the request needs (fraction of capacity).
  [[nodiscard]] double link_load(const Request& r) const {
    const double bytes_per_sec =
        static_cast<double>(r.mean_frame_bytes) / r.period.to_sec();
    return ontime_fraction(r.tolerance) * bytes_per_sec / link_bytes_per_sec_;
  }

  /// Scheduler-CPU share the request needs. Every arriving frame costs a
  /// decision even if it is then dropped, so the CPU term uses the full
  /// frame rate, not the on-time fraction.
  [[nodiscard]] double cpu_load(const Request& r) const {
    return per_frame_cpu_.to_sec() / r.period.to_sec();
  }

  /// Whether admission can price `r` at all: a valid window and a period in
  /// (0, kMaxPeriod]. A longer period would overflow deadline arithmetic.
  [[nodiscard]] static bool valid(const Request& r) {
    return r.tolerance.valid() && r.period > sim::Time::zero() &&
           r.period <= kMaxPeriod;
  }

  [[nodiscard]] bool would_admit(const Request& r) const {
    return valid(r) && link_used_ + link_load(r) <= headroom_ &&
           cpu_used_ + cpu_load(r) <= headroom_;
  }

  /// Try to admit; reserves the request's share on success.
  bool admit(const Request& r) {
    if (!would_admit(r)) {
      ++rejected_;
      return false;
    }
    link_used_ += link_load(r);
    cpu_used_ += cpu_load(r);
    ++admitted_;
    return true;
  }

  /// Release a previously admitted request's reservation (stream teardown).
  void release(const Request& r) {
    link_used_ -= link_load(r);
    cpu_used_ -= cpu_load(r);
    if (link_used_ < 0) link_used_ = 0;
    if (cpu_used_ < 0) cpu_used_ = 0;
    --admitted_;
  }

  [[nodiscard]] double link_utilization() const { return link_used_; }
  [[nodiscard]] double cpu_utilization() const { return cpu_used_; }
  [[nodiscard]] std::uint64_t admitted() const { return admitted_; }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }
  [[nodiscard]] double headroom() const { return headroom_; }

 private:
  double link_bytes_per_sec_;
  sim::Time per_frame_cpu_;
  double headroom_;
  double link_used_ = 0;
  double cpu_used_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace nistream::dwcs
